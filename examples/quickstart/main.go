// Command quickstart shows the minimal end-to-end pipeline of the
// library: define a small multi-rate task system, schedule it onto a
// homogeneous architecture, run the load-balancing and memory-usage
// heuristic, and print the before/after picture.
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/trace"
)

func main() {
	// A tiny control application: a fast sensor feeds a filter, the
	// filter feeds a slow actuator command.
	ts := repro.NewTaskSet()
	sensor, err := ts.AddTask("sensor", 5, 1, 3)
	if err != nil {
		log.Fatal(err)
	}
	filter, err := ts.AddTask("filter", 10, 2, 2)
	if err != nil {
		log.Fatal(err)
	}
	actuate, err := ts.AddTask("actuate", 20, 2, 1)
	if err != nil {
		log.Fatal(err)
	}
	if err := ts.AddDependence(sensor, filter, 1); err != nil {
		log.Fatal(err)
	}
	if err := ts.AddDependence(filter, actuate, 1); err != nil {
		log.Fatal(err)
	}
	if err := ts.Freeze(); err != nil {
		log.Fatal(err)
	}

	ar, err := repro.NewArchitecture(2, 1) // two processors, C = 1
	if err != nil {
		log.Fatal(err)
	}

	initial, err := repro.Schedule(ts, ar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Initial schedule:")
	if err := trace.GanttSchedule(os.Stdout, initial); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d, memory %v\n\n", initial.Makespan(), initial.MemVector())

	res, err := repro.Balance(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Balanced schedule:")
	if err := trace.Gantt(os.Stdout, res.Schedule); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d → %d (gain %d), memory %v → %v\n",
		res.MakespanBefore, res.MakespanAfter, res.GainTotal(), res.MemBefore, res.MemAfter)

	rep, err := repro.Simulate(res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mean idle ratio %.0f%%; per-processor demand (resident+buffers):\n", rep.IdleRatio*100)
	peaks := repro.BufferPeaks(res.Schedule)
	for p, st := range rep.Procs {
		fmt.Printf("  P%d: busy %d, resident %d, buffer peak %d\n", p+1, st.Busy, st.ResidentMem, peaks[p])
	}
}
