// Command avionics models a flight-control workload of the kind the
// paper's introduction motivates: fast sensor loops (gyro, accelerometer,
// pitot) feeding a multi-rate filter/fusion pipeline, a control law, and
// slow actuator and telemetry tasks — on a memory-constrained triplex
// computer. It demonstrates balancing under a per-processor memory
// capacity and the receive-buffer demand of multi-rate edges (figure 1).
package main

import (
	"fmt"
	"log"
	"os"

	"repro"
	"repro/internal/metrics"
	"repro/internal/trace"
)

func main() {
	ts := repro.NewTaskSet()
	add := func(name string, period, wcet repro.Time, mem repro.Mem) repro.TaskID {
		id, err := ts.AddTask(name, period, wcet, mem)
		if err != nil {
			log.Fatal(err)
		}
		return id
	}
	dep := func(src, dst repro.TaskID, data repro.Mem) {
		if err := ts.AddDependence(src, dst, data); err != nil {
			log.Fatal(err)
		}
	}

	// Sensor loops at 5 ms (abstract units), filters at 10, fusion and
	// control at 20, actuation and telemetry at 40.
	gyro := add("gyro", 5, 1, 6)
	accel := add("accel", 5, 1, 6)
	pitot := add("pitot", 10, 1, 4)
	gfilt := add("gyro_filter", 10, 2, 3)
	afilt := add("accel_filter", 10, 2, 3)
	fusion := add("fusion", 20, 3, 8)
	ctl := add("control_law", 20, 3, 5)
	elev := add("elevator_cmd", 40, 2, 2)
	ail := add("aileron_cmd", 40, 2, 2)
	tele := add("telemetry", 40, 4, 7)

	dep(gyro, gfilt, 2)
	dep(accel, afilt, 2)
	dep(gfilt, fusion, 1)
	dep(afilt, fusion, 1)
	dep(pitot, fusion, 1)
	dep(fusion, ctl, 2)
	dep(ctl, elev, 1)
	dep(ctl, ail, 1)
	dep(fusion, tele, 2)
	if err := ts.Freeze(); err != nil {
		log.Fatal(err)
	}

	ar := repro.MustNewArchitecture(3, 1)
	ar.SetMemCapacity(80) // tight: total per-instance demand is 184 over three processors

	fmt.Printf("avionics workload: %d tasks, hyper-period %d, utilisation %.2f, total memory %d\n\n",
		ts.Len(), ts.HyperPeriod(), ts.Utilization(), ts.TotalMem())

	initial, err := repro.Schedule(ts, ar)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Initial schedule (reference [4] heuristic):")
	if err := trace.GanttSchedule(os.Stdout, initial); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d, memory %s\n\n", initial.Makespan(), metrics.FormatMemVector(initial.MemVector()))

	res, err := repro.Balance(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("After load balancing with efficient memory usage:")
	if err := trace.Gantt(os.Stdout, res.Schedule); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("makespan %d → %d, memory %s → %s\n",
		res.MakespanBefore, res.MakespanAfter,
		metrics.FormatMemVector(res.MemBefore), metrics.FormatMemVector(res.MemAfter))
	fmt.Printf("memory imbalance %.2f → %.2f (1.00 = perfectly even)\n\n",
		metrics.MemImbalance(res.MemBefore), metrics.MemImbalance(res.MemAfter))

	for p, m := range res.MemAfter {
		if m > ar.MemCapacity {
			log.Fatalf("P%d exceeds the %d-unit capacity", p+1, ar.MemCapacity)
		}
	}
	fmt.Printf("every processor within the %d-unit memory capacity\n\n", ar.MemCapacity)

	rep, err := repro.Simulate(res.Schedule)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("Execution over one hyper-period (multi-rate buffering per figure 1):")
	peaks := repro.BufferPeaks(res.Schedule)
	for p, st := range rep.Procs {
		fmt.Printf("  P%d: busy %3d  idle %3d  resident mem %3d  receive-buffer peak %2d  total demand %3d\n",
			p+1, st.Busy, st.Idle, st.ResidentMem, peaks[p], st.ResidentMem+peaks[p])
	}
	fmt.Printf("mean idle ratio %.0f%%\n", rep.IdleRatio*100)
}
