// Command telecom models a software base-band pipeline (frame sync,
// channel decode, de-interleave, voice codec, packetiser) under the
// *strict* communication model: bus contention on the shared medium and
// explicit send/receive tasks with non-zero CPU overhead. It exposes the
// trade the heuristic makes on communication-heavy pipelines: memory
// spreads across the processors, and the price is paid in bus transfers
// and send/receive CPU time — quantities the latency-only model hides,
// which is exactly why this example materialises them.
package main

import (
	"fmt"
	"log"

	"repro"
	"repro/internal/metrics"
	"repro/internal/sched"
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

	sync := add("frame_sync", 8, 1, 3)
	demod := add("demodulate", 8, 2, 5)
	deco := add("channel_decode", 16, 4, 8)
	deint := add("deinterleave", 16, 2, 4)
	voice := add("voice_codec", 32, 6, 6)
	pack := add("packetise", 32, 3, 4)
	oam := add("oam_counters", 64, 5, 7)

	dep(sync, demod, 1)
	dep(demod, deco, 2)
	dep(deco, deint, 2)
	dep(deint, voice, 1)
	dep(voice, pack, 1)
	dep(pack, oam, 1)
	if err := ts.Freeze(); err != nil {
		log.Fatal(err)
	}

	ar := repro.MustNewArchitecture(3, 2)
	ar.ContendedMedia = true // exclusive bus slots, the strict model

	fmt.Printf("telecom pipeline: %d tasks, hyper-period %d, utilisation %.2f\n",
		ts.Len(), ts.HyperPeriod(), ts.Utilization())
	fmt.Println("communication model: contended bus, C=2, send/recv CPU overhead 1")
	fmt.Println()

	initial, err := repro.Schedule(ts, ar)
	if err != nil {
		log.Fatal(err)
	}
	before := report("initial", initial, ar)

	res, err := repro.Balance(initial)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nbalanced: makespan %d → %d, memory %s → %s\n",
		res.MakespanBefore, res.MakespanAfter,
		metrics.FormatMemVector(res.MemBefore), metrics.FormatMemVector(res.MemAfter))
	if errs := res.Schedule.Validate(); len(errs) > 0 {
		log.Fatalf("balanced schedule invalid: %v", errs)
	}

	// Count the transfers that survived balancing: co-location removes
	// bus traffic entirely for merged chains.
	after := 0
	for i := 0; i < ts.Len(); i++ {
		dst := repro.TaskID(i)
		for k := 0; k < ts.Instances(dst); k++ {
			cpl, _ := res.Schedule.Placement(repro.InstanceID{Task: dst, K: k})
			for _, src := range repro.InstanceDeps(ts, dst, k) {
				spl, _ := res.Schedule.Placement(src)
				if spl.Proc != cpl.Proc {
					after++
				}
			}
		}
	}
	fmt.Printf("bus transfers per hyper-period: %d → %d\n", before, after)
	fmt.Printf("memory imbalance: %.2f → %.2f\n",
		metrics.MemImbalance(res.MemBefore), metrics.MemImbalance(res.MemAfter))
	if after > before {
		fmt.Println("note: spreading memory on this pipeline costs extra bus transfers —")
		fmt.Println("      the strict model makes that trade visible and checkable")
	}
}

// report prints a schedule's summary and returns its bus transfer count.
func report(label string, s *repro.InitialSchedule, ar *repro.Architecture) int {
	cms, err := s.Comms()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: makespan %d, memory %s, %d bus transfers\n",
		label, s.Makespan(), metrics.FormatMemVector(s.MemVector()), len(cms))
	cts, err := repro.MaterializeCommTasks(s, 1)
	if err != nil {
		fmt.Printf("%s: communication tasks do NOT fit with overhead 1: %v\n", label, err)
		return len(cms)
	}
	fmt.Printf("%s: %d send/recv tasks, CPU overhead per processor %v\n",
		label, len(cts), sched.CommOverheadVector(ar.Procs, cts))
	return len(cms)
}
