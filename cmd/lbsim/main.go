// Command lbsim runs the full pipeline on a task system: initial
// distributed scheduling (the paper's reference [4] substrate), the
// load-balancing and memory-usage heuristic, validation, and the
// execution check (precedences, busy time, memory) over one
// hyper-period.
//
// Usage:
//
//	lbgen -tasks 100 | lbsim -procs 6 -comm 1 -gantt
//	lbsim -input system.json -procs 4 -policy ratio -csv out.csv
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"repro/internal/analysis"
	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/trace"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("lbsim: ")

	var (
		input    = flag.String("input", "-", "task-system JSON file (- = stdin)")
		procs    = flag.Int("procs", 4, "number of processors")
		commTime = flag.Int64("comm", 1, "inter-processor communication time C")
		capacity = flag.Int64("cap", 0, "per-processor memory capacity (0 = unlimited)")
		policy   = flag.String("policy", "lexicographic", "cost policy: lexicographic|ratio|memory-only")
		gantt    = flag.Bool("gantt", false, "print ASCII Gantt charts")
		csvOut   = flag.String("csv", "", "write the balanced schedule as CSV to this file")
		simulate = flag.Bool("sim", true, "run the discrete-event executor")
		overhead = flag.Int64("overhead", -1, "materialise send/receive tasks with this per-task CPU cost (-1 = off)")
		contend  = flag.Bool("contend", false, "model bus contention (exclusive medium slots) instead of latency-only")
	)
	flag.Parse()

	ts, err := readSystem(*input)
	if err != nil {
		log.Fatal(err)
	}
	ar, err := arch.New(*procs, model.Time(*commTime))
	if err != nil {
		log.Fatal(err)
	}
	if *capacity > 0 {
		ar.SetMemCapacity(model.Mem(*capacity))
	}
	ar.ContendedMedia = *contend

	fmt.Printf("system: %d tasks, %d dependences, hyper-period %d, utilisation %.2f\n",
		ts.Len(), ts.NumDependences(), ts.HyperPeriod(), ts.Utilization())

	if rep, err := analysis.CheckSchedulability(ts, *procs); err != nil {
		log.Fatalf("definitively unschedulable: %v", err)
	} else if len(rep.PairConflicts) > 0 {
		fmt.Printf("note: %d task pairs can never share a processor (gcd windows too small)\n",
			len(rep.PairConflicts))
	}

	initial, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		log.Fatalf("initial scheduling: %v", err)
	}
	if errs := initial.Validate(); len(errs) > 0 {
		log.Fatalf("initial schedule invalid: %v", errs[0])
	}
	fmt.Printf("initial: makespan %d, memory %s\n", initial.Makespan(), metrics.FormatMemVector(initial.MemVector()))
	if *overhead >= 0 {
		cts, err := sched.MaterializeCommTasks(initial, model.Time(*overhead))
		if err != nil {
			log.Fatalf("communication tasks do not fit: %v", err)
		}
		fmt.Printf("comm tasks: %d (send+recv), per-processor CPU overhead %v\n",
			len(cts), sched.CommOverheadVector(ar.Procs, cts))
	}
	if *gantt {
		if err := trace.GanttSchedule(os.Stdout, initial); err != nil {
			log.Fatal(err)
		}
	}

	bal := &core.Balancer{Policy: parsePolicy(*policy)}
	res, err := bal.Run(sched.FromSchedule(initial))
	if err != nil {
		log.Fatalf("balancing: %v", err)
	}
	fmt.Printf("balanced: makespan %d (gain %d), memory %s, %d blocks, %d forced, %d LCM-relaxed%s\n",
		res.MakespanAfter, res.GainTotal(), metrics.FormatMemVector(res.MemAfter),
		len(res.Blocks), res.Forced, res.RelaxedLCM, consNote(res))
	if *gantt {
		if err := trace.Gantt(os.Stdout, res.Schedule); err != nil {
			log.Fatal(err)
		}
	}

	if errs := res.Schedule.Validate(); len(errs) > 0 {
		log.Fatalf("balanced schedule invalid: %v", errs[0])
	}
	fmt.Println("balanced schedule validated")

	if *simulate {
		rep, err := (&sim.Runner{}).Run(res.Schedule)
		if err != nil {
			log.Fatalf("simulation: %v", err)
		}
		fmt.Printf("execution: mean idle %.0f%%\n", rep.IdleRatio*100)
		peaks := sim.BufferPeaks(res.Schedule)
		for p, st := range rep.Procs {
			fmt.Printf("  P%d: busy %d, resident %d, buffer peak %d\n", p+1, st.Busy, st.ResidentMem, peaks[p])
		}
	}

	if *csvOut != "" {
		f, err := os.Create(*csvOut)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := trace.CSV(f, res.Schedule); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("schedule written to %s\n", *csvOut)
	}
}

func readSystem(path string) (*model.TaskSet, error) {
	var r io.Reader = os.Stdin
	if path != "-" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		r = f
	}
	return model.ReadJSON(r)
}

func parsePolicy(s string) core.Policy {
	switch s {
	case "lexicographic":
		return core.PolicyLexicographic
	case "ratio":
		return core.PolicyRatio
	case "memory-only":
		return core.PolicyMemoryOnly
	}
	log.Fatalf("unknown policy %q (want lexicographic|ratio|memory-only)", s)
	return 0
}

func consNote(res *core.Result) string {
	if res.ConservativePropagation {
		return " (conservative propagation pass)"
	}
	return ""
}
