// Command paperexample reproduces the worked example of the paper
// (§3.3, figures 2–4) end to end and prints every intermediate artefact:
// the initial schedule of figure 3, the seven block moves with their
// per-processor cost evaluations, and the balanced schedule of figure 4.
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
	// Figure 2: periods Ta=3, Tb=Tc=6, Td=Te=12; E=1 for all; C=1;
	// memory m_a=4, m_b=m_c=1, m_d=m_e=2; three processors on one bus.
	ts := repro.NewTaskSet()
	a, _ := ts.AddTask("a", 3, 1, 4)
	b, _ := ts.AddTask("b", 6, 1, 1)
	c, _ := ts.AddTask("c", 6, 1, 1)
	d, _ := ts.AddTask("d", 12, 1, 2)
	e, _ := ts.AddTask("e", 12, 1, 2)
	must(ts.AddDependence(a, b, 1))
	must(ts.AddDependence(b, c, 1))
	must(ts.AddDependence(b, d, 1))
	must(ts.AddDependence(d, e, 1))
	must(ts.Freeze())

	ar := repro.MustNewArchitecture(3, 1)

	// Figure 3: the schedule produced by the distributed scheduling
	// heuristic of the paper's reference [4], pinned exactly.
	s, err := repro.NewManualSchedule(ts, ar)
	if err != nil {
		log.Fatal(err)
	}
	s.MustPlace(a, 0, 0)
	s.MustPlace(b, 1, 5)
	s.MustPlace(c, 1, 6)
	s.MustPlace(d, 2, 13)
	s.MustPlace(e, 2, 14)
	if errs := s.Validate(); len(errs) > 0 {
		log.Fatalf("initial schedule invalid: %v", errs)
	}

	fmt.Println("=== Figure 3: schedule before load balancing ===")
	must(trace.GanttSchedule(os.Stdout, s))
	fmt.Printf("total execution time: %d units (paper: 15)\n", s.Makespan())
	fmt.Printf("required memory:      %s (paper: [P1: 16, P2: 4, P3: 4])\n\n",
		metrics.FormatMemVector(s.MemVector()))

	fmt.Println("=== Inter-processor transfers (send/receive pairs) ===")
	must(trace.Comms(os.Stdout, s))
	fmt.Println()

	bal := &repro.Balancer{Policy: repro.PolicyLexicographic, RecordCandidates: true}
	res, err := repro.BalanceWith(repro.Expand(s), bal)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("=== §3.3 heuristic steps ===")
	for i, mv := range res.Moves {
		bl := res.Blocks[mv.BlockID]
		fmt.Printf("%d. block %s (category %d, m=%d): ", i+1, blockName(ts, res, mv.BlockID), mv.Category, bl.Mem())
		for _, cand := range mv.Candidates {
			if cand.Feasible {
				fmt.Printf("P%d(G=%d,Σm=%d) ", cand.Proc+1, cand.Gain, cand.MemSum)
			} else {
				fmt.Printf("P%d(×%s) ", cand.Proc+1, shortReason(cand.Reason))
			}
		}
		fmt.Printf("→ P%d @%d", mv.To+1, mv.NewStart)
		if mv.Gain > 0 {
			fmt.Printf(" (gain %d)", mv.Gain)
		}
		fmt.Println()
	}
	fmt.Println()

	fmt.Println("=== Figure 4: schedule after load balancing ===")
	must(trace.Gantt(os.Stdout, res.Schedule))
	fmt.Printf("total execution time: %d units (paper: 14)\n", res.MakespanAfter)
	fmt.Printf("required memory:      %s (paper: [P1: 10, P2: 6, P3: 8])\n",
		metrics.FormatMemVector(res.MemAfter))
	fmt.Printf("Gtotal = %d, Theorem 1 bound γ(M−1)! = %d\n", res.GainTotal(), 1*2)

	if errs := res.Schedule.Validate(); len(errs) > 0 {
		log.Fatalf("balanced schedule invalid: %v", errs)
	}
	fmt.Println("\nbalanced schedule validated: strict periodicity, precedence and non-overlap hold")
}

func blockName(ts *repro.TaskSet, res *repro.Result, id int) string {
	bl := res.Blocks[id]
	name := "["
	for i, m := range bl.Members {
		if i > 0 {
			name += "-"
		}
		name += fmt.Sprintf("%s%d", ts.Task(m.Inst.Task).Name, m.Inst.K+1)
	}
	return name + "]"
}

func shortReason(r string) string {
	switch r {
	case "LCM condition":
		return "LCM"
	case "no room at the pinned start":
		return "occupied"
	case "moved producers finish too late for the pinned start":
		return "deps"
	case "no conflict-free start within dependence bounds":
		return "deps"
	case "memory capacity":
		return "mem"
	}
	return r
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
