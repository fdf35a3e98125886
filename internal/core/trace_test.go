package core

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/gen"
	"repro/internal/sched"
)

// TestTraceSummary cross-checks the flattened trace counters against
// the raw Result on a real balancing run, with and without candidate
// recording. The candidate counts must not depend on the recording.
func TestTraceSummary(t *testing.T) {
	ts, err := gen.Generate(gen.Config{Seed: 7, Tasks: 20, Utilization: 2})
	if err != nil {
		t.Fatal(err)
	}
	ar := arch.MustNew(3, 1)
	s, err := sched.NewScheduler(ts, ar).Run()
	if err != nil {
		t.Fatal(err)
	}
	is := sched.FromSchedule(s)

	var unrecorded TraceSummary
	for _, record := range []bool{false, true} {
		res, err := (&Balancer{RecordCandidates: record}).Run(is)
		if err != nil {
			t.Fatal(err)
		}
		tr := res.Trace()
		if tr.Moves != len(res.Moves) {
			t.Fatalf("record=%v: Moves %d, want %d", record, tr.Moves, len(res.Moves))
		}
		if tr.Forced != res.Forced || tr.RelaxedLCM != res.RelaxedLCM {
			t.Fatalf("record=%v: forced/relaxed %d/%d, result %d/%d",
				record, tr.Forced, tr.RelaxedLCM, res.Forced, res.RelaxedLCM)
		}
		if tr.GainSum != res.GainTotal() {
			t.Fatalf("record=%v: GainSum %d, GainTotal %d", record, tr.GainSum, res.GainTotal())
		}
		if tr.Conservative != res.ConservativePropagation {
			t.Fatalf("record=%v: conservative flag mismatch", record)
		}

		relocated, gained, feasible := 0, 0, 0
		var maxGain = tr.GainMax
		for _, mv := range res.Moves {
			if mv.To != mv.From {
				relocated++
			}
			if mv.Gain > 0 {
				gained++
			}
			if mv.Gain > maxGain {
				t.Fatalf("record=%v: move gain %d exceeds GainMax %d", record, mv.Gain, maxGain)
			}
			recorded := 0
			for _, c := range mv.Candidates {
				if c.Feasible {
					recorded++
				}
			}
			if record && (len(mv.Candidates) != ar.Procs || recorded != mv.FeasibleProcs) {
				t.Fatalf("block %d: %d candidate records, %d feasible; want %d records, FeasibleProcs %d",
					mv.BlockID, len(mv.Candidates), recorded, ar.Procs, mv.FeasibleProcs)
			}
			feasible += mv.FeasibleProcs
		}
		if tr.Relocated != relocated || tr.Gained != gained {
			t.Fatalf("record=%v: relocated/gained %d/%d, want %d/%d",
				record, tr.Relocated, tr.Gained, relocated, gained)
		}
		// Every move evaluates every processor once in the policy pass.
		if tr.CandEvals != tr.Moves*ar.Procs || tr.CandFeasible != feasible {
			t.Fatalf("record=%v: candidates %d/%d, want %d/%d",
				record, tr.CandFeasible, tr.CandEvals, feasible, tr.Moves*ar.Procs)
		}
		if tr.CandFeasible == 0 {
			t.Fatalf("record=%v: no feasible candidate on a schedulable instance", record)
		}
		if !record {
			unrecorded = tr
		} else if tr != unrecorded {
			t.Fatalf("trace with recording %+v differs from the one without %+v", tr, unrecorded)
		}
	}
}
