package model

import (
	"testing"
	"testing/quick"
)

// fig1System is the paper's figure 1 configuration: producer a at period
// T, consumer b at period n·T, b depends on a.
func fig1System(t *testing.T, n Time) (*TaskSet, TaskID, TaskID) {
	t.Helper()
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 3, 1, 1)
	b := ts.MustAddTask("b", 3*n, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	return ts, a, b
}

func TestInstanceDepsMultiRateFasterProducer(t *testing.T) {
	// n = 4: b#1 needs a#1..a#4 (figure 1).
	ts, a, b := fig1System(t, 4)
	deps := InstanceDeps(ts, b, 0)
	if len(deps) != 4 {
		t.Fatalf("b#1 has %d producer instances, want 4", len(deps))
	}
	for j, d := range deps {
		if d.Task != a || d.K != j {
			t.Errorf("dep %d = %v, want a#%d", j, d, j+1)
		}
	}
}

func TestInstanceDepsSamePeriod(t *testing.T) {
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 6, 1, 1)
	b := ts.MustAddTask("b", 6, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	for k := 0; k < ts.Instances(b); k++ {
		deps := InstanceDeps(ts, b, k)
		if len(deps) != 1 || deps[0].K != k {
			t.Errorf("b#%d deps = %v, want [a#%d]", k+1, deps, k+1)
		}
	}
}

func TestInstanceDepsSlowerProducer(t *testing.T) {
	// Producer at 12, consumer at 3: consumer instances 0..3 all read the
	// producer's single instance.
	ts := NewTaskSet()
	a := ts.MustAddTask("a", 12, 1, 1)
	b := ts.MustAddTask("b", 3, 1, 1)
	ts.MustAddDependence(a, b, 1)
	ts.MustFreeze()
	for k := 0; k < 4; k++ {
		deps := InstanceDeps(ts, b, k)
		if len(deps) != 1 || deps[0].Task != a || deps[0].K != 0 {
			t.Errorf("b#%d deps = %v, want [a#1]", k+1, deps)
		}
	}
}

func TestExpandInstancesCount(t *testing.T) {
	ts, _, _ := fig1System(t, 4)
	all := ExpandInstances(ts)
	if len(all) != ts.TotalInstances() {
		t.Fatalf("expanded %d, want %d", len(all), ts.TotalInstances())
	}
	seen := make(map[InstanceID]bool)
	for _, iid := range all {
		if seen[iid] {
			t.Errorf("duplicate instance %v", iid)
		}
		seen[iid] = true
	}
}

// Property: for a faster producer with ratio n, consumer instance k
// depends on exactly the n producer instances k·n..k·n+n−1, and every
// producer instance feeds exactly one consumer instance.
func TestInstanceDepsPartitionProperty(t *testing.T) {
	f := func(n0 uint8) bool {
		n := Time(n0%6) + 1
		ts := NewTaskSet()
		a := ts.MustAddTask("a", 2, 1, 1)
		b := ts.MustAddTask("b", 2*n, 1, 1)
		ts.MustAddDependence(a, b, 1)
		if err := ts.Freeze(); err != nil {
			return false
		}
		fed := make(map[int]int)
		for k := 0; k < ts.Instances(b); k++ {
			deps := InstanceDeps(ts, b, k)
			if len(deps) != int(n) {
				return false
			}
			for _, d := range deps {
				fed[d.K]++
			}
		}
		if len(fed) != ts.Instances(a) {
			return false
		}
		for _, c := range fed {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// FuzzDepLag checks EachDepLag against the brute-force maximum over the
// instance pairs EachInstanceDep links: for every producer, the largest
// end of a producer instance behind the start of its consumer instance,
// relative to the first instances, with arbitrary first starts. The
// consumer has a faster and a slower (or equal-period) producer, and an
// independent task stretches the hyper-period so every edge spans
// several consumer instances.
func FuzzDepLag(f *testing.F) {
	f.Add(uint8(2), uint8(3), uint8(2), uint8(1), int16(5), int16(-3), uint8(2))
	f.Add(uint8(1), uint8(1), uint8(4), uint8(3), int16(0), int16(7), uint8(0))
	f.Add(uint8(5), uint8(2), uint8(1), uint8(2), int16(-9), int16(1), uint8(4))
	f.Fuzz(func(t *testing.T, base, fast, slow, pad uint8, sSrc, sDst int16, wcet uint8) {
		b := Time(base%6) + 1
		tc := b * (Time(fast%5) + 1)   // consumer period
		tf := b                        // faster (or equal) producer
		tsl := tc * (Time(slow%4) + 1) // slower (or equal) producer
		set := NewTaskSet()
		e := Time(wcet%3) + 1
		pf := set.MustAddTask("fast", tf, min(e, tf), 1)
		ps := set.MustAddTask("slow", tsl, min(e, tsl), 1)
		dst := set.MustAddTask("dst", tc, 1, 1)
		set.MustAddTask("pad", tsl*(Time(pad%3)+1), 1, 1)
		set.MustAddDependence(pf, dst, 1)
		set.MustAddDependence(ps, dst, 1)
		set.MustFreeze()

		start := map[TaskID]Time{pf: Time(sSrc), ps: Time(sSrc) + 3, dst: Time(sDst)}
		want := map[TaskID]Time{}
		seen := map[TaskID]bool{}
		for k := 0; k < set.Instances(dst); k++ {
			EachInstanceDep(set, dst, k, func(src InstanceID) {
				p := set.Task(src.Task)
				end := start[src.Task] + Time(src.K)*p.Period + p.WCET
				if v := end - Time(k)*tc; !seen[src.Task] || v > want[src.Task] {
					want[src.Task], seen[src.Task] = v, true
				}
			})
		}
		got := map[TaskID]Time{}
		EachDepLag(set, dst, func(src TaskID, lag Time) {
			if _, dup := got[src]; dup {
				t.Fatalf("producer %d reported twice", src)
			}
			got[src] = start[src] + set.Task(src).WCET + lag
		})
		if len(got) != len(want) {
			t.Fatalf("EachDepLag reports %d producers, EachInstanceDep %d", len(got), len(want))
		}
		for src, w := range want {
			if got[src] != w {
				t.Fatalf("T_src=%d T_dst=%d: bound %d, brute force %d", set.Task(src).Period, tc, got[src], w)
			}
		}
	})
}
