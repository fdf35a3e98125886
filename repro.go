// Package repro is the public facade of the reproduction of Kermia &
// Sorel, "Load Balancing and Efficient Memory Usage for Homogeneous
// Distributed Real-Time Embedded Systems" (SRMPDS/ICPP 2008).
//
// The typical pipeline is:
//
//	ts := repro.NewTaskSet()            // tasks, periods, WCETs, memory
//	a  := repro.NewArchitecture(3, 1)   // 3 processors, comm time C=1
//	s, _ := repro.Schedule(ts, a)       // initial distributed schedule
//	res, _ := repro.Balance(s)          // the paper's heuristic
//	rep, _ := repro.Simulate(res.Schedule)
//
// The facade re-exports the types of the internal packages so downstream
// code only imports "repro"; advanced users can reach the internals
// directly (same module).
package repro

import (
	"repro/internal/arch"
	"repro/internal/blocks"
	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/model"
	"repro/internal/sched"
	"repro/internal/sim"
)

// Re-exported model types.
type (
	// Time is a point or duration on the discrete time axis.
	Time = model.Time
	// Mem is an amount of memory in abstract units.
	Mem = model.Mem
	// TaskID identifies a task inside a TaskSet.
	TaskID = model.TaskID
	// Task is one strictly periodic, non-preemptive task.
	Task = model.Task
	// TaskSet is a collection of tasks and dependences.
	TaskSet = model.TaskSet
	// InstanceID identifies one repetition of a task in the hyper-period.
	InstanceID = model.InstanceID
	// Dependence is a data-flow edge between two tasks.
	Dependence = model.Dependence

	// Architecture is the homogeneous multiprocessor target.
	Architecture = arch.Architecture
	// ProcID identifies a processor.
	ProcID = arch.ProcID

	// InitialSchedule is a task-level schedule (every instance of a task
	// on the same processor), the balancer's input form.
	InitialSchedule = sched.Schedule
	// InstSchedule places every task instance individually, the
	// balancer's output form.
	InstSchedule = sched.InstSchedule

	// Block is a group of dependent co-scheduled instances that the
	// heuristic moves as a unit.
	Block = blocks.Block
	// Balancer runs the load-balancing and memory-usage heuristic.
	Balancer = core.Balancer
	// Result is the outcome of a balancing run.
	Result = core.Result
	// Move records one block relocation.
	Move = core.Move
	// Policy selects the cost-function reading.
	Policy = core.Policy

	// SimReport is the outcome of a discrete-event execution.
	SimReport = sim.Report
	// GenConfig parameterises the random workload generator.
	GenConfig = gen.Config
)

// Policies.
const (
	// PolicyLexicographic reproduces the paper's worked example (default).
	PolicyLexicographic = core.PolicyLexicographic
	// PolicyRatio is equation (5) taken literally.
	PolicyRatio = core.PolicyRatio
	// PolicyMemoryOnly is the Theorem 2 memory-only regime.
	PolicyMemoryOnly = core.PolicyMemoryOnly
)

// NewTaskSet returns an empty task set; add tasks and dependences, then
// Freeze it.
func NewTaskSet() *TaskSet { return model.NewTaskSet() }

// NewArchitecture returns a homogeneous architecture with procs
// processors on one shared medium and communication time c.
func NewArchitecture(procs int, c Time) (*Architecture, error) { return arch.New(procs, c) }

// MustNewArchitecture is NewArchitecture that panics on error.
func MustNewArchitecture(procs int, c Time) *Architecture { return arch.MustNew(procs, c) }

// Schedule runs the rapid initial scheduling heuristic (the substrate the
// paper's reference [4] provides) and returns a complete, validated
// task-level schedule.
func Schedule(ts *TaskSet, a *Architecture) (*InitialSchedule, error) {
	return sched.NewScheduler(ts, a).Run()
}

// NewManualSchedule returns an empty schedule for hand placement (used to
// pin published examples).
func NewManualSchedule(ts *TaskSet, a *Architecture) (*InitialSchedule, error) {
	return sched.NewSchedule(ts, a)
}

// Expand converts a task-level schedule to the instance-level form.
func Expand(s *InitialSchedule) *InstSchedule { return sched.FromSchedule(s) }

// Balance runs the paper's heuristic with the default policy on a
// task-level schedule.
func Balance(s *InitialSchedule) (*Result, error) {
	b := &Balancer{Policy: PolicyLexicographic}
	return b.Run(sched.FromSchedule(s))
}

// BalanceWith runs the heuristic with an explicit configuration.
func BalanceWith(s *InstSchedule, b *Balancer) (*Result, error) { return b.Run(s) }

// Simulate replays an instance-level schedule over one hyper-period and
// reports busy/idle time and resident memory, failing when the schedule
// is not executable.
func Simulate(is *InstSchedule) (*SimReport, error) {
	return (&sim.Runner{}).Run(is)
}

// BufferPeaks returns each processor's receive-buffer high-watermark:
// the data of inter-processor transfers waiting for their consumers
// (figure 1).
func BufferPeaks(is *InstSchedule) []Mem { return sim.BufferPeaks(is) }

// Generate synthesises a random task system with the paper's structural
// assumptions (few harmonic periods, harmonic dependences).
func Generate(cfg GenConfig) (*TaskSet, error) { return gen.Generate(cfg) }

// BuildBlocks exposes the paper's block construction (§3.1).
func BuildBlocks(is *InstSchedule) []*Block { return blocks.Build(is) }

// CommTask is one materialised send or receive task (paper §3.1).
type CommTask = sched.CommTask

// MaterializeCommTasks expands every inter-processor transfer of a
// schedule into its explicit send/receive task pair, each costing
// overhead processor-time units (0 = pure bookkeeping). It fails when
// the schedule has no room for the communication handling.
func MaterializeCommTasks(s *InitialSchedule, overhead Time) ([]CommTask, error) {
	return sched.MaterializeCommTasks(s, overhead)
}

// InstanceDeps enumerates the producer instances that must complete
// before instance (dst, k) may start, under the paper's multi-rate
// semantics (figure 1).
func InstanceDeps(ts *TaskSet, dst TaskID, k int) []InstanceID {
	return model.InstanceDeps(ts, dst, k)
}

// Compatible reports whether two strictly periodic non-preemptive tasks
// can share a processor without ever overlapping (the closed-form test
// of the paper's reference [1]).
func Compatible(si, ti, ei, sj, tj, ej Time) bool {
	return model.Compatible(si, ti, ei, sj, tj, ej)
}
