// Package task models the paper's real-time workload (§3.3, §5.1):
// independent preemptive periodic tasks, their released job instances, an
// EDF-ordered ready queue, and the random task-set generator used in the
// evaluation.
//
// Worst-case execution times (WCET) are expressed in "work units": the
// execution time at the processor's maximum frequency. Running at a slower
// operating point with normalized speed S stretches a job's remaining work
// w to w/S wall-clock time.
package task

import (
	"fmt"
	"math"
)

// Task is a periodic task descriptor. Each period it releases one job with
// relative deadline Deadline and worst-case execution time WCET (at f_max).
// The paper sets Deadline = Period ("the relative deadline of the periodic
// task is set to its period", §5.1) but the model does not require it.
type Task struct {
	ID       int
	Period   float64
	Deadline float64 // relative deadline
	WCET     float64 // execution time at f_max
	Offset   float64 // release time of the first job

	// Exec, when non-nil, makes each released job draw its actual
	// execution time from the distribution (bounded by WCET); nil keeps
	// the paper's WCET-exact model. Omitted from JSON when nil, so
	// pre-existing wire documents keep their digests.
	Exec *ExecSpec `json:",omitempty"`
}

// Validate reports whether the descriptor is self-consistent.
func (t Task) Validate() error {
	switch {
	case t.Period <= 0 || math.IsNaN(t.Period) || math.IsInf(t.Period, 0):
		return fmt.Errorf("task %d: invalid period %v", t.ID, t.Period)
	case t.Deadline <= 0 || math.IsNaN(t.Deadline) || math.IsInf(t.Deadline, 0):
		return fmt.Errorf("task %d: invalid deadline %v", t.ID, t.Deadline)
	case t.WCET < 0 || math.IsNaN(t.WCET) || math.IsInf(t.WCET, 0):
		return fmt.Errorf("task %d: invalid wcet %v", t.ID, t.WCET)
	case t.WCET > t.Deadline:
		return fmt.Errorf("task %d: wcet %v exceeds deadline %v (never schedulable)", t.ID, t.WCET, t.Deadline)
	case t.Offset < 0 || math.IsNaN(t.Offset):
		return fmt.Errorf("task %d: invalid offset %v", t.ID, t.Offset)
	}
	if t.Exec != nil {
		if err := t.Exec.Validate(); err != nil {
			return fmt.Errorf("task %d: %w", t.ID, err)
		}
	}
	return nil
}

// Utilization returns WCET/Period, the task's processor share at f_max.
func (t Task) Utilization() float64 { return t.WCET / t.Period }

// Job is one released instance of a task — the paper's τm = (am, dm, wm)
// triple plus bookkeeping for preemptive execution.
//
// A job carries two work counters. The *budget* is the declared WCET the
// scheduler plans with (the paper's wm — eqs. 5–8 all budget worst case).
// The *actual* work is what execution really takes; the paper's model has
// actual = WCET, but the slack-reclamation extension (sim.Config.BCWCRatio)
// draws actual < WCET, and the job then completes early — the scheduler
// only learns of the windfall at the completion event, as a real system
// would.
type Job struct {
	TaskID  int
	Seq     int     // instance number within the task, from 0
	Arrival float64 // am (absolute)
	Abs     float64 // absolute deadline am + dm
	WCET    float64 // wm, work at f_max

	// Exec is the owning task's execution-time distribution (nil for
	// WCET-exact jobs). The engine consults it once, at the release
	// event, to draw the job's actual work.
	Exec *ExecSpec `json:",omitempty"`

	remaining float64 // budget (WCET-based) work left, at f_max
	actual    float64 // true work left, at f_max; exceeds remaining only under an injected overrun
	finished  bool
	missed    bool

	heapIndex int // position in the ReadyQueue heap; -1 when not queued

	// Policy scratch: the locked s2 instant of EA-DVFS (internal/core).
	// Storing it on the job instead of in a per-policy map keeps the
	// decision path allocation-free and lets the state die with the job.
	// A job participates in at most one run (Progress mutates it), so one
	// slot cannot be contended by two policies; Reset clears it before a
	// recycled struct is released again.
	s2lock   float64
	s2locked bool
}

// LockS2 records the policy's locked s2 instant for this job.
func (j *Job) LockS2(s2 float64) { j.s2lock, j.s2locked = s2, true }

// S2Lock returns the locked s2 instant, if any.
func (j *Job) S2Lock() (float64, bool) { return j.s2lock, j.s2locked }

// ClearS2Lock forgets a locked s2 instant.
func (j *Job) ClearS2Lock() { j.s2lock, j.s2locked = 0, false }

// NewJob constructs a job whose actual work equals its WCET (the paper's
// model).
func NewJob(taskID, seq int, arrival, relDeadline, wcet float64) *Job {
	j := new(Job)
	j.Reset(taskID, seq, arrival, relDeadline, wcet)
	return j
}

// Reset reinitializes j in place as a just-released job: NewJob without
// the allocation, for engines that recycle job structs. Every other
// field (Exec, execution progress, flags, queue position, policy
// scratch) is cleared.
func (j *Job) Reset(taskID, seq int, arrival, relDeadline, wcet float64) {
	if wcet < 0 || relDeadline <= 0 || arrival < 0 {
		panic(fmt.Sprintf("task: invalid job parameters (a=%v d=%v w=%v)", arrival, relDeadline, wcet))
	}
	*j = Job{} // clear in place; a composite literal would be built and copied
	j.TaskID, j.Seq = taskID, seq
	j.Arrival, j.Abs, j.WCET = arrival, arrival+relDeadline, wcet
	j.remaining, j.actual = wcet, wcet
	j.heapIndex = -1
}

// SetActualWork declares that the job will really take work <= WCET. It
// must be called before any Progress; schedulers keep budgeting with the
// WCET-based Remaining.
func (j *Job) SetActualWork(work float64) {
	if work < 0 || work > j.WCET+1e-12 {
		panic(fmt.Sprintf("task: actual work %v outside [0, wcet %v]", work, j.WCET))
	}
	if j.remaining != j.WCET {
		panic("task: SetActualWork after execution started")
	}
	j.actual = work
	if work == 0 {
		j.finished = true
	}
}

// SetOverrunWork declares that the job will really take work units, which
// MAY exceed the declared WCET — the fault-injection scenario in which
// the WCET was wrong (internal/fault). Schedulers keep budgeting the
// declared WCET; the engine executes the true work, so an overrunning job
// occupies the processor past its budget and deadlines suffer
// accordingly. Must be called before execution starts.
func (j *Job) SetOverrunWork(work float64) {
	if work < 0 || math.IsNaN(work) || math.IsInf(work, 0) {
		panic(fmt.Sprintf("task: invalid overrun work %v", work))
	}
	if j.remaining != j.WCET {
		panic("task: SetOverrunWork after execution started")
	}
	j.actual = work
	if work == 0 {
		j.finished = true
	}
}

// Overrun returns how much outstanding actual work exceeds the
// outstanding budgeted work (0 for a well-declared job). Before execution
// starts this is the amount by which the job will overrun its WCET.
func (j *Job) Overrun() float64 { return math.Max(0, j.actual-j.remaining) }

// Remaining returns the outstanding *budgeted* work at f_max — what the
// scheduler plans with.
func (j *Job) Remaining() float64 { return j.remaining }

// ActualRemaining returns the outstanding true work at f_max — what the
// engine executes.
func (j *Job) ActualRemaining() float64 { return j.actual }

// Progress consumes work units of execution. Over-consuming beyond a tiny
// float tolerance panics — it means the engine's completion computation is
// wrong.
func (j *Job) Progress(work float64) {
	if work < 0 {
		panic("task: negative progress")
	}
	j.remaining -= work
	j.actual -= work
	if j.actual < -1e-6*math.Max(1, j.WCET) {
		panic(fmt.Sprintf("task: job %d/%d overran its work by %v", j.TaskID, j.Seq, -j.actual))
	}
	if j.actual < 0 {
		j.actual = 0
	}
	if j.remaining < 0 {
		j.remaining = 0
	}
	if j.actual == 0 {
		j.finished = true
	}
}

// Done reports whether the job completed all its work.
func (j *Job) Done() bool { return j.finished }

// MarkMissed records a deadline miss.
func (j *Job) MarkMissed() { j.missed = true }

// Missed reports whether the job missed its deadline.
func (j *Job) Missed() bool { return j.missed }

// Slack returns the laxity at time now assuming execution at f_max:
// (deadline − now) − remaining. Negative slack means the deadline is
// unreachable even flat-out.
func (j *Job) Slack(now float64) float64 {
	return (j.Abs - now) - j.remaining
}

// EarlierDeadline reports whether a has strictly higher EDF priority than
// b: earlier absolute deadline, ties broken by earlier arrival, then lower
// task ID, then lower sequence — a total order, so scheduling is
// deterministic.
func EarlierDeadline(a, b *Job) bool {
	if a.Abs != b.Abs {
		return a.Abs < b.Abs
	}
	if a.Arrival != b.Arrival {
		return a.Arrival < b.Arrival
	}
	if a.TaskID != b.TaskID {
		return a.TaskID < b.TaskID
	}
	return a.Seq < b.Seq
}
