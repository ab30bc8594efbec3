// Package sched defines the scheduling-policy interface the simulation
// engine drives, and the baseline policies the paper compares against:
// plain EDF (energy-oblivious full speed), the lazy scheduling algorithm
// (LSA) of Moser et al. [7,10], and the greedy-stretch straw man the paper
// dismantles in §4.3. The paper's own EA-DVFS policy lives in
// internal/core.
package sched

import (
	"math"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Context is the system state a policy observes at a decision point.
//
// Reuse contract: the engine owns ONE Context per run and overwrites its
// fields in place before every Decide call (the hot path allocates
// nothing per decision). A policy must therefore treat the pointer as
// valid only for the duration of Decide — read it, decide, return; never
// retain the *Context (or its Queue) past the call. Policies can (and
// should) be stateless: the paper's algorithms are pure functions of this
// state. Per-job state that must survive across decisions (e.g. the
// EA-DVFS s2 lock) lives on the Job itself.
type Context struct {
	Now       float64
	Queue     ReadyView
	Stored    float64 // EC(now)
	Capacity  float64 // C, possibly +Inf
	CPU       *cpu.Processor
	Predictor energy.Predictor

	// Reclaimed is the cumulative WCET budget (work units at f_max) that
	// completed jobs have left unspent so far in this run — the engine's
	// authoritative early-completion tally, and the raw material of
	// online slack reclamation (internal/workload). Zero when every job
	// runs to its declared worst case.
	Reclaimed float64

	// Probe, when non-nil, receives decision-audit records
	// (internal/obs). Policies emit through Audit, which nil-checks, so
	// the disabled path stays allocation-free.
	Probe obs.Probe
}

// ReadyView is the read-only view of the EDF-ordered ready queue a policy
// decides over. The optimized engine passes *task.ReadyQueue (a heap); the
// differential reference engine (internal/refimpl) substitutes a
// linear-scan list. Policies only ever inspect the head — mutating the
// queue is the engine's job.
type ReadyView interface {
	// Peek returns the earliest-deadline ready job, or nil when none.
	Peek() *task.Job
	// Len returns the number of ready jobs.
	Len() int
}

// Audit sends a decision-audit record to the attached probe, if any.
// Policies should guard the record construction itself with Auditing when
// filling it requires extra computation.
func (c *Context) Audit(rec obs.DecisionRecord) {
	if c.Probe != nil {
		c.Probe.OnDecision(rec)
	}
}

// Auditing reports whether a probe is attached — i.e. whether building an
// audit record is worth the work.
func (c *Context) Auditing() bool { return c.Probe != nil }

// AuditJob emits the standard job-decision audit record: the job's window,
// the energy estimate the policy used, its s1/s2 instants and what it
// chose. No-op without a probe; a plain method (not a closure) so the
// disabled path allocates nothing. Pass level -1 for idle decisions;
// j may be nil (empty queue).
func (c *Context) AuditJob(policy string, j *task.Job, available, s1, s2 float64, level int, until float64, reason obs.Reason) {
	if c.Probe == nil {
		return
	}
	rec := obs.DecisionRecord{
		Time: c.Now, Policy: policy, TaskID: -1, Seq: -1,
		Stored: c.Stored, S1: s1, S2: s2,
		Level: level, Until: until, Reason: reason,
	}
	if j != nil {
		rec.TaskID, rec.Seq = j.TaskID, j.Seq
		rec.Deadline = j.Abs
		rec.Slack = j.Abs - c.Now
		rec.Predicted = available - c.Stored
		rec.Available = available
	}
	if level >= 0 {
		rec.Speed = c.CPU.Speed(level)
	}
	c.Probe.OnDecision(rec)
}

// AvailableEnergy returns the paper's EC(am) + ÊS(am, am+dm) estimate for a
// window ending at `until`: stored energy plus the predicted harvest.
func (c *Context) AvailableEnergy(until float64) float64 {
	if until < c.Now {
		until = c.Now
	}
	return c.Stored + c.Predictor.PredictEnergy(c.Now, until)
}

// Decision is what a policy asks the engine to do until the next event.
type Decision struct {
	// Job to execute; nil means idle (harvest only).
	Job *task.Job
	// Level is the processor operating point when Job != nil.
	Level int
	// Until is the latest time at which the engine must come back for a
	// fresh decision (e.g. the s1 or s2 instants). The engine re-decides
	// earlier whenever any event fires. +Inf means "until the next
	// event".
	Until float64
}

// Idle returns an idle decision with the given re-evaluation deadline.
func Idle(until float64) Decision {
	return Decision{Job: nil, Until: until}
}

// Run returns an execute decision.
func Run(j *task.Job, level int, until float64) Decision {
	return Decision{Job: j, Level: level, Until: until}
}

// Policy decides what the processor does. Decide is called at every
// scheduling event (arrival, completion, deadline, unit boundary, storage
// crossing, Until expiry). The engine recycles job structs: a policy may
// read a job it chose until its next Decide returns, and no longer.
type Policy interface {
	Name() string
	Decide(ctx *Context) Decision
}

// EDF is the energy-oblivious baseline: run the earliest-deadline ready
// job flat-out whenever one exists. With infinite storage EA-DVFS reduces
// to exactly this policy (§4.3), which the integration tests assert.
type EDF struct{}

// Name implements Policy.
func (EDF) Name() string { return "edf" }

// Decide implements Policy.
func (EDF) Decide(ctx *Context) Decision {
	j := ctx.Queue.Peek()
	if j == nil {
		return Idle(math.Inf(1))
	}
	return Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
}

// LSA is the lazy scheduling algorithm of Moser et al. as the paper
// describes it (§1): full power only; start the earliest-deadline task at
// the last instant from which the system "is able to keep on running at
// the maximum power until the deadline of the task", i.e. at
//
//	s2 = max(now, D − (EC + ÊS(now, D)) / Pmax).
//
// Before s2 the processor idles and the storage recharges. s2 is
// re-evaluated at every event, so the start time tracks the true energy
// state exactly as the original online algorithm does.
type LSA struct{}

// Name implements Policy.
func (LSA) Name() string { return "lsa" }

// Decide implements Policy.
func (LSA) Decide(ctx *Context) Decision {
	j := ctx.Queue.Peek()
	if j == nil {
		ctx.AuditJob("lsa", nil, 0, 0, 0, -1, math.Inf(1), obs.ReasonIdleNoJob)
		return Idle(math.Inf(1))
	}
	available := ctx.AvailableEnergy(j.Abs)
	srMax := available / ctx.CPU.MaxPower()
	s2 := math.Max(ctx.Now, j.Abs-srMax)

	if !Reached(ctx.Now, s2) {
		ctx.AuditJob("lsa", j, available, s2, s2, -1, s2, obs.ReasonIdleRecharge)
		return Idle(s2)
	}
	if ctx.Auditing() {
		// Distinguish the paper's two ways of reaching a full-speed
		// start: energy-rich (flat-out from now to the deadline is
		// affordable, the s2 = now degenerate case) versus the lazy
		// start at a genuine s2.
		reason := obs.ReasonFullSpeedEnergyPoor
		if srMax >= j.Abs-ctx.Now-TimeEps {
			reason = obs.ReasonFullSpeedEnergyRich
		}
		ctx.AuditJob("lsa", j, available, s2, s2, ctx.CPU.MaxLevel(), math.Inf(1), reason)
	}
	return Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
}

// StaticDVFS is the classic energy-oblivious DVFS baseline (Pillai & Shin
// style static voltage scaling): every job runs at the lowest operating
// point whose normalized speed is at least the task set's utilization U —
// timing-safe under EDF for implicit deadlines, and cheaper than full
// speed, but blind to the energy state. It isolates how much of EA-DVFS's
// win comes from plain DVFS versus from *energy awareness*.
type StaticDVFS struct {
	// Utilization is the task-set utilization the level is derived from.
	Utilization float64
}

// Name implements Policy.
func (StaticDVFS) Name() string { return "static-dvfs" }

// Decide implements Policy.
func (p StaticDVFS) Decide(ctx *Context) Decision {
	j := ctx.Queue.Peek()
	if j == nil {
		return Idle(math.Inf(1))
	}
	level := ctx.CPU.MaxLevel()
	for n := 0; n < ctx.CPU.Levels(); n++ {
		if ctx.CPU.Speed(n) >= p.Utilization {
			level = n
			break
		}
	}
	// Per-job feasibility still binds: never pick a level that cannot
	// meet this job's deadline.
	if minL, ok := ctx.CPU.MinLevelFor(j.Remaining(), j.Abs-ctx.Now); ok && minL > level {
		level = minL
	}
	return Run(j, level, math.Inf(1))
}

// GreedyStretch is EA-DVFS without the §4.3 guard: it picks the minimum
// feasible frequency and runs the job there to completion, never switching
// back to full speed at s2. The paper's Figure 3 shows this steals so much
// time from future tasks that deadlines are missed even with ample energy;
// the ablation bench quantifies that.
type GreedyStretch struct{}

// Name implements Policy.
func (GreedyStretch) Name() string { return "greedy-stretch" }

// Decide implements Policy.
func (GreedyStretch) Decide(ctx *Context) Decision {
	j := ctx.Queue.Peek()
	if j == nil {
		return Idle(math.Inf(1))
	}
	level, feasible := ctx.CPU.MinLevelFor(j.Remaining(), j.Abs-ctx.Now)
	if !feasible {
		return Run(j, ctx.CPU.MaxLevel(), math.Inf(1))
	}
	available := ctx.AvailableEnergy(j.Abs)
	srN := available / ctx.CPU.Power(level)
	s1 := math.Max(ctx.Now, j.Abs-srN)
	if !Reached(ctx.Now, s1) {
		return Idle(s1)
	}
	return Run(j, level, math.Inf(1))
}
