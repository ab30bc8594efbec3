package refimpl

import (
	"fmt"
	"math"
	"sort"

	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Event priorities at equal timestamps — the same semantic order as the
// optimized engine's (boundary < segment < arrival < deadline < decide).
const (
	prioBoundary = iota
	prioSegment
	prioArrival
	prioDeadline
	prioDecide
)

// workEps and stallEps mirror the optimized engine's tolerances; the
// values are part of the simulation semantics, not of the optimization.
const (
	workEps  = 1e-9
	stallEps = 1e-9
)

// deadlineEvent is one pending deadline check in the linear-scan event
// list. seq preserves insertion order at equal times, which is the order
// the optimized kernel's global sequence number imposes (deadlines are
// the only events it holds).
type deadlineEvent struct {
	time float64
	seq  uint64
	job  *task.Job
}

// eventList is the naive O(n)-per-operation event queue: append to
// schedule, scan for the minimum (time, seq) to pop.
type eventList struct {
	events []deadlineEvent
	seq    uint64
}

func (l *eventList) push(t float64, j *task.Job) {
	l.events = append(l.events, deadlineEvent{time: t, seq: l.seq, job: j})
	l.seq++
}

func (l *eventList) peek() (float64, bool) {
	if len(l.events) == 0 {
		return math.Inf(1), false
	}
	best := 0
	for i := 1; i < len(l.events); i++ {
		e, b := l.events[i], l.events[best]
		if e.time < b.time || (e.time == b.time && e.seq < b.seq) {
			best = i
		}
	}
	return l.events[best].time, true
}

func (l *eventList) pop() deadlineEvent {
	best := 0
	for i := 1; i < len(l.events); i++ {
		e, b := l.events[i], l.events[best]
		if e.time < b.time || (e.time == b.time && e.seq < b.seq) {
			best = i
		}
	}
	ev := l.events[best]
	l.events = append(l.events[:best], l.events[best+1:]...)
	return ev
}

func (l *eventList) len() int { return len(l.events) }

// readyList is the naive EDF ready queue: an unordered slice scanned for
// the EarlierDeadline minimum on every Peek. It implements
// sched.ReadyView, so the reference policies see it through the same
// interface the optimized heap satisfies.
type readyList struct {
	jobs []*task.Job
}

// Len implements sched.ReadyView.
func (q *readyList) Len() int { return len(q.jobs) }

// Peek implements sched.ReadyView: linear scan for the earliest-deadline
// job. EarlierDeadline is a strict total order, so the scan direction
// cannot change the answer.
func (q *readyList) Peek() *task.Job {
	var best *task.Job
	for _, j := range q.jobs {
		if best == nil || task.EarlierDeadline(j, best) {
			best = j
		}
	}
	return best
}

func (q *readyList) push(j *task.Job) { q.jobs = append(q.jobs, j) }

func (q *readyList) remove(j *task.Job) {
	for i, x := range q.jobs {
		if x == j {
			q.jobs = append(q.jobs[:i], q.jobs[i+1:]...)
			return
		}
	}
}

// refTaskStats accumulates one task's counters during a reference run.
// Response times go through the same Welford recurrence the optimized
// taskTable uses, in the same (completion) order, so the derived mean is
// bit-identical.
type refTaskStats struct {
	released, finished, missed int
	respMax                    float64
	resp                       metrics.Welford
}

// engine is the reference per-run state: the same virtual-stream layout
// as the optimized engine (boundary chain, arrival cursor, one pending
// segment end, one pending decision) with the kernel heap replaced by the
// linear-scan eventList and the ready heap by readyList. Keeping the
// stream structure identical is what makes the dispatch order — and hence
// every downstream float accumulation — reproducible bit for bit.
type engine struct {
	cfg       *sim.Config
	deadlines eventList
	ready     readyList

	lastT float64

	mode    sim.Mode
	running *task.Job
	level   int

	segStart  float64
	lastRunLv int

	release       []*task.Job
	nextArrival   int
	nextBoundary  float64
	segTime       float64
	decideAt      float64
	decidePending bool

	// DPM state, mirroring the optimized engine's idle manager.
	sleeping  bool
	sleepIdx  int
	sleepWake float64
	waking    bool
	wakeDone  float64

	simNow     float64
	dispatched uint64

	initialLevel float64
	tasks        map[int]*refTaskStats
	execRNG      *rng.RNG
	faults       *fault.Set
	res          *sim.Result
}

// Run executes the reference simulation of cfg and returns its result.
// It accepts the same *sim.Config as the optimized sim.Run; pair it with
// the reference policies and predictors of this package for a fully
// independent second opinion. Config.CheckInvariants is not supported
// here (the reference loop panics on internal inconsistency instead of
// collecting violations) and is ignored.
func Run(cfg *sim.Config) (*sim.Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	var faults *fault.Set
	if cfg.Faults != nil {
		var err error
		if faults, err = fault.New(*cfg.Faults); err != nil {
			return nil, err
		}
		if faults != nil {
			runCfg := *cfg
			runCfg.Source = faults.WrapSource(cfg.Source)
			runCfg.Store = faults.WrapStore(cfg.Store)
			runCfg.Predictor = faults.WrapPredictor(cfg.Predictor)
			cfg = &runCfg
		}
	}

	e := &engine{
		cfg:       cfg,
		lastRunLv: -1,
		tasks:     make(map[int]*refTaskStats),
		faults:    faults,
		res: &sim.Result{
			Policy:    cfg.Policy.Name(),
			LevelTime: make([]float64, cfg.CPU.Levels()),
		},
	}
	e.initialLevel = cfg.Store.Level()
	if cfg.Stochastic() {
		seed := cfg.ExecSeed
		if seed == 0 {
			seed = 1
		}
		e.execRNG = rng.New(seed)
	}

	if cfg.RecordEnergy {
		n := int(math.Floor(cfg.Horizon)) + 1
		e.res.EnergySeries = metrics.NewSeries(0, 1, n)
		e.res.EnergySeries.Values[0] = cfg.Store.Level()
	}

	release := task.ReleaseJobs(cfg.Tasks, cfg.Horizon)
	for _, j := range cfg.Jobs {
		if j.Arrival < cfg.Horizon {
			release = append(release, j)
		}
	}
	sort.SliceStable(release, func(a, b int) bool { return release[a].Arrival < release[b].Arrival })
	e.release = release

	e.nextBoundary = math.Inf(1)
	if cfg.Horizon >= 1 {
		e.nextBoundary = 1
	}
	e.segTime = math.Inf(1)

	e.requestDecide(0)
	if err := e.dispatch(); err != nil {
		return nil, err
	}
	e.syncTo(cfg.Horizon)
	e.closeSegment(cfg.Horizon)

	e.faults.FinishAt(cfg.Horizon)
	e.res.Degradation = e.faults.Counters()
	e.res.PerTask = e.taskTable()
	e.res.Meters = cfg.Store.Meters()
	e.res.FinalLevel = cfg.Store.Level()
	e.res.Events = e.dispatched
	e.res.ConservationErr = cfg.Store.ConservationError(e.initialLevel)
	if err := e.res.Miss.Check(); err != nil {
		return nil, err
	}
	return e.res, nil
}

func (e *engine) dispatch() error {
	for {
		t, prio, ok := e.peekNext()
		if !ok || t > e.cfg.Horizon {
			return nil
		}
		if e.cfg.MaxEvents > 0 && e.dispatched >= e.cfg.MaxEvents {
			return &sim.EventBudgetError{
				Events:  e.dispatched,
				Time:    e.simNow,
				Horizon: e.cfg.Horizon,
				Pending: e.pendingEvents(),
			}
		}
		e.dispatched++
		e.simNow = t
		switch prio {
		case prioBoundary:
			e.nextBoundary = t + 1
			if e.nextBoundary > e.cfg.Horizon {
				e.nextBoundary = math.Inf(1)
			}
			e.onBoundary(t)
		case prioSegment:
			e.segTime = math.Inf(1)
			e.onSegmentEnd(t)
		case prioArrival:
			j := e.release[e.nextArrival]
			e.nextArrival++
			e.onArrival(t, j)
		case prioDeadline:
			ev := e.deadlines.pop()
			e.onDeadline(ev.time, ev.job)
		case prioDecide:
			e.onDecide(t)
		}
	}
}

func (e *engine) peekNext() (float64, int, bool) {
	best, ok := e.deadlines.peek()
	bestPrio := prioDeadline
	if !ok {
		best, bestPrio = math.Inf(1), prioDecide+1
	}
	better := func(t float64, prio int) bool {
		return t < best || (t == best && prio < bestPrio)
	}
	if better(e.nextBoundary, prioBoundary) {
		best, bestPrio = e.nextBoundary, prioBoundary
	}
	if better(e.segTime, prioSegment) {
		best, bestPrio = e.segTime, prioSegment
	}
	if e.nextArrival < len(e.release) {
		if t := e.release[e.nextArrival].Arrival; better(t, prioArrival) {
			best, bestPrio = t, prioArrival
		}
	}
	if e.decidePending && better(e.decideAt, prioDecide) {
		best, bestPrio = e.decideAt, prioDecide
	}
	return best, bestPrio, !math.IsInf(best, 1)
}

func (e *engine) pendingEvents() int {
	n := e.deadlines.len()
	if !math.IsInf(e.nextBoundary, 1) {
		n++
	}
	if !math.IsInf(e.segTime, 1) {
		n++
	}
	if e.decidePending {
		n++
	}
	return n
}

func (e *engine) cpuPower() float64 {
	switch e.mode {
	case sim.ModeRun:
		return e.cfg.CPU.Power(e.level)
	case sim.ModeIdle:
		return e.cfg.CPU.IdlePower()
	case sim.ModeSleep:
		return e.cfg.CPU.SleepState(e.level).Power
	default:
		return 0
	}
}

func (e *engine) syncTo(now float64) {
	if now < e.lastT-1e-9 {
		panic(fmt.Sprintf("refimpl: syncTo backwards from %v to %v", e.lastT, now))
	}
	pc := e.cpuPower()
	for e.lastT < now {
		end := math.Min(math.Floor(e.lastT)+1, now)
		dt := end - e.lastT
		ps := e.cfg.Source.PowerAt(e.lastT)
		delivered, _ := e.cfg.Store.Flow(ps, pc, dt)
		switch e.mode {
		case sim.ModeRun:
			e.res.BusyTime += dt
			e.res.LevelTime[e.level] += dt
			e.res.CPUEnergy += delivered
			e.running.Progress(e.cfg.CPU.Speed(e.level) * dt)
		case sim.ModeIdle:
			e.res.IdleTime += dt
			e.res.CPUEnergy += delivered
		case sim.ModeSleep:
			e.res.SleepTime += dt
			e.res.CPUEnergy += delivered
		case sim.ModeStall:
			e.res.StallTime += dt
		}
		e.lastT = end
	}
	e.lastT = now
}

func (e *engine) setActivity(now float64, mode sim.Mode, j *task.Job, level int) {
	if mode == e.mode && j == e.running &&
		(mode != sim.ModeRun && mode != sim.ModeSleep || level == e.level) {
		return
	}
	e.closeSegment(now)
	if mode == sim.ModeRun && e.cfg.Probe != nil {
		e.cfg.Probe.OnEvent(obs.Event{
			Time: now, Kind: obs.KindDispatch,
			TaskID: j.TaskID, Seq: j.Seq, Level: level,
		})
	}
	if mode == sim.ModeRun {
		if e.lastRunLv >= 0 && e.lastRunLv != level {
			e.res.Switches++
			_, se := e.cfg.CPU.SwitchOverhead()
			if se > 0 {
				e.cfg.Store.Draw(se)
			}
		}
		e.lastRunLv = level
	}
	e.mode = mode
	e.running = j
	e.level = level
	e.segStart = now
}

func (e *engine) closeSegment(now float64) {
	if now > e.segStart {
		if e.cfg.Tracer != nil {
			e.cfg.Tracer.OnSegment(e.segStart, now, e.mode, e.running, e.level)
		}
		if e.cfg.Probe != nil {
			ev := obs.Event{
				Time: now, Kind: obs.KindSegment,
				TaskID: -1, Seq: -1,
				Start: e.segStart, Mode: e.mode.String(), Level: e.level,
			}
			if e.running != nil {
				ev.TaskID, ev.Seq = e.running.TaskID, e.running.Seq
			}
			e.cfg.Probe.OnEvent(ev)
		}
	}
	e.segStart = now
}

func (e *engine) emit(t float64, kind string, j *task.Job) {
	if e.cfg.Tracer != nil {
		e.cfg.Tracer.OnEvent(t, kind, j)
	}
	if e.cfg.Probe != nil {
		ev := obs.Event{Time: t, Kind: obs.EventKind(kind), TaskID: -1, Seq: -1}
		if j != nil {
			ev.TaskID, ev.Seq = j.TaskID, j.Seq
		}
		e.cfg.Probe.OnEvent(ev)
	}
}

func (e *engine) task(id int) *refTaskStats {
	s, ok := e.tasks[id]
	if !ok {
		s = &refTaskStats{}
		e.tasks[id] = s
	}
	return s
}

func (e *engine) taskTable() []*sim.TaskStats {
	ids := make([]int, 0, len(e.tasks))
	for id := range e.tasks {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*sim.TaskStats, 0, len(ids))
	for _, id := range ids {
		s := e.tasks[id]
		out = append(out, &sim.TaskStats{
			TaskID:       id,
			Released:     s.released,
			Finished:     s.finished,
			Missed:       s.missed,
			ResponseMean: s.resp.Mean(),
			ResponseMax:  s.respMax,
		})
	}
	return out
}

func (e *engine) onArrival(now float64, j *task.Job) {
	e.syncTo(now)
	actual := j.WCET
	drawn := false
	if e.execRNG != nil {
		if j.Exec != nil {
			stream := uint64(j.TaskID)<<32 ^ uint64(j.Seq)
			r := e.execRNG.Child(stream)
			actual = j.WCET * j.Exec.Ratio(r, j.Seq)
			drawn = true
		} else if e.cfg.BCWCRatio > 0 && e.cfg.BCWCRatio < 1 {
			stream := uint64(j.TaskID)<<32 ^ uint64(j.Seq)
			r := e.execRNG.Child(stream)
			actual = j.WCET * r.Uniform(e.cfg.BCWCRatio, 1)
			drawn = true
		}
	}
	if drawn {
		e.res.Slack.DrawnJobs++
	}
	if of := e.faults.OverrunFactor(j.TaskID, j.Seq); of > 1 {
		actual *= of
		j.SetOverrunWork(actual)
		e.faults.AddOverrunWork(math.Max(0, actual-j.WCET))
	} else if drawn {
		j.SetActualWork(actual)
	}
	e.res.Miss.Released++
	e.task(j.TaskID).released++
	e.emit(now, "arrival", j)
	if j.ActualRemaining() < workEps {
		if rem := j.ActualRemaining(); rem > 0 {
			j.Progress(rem)
		} else {
			j.Progress(0)
		}
		e.res.Miss.Finished++
		e.finishStats(j, now)
		e.emit(now, "completion", j)
		e.noteReclaimed(now, j)
		return
	}
	e.ready.push(j)
	if j.Abs <= e.cfg.Horizon {
		e.deadlines.push(j.Abs, j)
	}
	e.requestDecide(now)
}

func (e *engine) finishStats(j *task.Job, now float64) {
	s := e.task(j.TaskID)
	s.finished++
	r := now - j.Arrival
	s.resp.Add(r)
	if r > s.respMax {
		s.respMax = r
	}
}

func (e *engine) onDeadline(now float64, j *task.Job) {
	e.syncTo(now)
	if j.Done() || j.Missed() {
		return
	}
	j.MarkMissed()
	e.res.Miss.Missed++
	e.task(j.TaskID).missed++
	e.emit(now, "miss", j)
	if !e.cfg.ContinueAfterDeadline {
		e.ready.remove(j)
		if e.running == j {
			e.setActivity(now, sim.ModeIdle, nil, 0)
		}
	}
	e.requestDecide(now)
}

func (e *engine) onBoundary(now float64) {
	e.syncTo(now)
	e.cfg.Predictor.Observe(now-1, e.cfg.Source.PowerAt(now-1))
	if s := e.res.EnergySeries; s != nil {
		k := int(math.Round(now))
		if k < s.Len() {
			s.Values[k] = e.cfg.Store.Level()
		}
	}
	e.requestDecide(now)
}

func (e *engine) onSegmentEnd(now float64) {
	e.syncTo(now)
	e.finishIfDone(now)
	e.requestDecide(now)
}

func (e *engine) finishIfDone(now float64) {
	j := e.running
	if e.mode != sim.ModeRun || j == nil {
		return
	}
	if rem := j.ActualRemaining(); rem > 0 && rem < workEps {
		j.Progress(rem)
	}
	if j.Done() {
		e.ready.remove(j)
		if !j.Missed() {
			e.res.Miss.Finished++
			e.finishStats(j, now)
		}
		e.emit(now, "completion", j)
		e.noteReclaimed(now, j)
		e.setActivity(now, sim.ModeIdle, nil, 0)
	}
}

// noteReclaimed mirrors the optimized engine's early-completion tally.
func (e *engine) noteReclaimed(now float64, j *task.Job) {
	if rem := j.Remaining(); rem > workEps {
		e.res.Slack.EarlyCompletions++
		e.res.Slack.ReclaimedWork += rem
		e.emit(now, "early-completion", j)
	}
}

func (e *engine) requestDecide(now float64) {
	if e.decidePending {
		return
	}
	e.decidePending = true
	e.decideAt = now
}

func (e *engine) onDecide(now float64) {
	e.decidePending = false
	e.syncTo(now)
	e.finishIfDone(now)

	e.segTime = math.Inf(1)

	// DPM: a wake transition in progress blocks scheduling.
	if e.waking {
		if now < e.wakeDone {
			e.holdSleep(now, e.wakeDone)
			return
		}
		e.waking, e.sleeping = false, false
		e.setActivity(now, sim.ModeIdle, nil, 0)
	}

	// DPM: a processor stalled out of a sleep state stays down until the
	// store can sustain the state's draw again.
	if e.sleeping && e.mode == sim.ModeStall && e.sleepSustain(now) < stallEps {
		return
	}

	// Unpooled: a fresh Context per decision, the straightforward way.
	ctx := sched.Context{
		Now:       now,
		Queue:     &e.ready,
		Stored:    e.cfg.Store.Level(),
		Capacity:  e.cfg.Store.Capacity(),
		CPU:       e.cfg.CPU,
		Predictor: e.cfg.Predictor,
		Reclaimed: e.res.Slack.ReclaimedWork,
		Probe:     e.cfg.Probe,
	}
	d := e.cfg.Policy.Decide(&ctx)
	e.res.Decisions++
	if e.mode == sim.ModeRun && e.running != nil && !e.running.Done() &&
		d.Job != nil && d.Job != e.running {
		e.res.Preemptions++
	}

	if d.Job == nil {
		if e.sleeping {
			if now < e.sleepWake {
				e.holdSleep(now, e.sleepWake)
				return
			}
			e.initiateWake(now)
			return
		}
		e.setActivity(now, sim.ModeIdle, nil, 0)
		until := d.Until
		if idle := e.cfg.CPU.IdlePower(); idle > 0 {
			sustain := e.cfg.Store.TimeToEmpty(e.cfg.Source.PowerAt(now), idle)
			if sustain < stallEps {
				e.setActivity(now, sim.ModeStall, nil, 0)
				return
			}
			until = math.Min(until, now+sustain)
		}
		if e.cfg.CPU.SleepLevels() > 0 && e.maybeSleep(now, until) {
			return
		}
		e.scheduleSegmentEnd(now, math.Inf(1), until)
		return
	}
	if e.sleeping {
		e.initiateWake(now)
		return
	}
	if d.Job.Done() {
		panic(fmt.Sprintf("refimpl: policy %s scheduled a finished job", e.cfg.Policy.Name()))
	}

	level := d.Level
	if e.faults != nil {
		requested := e.cfg.CPU.ClampLevel(level)
		level = e.cfg.CPU.ClampLevel(e.faults.DVFSLevel(now, e.lastRunLv, requested))
		if level != requested && e.cfg.Probe != nil {
			e.cfg.Probe.OnEvent(obs.Event{
				Time: now, Kind: obs.KindFault,
				TaskID: d.Job.TaskID, Seq: d.Job.Seq,
				Level: level, Detail: "dvfs-clamp",
			})
		}
	}

	ps := e.cfg.Source.PowerAt(now)
	pc := e.cfg.CPU.Power(level)
	sustain := e.cfg.Store.TimeToEmpty(ps, pc)
	if sustain < stallEps {
		wasStalled := e.mode == sim.ModeStall && e.running == d.Job
		e.setActivity(now, sim.ModeStall, d.Job, level)
		if !wasStalled {
			e.emit(now, "stall", d.Job)
		}
		return
	}

	e.setActivity(now, sim.ModeRun, d.Job, level)
	completion := now + d.Job.ActualRemaining()/e.cfg.CPU.Speed(level)
	e.scheduleSegmentEnd(now, completion, math.Min(d.Until, now+sustain))
}

// maybeSleep mirrors the optimized engine's DPM idle manager bit for bit.
func (e *engine) maybeSleep(now, until float64) bool {
	winEnd := math.Min(until, e.cfg.Horizon)
	if e.nextArrival < len(e.release) {
		winEnd = math.Min(winEnd, e.release[e.nextArrival].Arrival)
	}
	idx := e.cfg.CPU.DeepestSleepFor(winEnd - now)
	if idx < 0 {
		return false
	}
	st := e.cfg.CPU.SleepState(idx)
	if st.EnterEnergy > 0 {
		e.cfg.Store.Draw(st.EnterEnergy)
	}
	e.res.DPMOverhead += st.EnterEnergy
	e.sleeping = true
	e.sleepIdx = idx
	e.sleepWake = winEnd - st.WakeLatency
	e.setActivity(now, sim.ModeSleep, nil, idx)
	e.holdSleep(now, e.sleepWake)
	return true
}

// initiateWake mirrors the optimized engine's sleep-exit transition.
func (e *engine) initiateWake(now float64) {
	st := e.cfg.CPU.SleepState(e.sleepIdx)
	if st.ExitEnergy > 0 {
		e.cfg.Store.Draw(st.ExitEnergy)
	}
	e.res.DPMOverhead += st.ExitEnergy
	e.res.Wakeups++
	e.waking = true
	e.wakeDone = now + st.WakeLatency
	e.holdSleep(now, e.wakeDone)
}

// holdSleep mirrors the optimized engine: the sleep segment ends at the
// planned instant or where the store runs dry on the sleep draw; a store
// that cannot sustain the draw at all stalls the processor, which stays
// in its sleep state and abandons any wake in progress.
func (e *engine) holdSleep(now, end float64) {
	sustain := e.sleepSustain(now)
	if sustain < stallEps {
		e.waking = false
		e.setActivity(now, sim.ModeStall, nil, 0)
		return
	}
	e.setActivity(now, sim.ModeSleep, nil, e.sleepIdx) // back from a stall
	e.scheduleSegmentEnd(now, math.Inf(1), math.Min(end, now+sustain))
}

// sleepSustain is how long the store can hold the sleep state's draw.
func (e *engine) sleepSustain(now float64) float64 {
	pw := e.cfg.CPU.SleepState(e.sleepIdx).Power
	return e.cfg.Store.TimeToEmpty(e.cfg.Source.PowerAt(now), pw)
}

func (e *engine) scheduleSegmentEnd(now, completion, until float64) {
	end := math.Min(completion, until)
	if math.IsInf(end, 1) {
		return
	}
	if end < now+1e-12 {
		end = now + 1e-12
	}
	if end > e.cfg.Horizon {
		return
	}
	e.segTime = end
}
