package sim

import (
	"math"
	"sync"

	"github.com/eadvfs/eadvfs/internal/fault"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/task"
)

// Arena is the reusable cross-run state of the engine: the ready queue,
// the per-task stats table, the arrival stream with its job free list and
// the deadline-check heap. One engine run churns through hundreds of job
// structs; an arena allocates them once and resets them per run, which is
// what turns a repeated workload — a capacity bisection, a sweep cell, a
// service worker slot — from ~800 allocations per run into ~20. Jobs are released from a
// per-task arrival heap rather than expanded up front, so an arena's
// memory depends on the task count and the jobs live at once, not on the
// horizon.
//
// Reuse is strictly sequential: an arena serves one run at a time and is
// not safe for concurrent use. Run (the package function) draws arenas
// from an internal sync.Pool, which gives every concurrently executing
// worker — the experiment parallel runner's goroutines, the service's
// bounded pool slots — its own warm arena without coordination; hold an
// explicit Arena only to pin a batch of runs to one set of warm pools.
//
// The contract the reset relies on: nothing retains engine-owned state
// past Run, and no policy keeps a *Job for more than one decision past
// the job's retirement (see releases). Tracers and probes copy job fields
// rather than keep *Job, and Result.PerTask entries are freshly allocated
// per run precisely because callers do retain those.
type Arena struct {
	queue *task.ReadyQueue
	tasks *taskTable
	rel   releases
	dl    deadlines
	eng   engine
}

// NewArena returns an empty arena. The first Run populates its pools; an
// arena warms up in one run.
func NewArena() *Arena {
	return &Arena{
		queue: task.NewReadyQueue(),
		tasks: newTaskTable(),
	}
}

// arenaPool backs the package-level Run: one warm arena per P in the
// steady state, so every worker goroutine reuses run state without any
// explicit plumbing.
var arenaPool = sync.Pool{New: func() any { return NewArena() }}

// RunOutcome pairs one run of a batch with its error, keeping RunMany
// total: a failed run (invalid config, event-budget abort, cancellation)
// occupies its slot instead of truncating the batch.
type RunOutcome struct {
	Result *Result
	Err    error
}

// RunMany executes the configs sequentially on a single pooled arena and
// returns one outcome per config, in order. Each run is bit-identical to
// an independent Run of the same config (the internal/verify differential
// pins this down); the batch form amortizes the queue, heaps and job
// structs across the whole batch. Stateful components (Store, Predictor,
// Policy) are consumed per run as always and must be fresh per config.
func RunMany(cfgs []*Config) []RunOutcome {
	a := arenaPool.Get().(*Arena)
	out := make([]RunOutcome, len(cfgs))
	for i, cfg := range cfgs {
		out[i].Result, out[i].Err = a.Run(cfg)
	}
	arenaPool.Put(a)
	return out
}

// Run executes one simulation on this arena's pooled state. Semantics are
// exactly those of the package-level Run.
func (a *Arena) Run(cfg *Config) (*Result, error) {
	res, err := a.run(cfg)
	// A pooled arena outlives its run: drop the engine's references to the
	// run's config, context and result, so an idle arena does not pin the
	// last run's source, predictor and store (a 1e6-unit solar source
	// holds 24 MB of tables) until it is drawn again.
	a.eng = engine{}
	return res, err
}

func (a *Arena) run(cfg *Config) (*Result, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}

	// Tracing rides the existing probe plumbing: a Probe that is also a
	// SpanSink receives wall-clock phase spans ("plan", "simulate") with
	// sim-time boundaries in the attributes, parented under whatever span
	// the probe carries (obs.TraceCarrier — the service's per-request
	// engine span). Tracing engages only when BOTH capabilities are
	// present: a sink to write to and a valid parent context proving a
	// trace is actually in progress. A sink without a trace (a bare
	// JSONLWriter probe recording a deterministic event stream) must not
	// have randomized span lines injected into it. A plain probe, or
	// none, costs two type assertions and no allocation: StartSpan on a
	// nil sink returns a nil *ActiveSpan whose methods are all no-ops.
	var trace obs.SpanSink
	var traceParent obs.SpanContext
	if cfg.Probe != nil {
		if ss, ok := cfg.Probe.(obs.SpanSink); ok {
			if parent := obs.SpanParentOf(cfg.Probe); parent.Valid() {
				trace = ss
				traceParent = parent
			}
		}
	}

	// Materialize the per-run fault set and interpose its wrappers on a
	// shallow copy, leaving the caller's Config untouched. A disabled (or
	// nil) fault spec yields a nil set: every path below degrades to the
	// exact fault-free behaviour, bit for bit.
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

	// Reset the pooled state up front (not on exit): a panicking run can
	// never leave a stale arena behind, because the next run starts from a
	// clean slate regardless.
	a.queue.Reset()
	a.tasks.reset()
	a.dl.reset()

	e := &a.eng
	*e = engine{
		cfg:       cfg,
		queue:     a.queue,
		rel:       &a.rel,
		dl:        &a.dl,
		lastRunLv: -1,
		tasks:     a.tasks,
		faults:    faults,
		ctx: sched.Context{
			Queue:     a.queue,
			CPU:       cfg.CPU,
			Predictor: cfg.Predictor,
			Probe:     cfg.Probe,
		},
		psT: math.NaN(),
		res: &Result{
			Policy:    cfg.Policy.Name(),
			LevelTime: make([]float64, cfg.CPU.Levels()),
		},
	}
	if cfg.CheckInvariants {
		e.inv = &invariantChecker{probe: cfg.Probe}
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

	planSpan := obs.StartSpan(trace, "sim", "plan", traceParent)
	a.rel.reset(cfg)
	planSpan.SetInt("tasks", int64(len(cfg.Tasks)))
	planSpan.SetFloat("horizon", cfg.Horizon)
	planSpan.End()

	// Unit-boundary chain: predictor observation + energy sampling.
	e.nextBoundary = math.Inf(1)
	if cfg.Horizon >= 1 {
		e.nextBoundary = 1
	}
	e.segTime = math.Inf(1)

	simSpan := obs.StartSpan(trace, "sim", "simulate", traceParent)
	simSpan.SetFloat("sim_start", 0)
	e.requestDecide(0)
	if err := e.dispatch(); err != nil {
		simSpan.SetAttr("error", err.Error())
		simSpan.End()
		return nil, err
	}

	// A StopAtFirstMiss run ends at the miss instant; everything below —
	// state integration, trace closure, fault windows, conservation — is
	// finalized there instead of the horizon, so the Result is an exact
	// prefix of the full run.
	end := cfg.Horizon
	if e.stopped {
		end = e.simNow
	}
	e.syncTo(end)
	e.closeSegment(end)

	e.faults.FinishAt(end)
	e.res.Degradation = e.faults.Counters()
	e.res.PerTask = e.tasks.table()
	e.res.Meters = cfg.Store.Meters()
	e.res.FinalLevel = cfg.Store.Level()
	e.res.Events = e.dispatched
	e.res.ConservationErr = cfg.Store.ConservationError(e.initialLevel)
	simSpan.SetFloat("sim_end", end)
	simSpan.SetInt("events", int64(e.dispatched))
	simSpan.SetInt("jobs", int64(e.res.Miss.Released))
	simSpan.End()
	if err := e.res.Miss.Check(); err != nil {
		if e.inv == nil {
			return nil, err
		}
		e.inv.record("miss-stats", end, "%v", err)
	}
	if e.inv != nil {
		e.inv.checkConservation(end, e.res.ConservationErr, e.initialLevel+e.res.Meters.Stored)
		if err := e.inv.err(); err != nil {
			return e.res, err
		}
	}
	return e.res, nil
}
