package main

import (
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/metrics"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sched"
)

// paper-figures runs the experiment calls `eaexp -exp all
// -replications 40 -seed 1` makes, on every run. The experiment seed is
// fixed because a pass's cost depends on it (passes at experiment seeds
// 1–8 took 10.1–13.9 s), so a seed-dependent experiment would show as
// spread between runs. The workload seed orders the six calls instead,
// which leaves every output unchanged. Outputs are checked against the
// digests recorded for the experiment seed.
const paperExpSeed = 1

func paperSpec() experiment.Spec {
	s := experiment.DefaultSpec()
	s.Seed = paperExpSeed
	s.Replications = 40
	return s
}

// paperCalls is the number of experiment calls a pass makes.
const paperCalls = 6

// paperOrder is the seed's order of the six calls.
func paperOrder(seed uint64) []int {
	order := []int{0, 1, 2, 3, 4, 5}
	rng.Shuffle(rng.New(seed).Child(1<<43), order)
	return order
}

// figureCapacities is the Figures 8–9 sweep of cmd/eaexp, repeated
// here because a main package cannot be imported.
var figureCapacities = []float64{50, 100, 200, 300, 500, 1000, 2000, 3000, 4000, 5000}

type missOut struct {
	Capacities []float64
	Rates      map[string][]float64
	StdErr     map[string][]float64
	Stats      map[string][]metrics.MissStats
}

type paperOutputs struct {
	Fig5   []float64
	Fig6   map[string][]float64
	Fig7   map[string][]float64
	Fig8   missOut
	Fig9   missOut
	Table1 *experiment.MinCapacityResult
}

func (p *paperOutputs) digests() (map[string]string, error) {
	out := map[string]string{}
	for name, v := range map[string]any{
		"fig5": p.Fig5, "fig6": p.Fig6, "fig7": p.Fig7,
		"fig8": p.Fig8, "fig9": p.Fig9, "table1": p.Table1,
	} {
		d, err := digestOf(v)
		if err != nil {
			return nil, err
		}
		out[name] = d
	}
	return out, nil
}

// Traced runs resolve these registry names, which wrap the real
// policies and predictor in the decorators of trace.go.
const tracedPrefix = "perfbench-traced-"

var (
	activeTracer   atomic.Pointer[tracer]
	registerTraced sync.Once
)

// registerTracedDefs registers decorated twins of lsa, ea-dvfs and ewma.
// The experiment runners resolve policies and predictors by name, so a
// twin is how a decorator reaches their engine runs.
func registerTracedDefs() error {
	var err error
	registerTraced.Do(func() {
		for _, name := range []string{"lsa", "ea-dvfs"} {
			def, e := registry.Policy(name)
			if e != nil {
				err = e
				return
			}
			registry.RegisterPolicy(registry.PolicyDef{
				Name:   tracedPrefix + name,
				Help:   "benchmark decorator around " + name,
				Params: def.Params,
				New: func(p registry.Params) (sched.Policy, error) {
					inner, err := def.New(p)
					if err != nil {
						return nil, err
					}
					return &tracedPolicy{inner: inner, t: activeTracer.Load()}, nil
				},
			})
		}
		def, e := registry.Predictor("ewma")
		if e != nil {
			err = e
			return
		}
		registry.RegisterPredictor(registry.PredictorDef{
			Name:   tracedPrefix + "ewma",
			Help:   "benchmark decorator around ewma",
			Params: def.Params,
			New: func(p registry.Params) (registry.PredictorFactory, error) {
				f, err := def.New(p)
				if err != nil {
					return nil, err
				}
				return func(src energy.Source) energy.Predictor {
					t := activeTracer.Load()
					return &tracedPredictor{inner: f(src), t: t, f: t.newFrame()}
				}, nil
			},
		})
	})
	return err
}

// heapAtPeak reads the retained heap at fixed points of a pass: when a
// sweep's simulate phase ends, when the sweep then still holds every
// run's output (for the remaining-energy figures the pass's largest
// live set), and when the pass returns, holding Table 1. The live-heap
// reading otherwise refreshes only at whichever GC happens to run, and a
// peak that lasts a fraction of a GC cycle would be seen at a random
// fraction of its size. The engine's working memory inside a run is not
// read; long-horizon gates that. The time the collections take is
// recorded so the pass can leave it out.
type heapAtPeak struct {
	mu    sync.Mutex
	peak  retainedPeak
	spent time.Duration
}

func (h *heapAtPeak) OnSpan(sp obs.Span) {
	if sp.Name == "simulate" {
		h.read()
	}
}

func (h *heapAtPeak) read() {
	h.mu.Lock()
	defer h.mu.Unlock()
	t0 := time.Now()
	h.peak.collect()
	h.spent += time.Since(t0)
}

func (h *heapAtPeak) taken() time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.spent
}

// phaseSpans sums the experiment runners' phase spans (plan, simulate,
// aggregate) by name.
type phaseSpans struct {
	mu sync.Mutex
	s  map[string]float64
}

func (p *phaseSpans) OnSpan(sp obs.Span) {
	p.mu.Lock()
	p.s[sp.Service+"."+sp.Name] += sp.Duration.Seconds()
	p.mu.Unlock()
}

// paperPass runs the six experiment calls once, in the given order (nil
// for eaexp's), and returns the outputs (keyed by the plain policy names)
// and the seconds each layer call took. traced routes the runs through
// the decorated twins and reg, when non-nil, receives the runs' metrics;
// spans, when non-nil, receives the sweeps' phase spans.
func paperPass(spec experiment.Spec, order []int, traced bool, reg *obs.Registry, spans obs.SpanSink) (*paperOutputs, map[string]float64, error) {
	spec.Spans = spans
	lsa, ea := "lsa", "ea-dvfs"
	if traced {
		lsa, ea = tracedPrefix+lsa, tracedPrefix+ea
		spec.Predictor = tracedPrefix + "ewma"
		spec.Metrics = reg
	}
	plain := func(m map[string][]float64) map[string][]float64 {
		return map[string][]float64{"lsa": m[lsa], "ea-dvfs": m[ea]}
	}
	policies := []string{lsa, ea}
	times := map[string]float64{}
	out := &paperOutputs{}
	clock := func(name string, fn func() error) error {
		t0 := time.Now()
		err := fn()
		times[name] += time.Since(t0).Seconds()
		return err
	}
	remaining := func(u float64, dst *map[string][]float64) func() error {
		return func() error {
			sp := spec
			sp.Utilization = u
			return clock("remaining", func() error {
				res, err := experiment.RemainingEnergy(sp, policies)
				if err != nil {
					return err
				}
				curves := map[string][]float64{}
				for name, s := range res.Curves {
					curves[name] = s.Values
				}
				*dst = plain(curves)
				return nil
			})
		}
	}
	missrate := func(u float64, dst *missOut) func() error {
		return func() error {
			sp := spec
			sp.Utilization = u
			sp.Capacities = figureCapacities
			return clock("missrate", func() error {
				res, err := experiment.MissRateSweep(sp, policies)
				if err != nil {
					return err
				}
				*dst = missOut{
					Capacities: res.Capacities,
					Rates:      plain(res.Rates),
					StdErr:     plain(res.StdErr),
					Stats:      map[string][]metrics.MissStats{"lsa": res.Stats[lsa], "ea-dvfs": res.Stats[ea]},
				}
				return nil
			})
		}
	}
	calls := [paperCalls]func() error{
		func() error {
			return clock("fig5", func() error {
				out.Fig5 = experiment.SourceTrace(spec.Seed, int(spec.Horizon)).Values
				return nil
			})
		},
		remaining(0.4, &out.Fig6),
		remaining(0.8, &out.Fig7),
		missrate(0.4, &out.Fig8),
		missrate(0.8, &out.Fig9),
		func() error {
			return clock("mincap", func() error {
				res, err := experiment.MinCapacity(spec, []float64{0.2, 0.4, 0.6, 0.8}, policies)
				if err != nil {
					return err
				}
				res.Mean = plain(res.Mean)
				out.Table1 = res
				return nil
			})
		},
	}
	if order == nil {
		order = []int{0, 1, 2, 3, 4, 5}
	}
	for _, i := range order {
		if err := calls[i](); err != nil {
			return nil, nil, err
		}
	}
	return out, times, nil
}

func runPaper(o opts) (*outcome, error) {
	// One experiment worker. With two, each sweep waits for the slower
	// worker, and on a shared 2-CPU machine whose memory-bound speed
	// swings by a quarter for minutes at a time, wall_s spread 18–27%
	// between runs of identical inputs; one worker, like long-horizon's
	// single runs, was about twice as steady. Outputs do not depend on
	// the worker count.
	experiment.Parallelism = 1
	spec := paperSpec()
	order := paperOrder(o.seed)
	refs, err := loadRefs()
	if err != nil {
		return nil, err
	}
	want := refs.Paper[strconv.FormatUint(paperExpSeed, 10)]
	out := &outcome{extra: map[string]any{"experiment_seed": spec.Seed, "call_order": order}}

	// Set-up: a one-replication pass warms the arena pools and the
	// experiment code paths, then the heap is collected.
	warm := spec
	warm.Replications = 1
	_, setupTimes, err := repeatSetup(setupReps, func() (struct{}, error) {
		_, _, err := paperPass(warm, order, false, nil, nil)
		runtime.GC()
		return struct{}{}, err
	}, func(struct{}) {})
	if err != nil {
		return nil, err
	}
	out.setup = setupTimes

	calls := map[string][]float64{}
	peak := &heapAtPeak{}
	var gcTime []float64 // forced-collection time per pass, left out of it
	heap := startHeapSampler()
	b0, n0 := allocs()
	out.passes, err = passLoop(o.seconds, func(int) error {
		before := peak.taken()
		outs, times, err := paperPass(spec, order, false, nil, peak)
		if err != nil {
			return err
		}
		peak.read()
		gcTime = append(gcTime, (peak.taken() - before).Seconds())
		out.attempted += 6
		for k, v := range times {
			calls[k] = append(calls[k], v)
		}
		got, err := outs.digests()
		if err != nil {
			return err
		}
		for _, e := range compareDigests("paper-figures", got, want) {
			out.check(e)
		}
		return nil
	}, nil)
	b1, n1 := allocs()
	// The gated figure is the live set at the sweeps' peak, read after a
	// forced collection; the sampled live heap depends on when GCs
	// happened to run and is reported beside it.
	out.peakHeap = float64(peak.peak)
	out.extra["sampled_peak_heap_mb"] = heap.Stop() / (1 << 20)
	if err != nil {
		return nil, err
	}
	for i := range out.passes {
		out.passes[i] -= gcTime[i]
	}
	out.extra["forced_gc_s"] = gcTime
	callSummary := map[string]dist{}
	for k, v := range calls {
		callSummary[k] = summarize(v)
	}
	out.extra["experiment_call_s"] = callSummary
	if !o.trace {
		return out, nil
	}

	// Traced pass: the same calls through the decorated twins.
	if err := registerTracedDefs(); err != nil {
		return nil, err
	}
	t := newTracer()
	activeTracer.Store(t)
	reg := obs.NewRegistry()
	phases := &phaseSpans{s: map[string]float64{}}
	t0 := time.Now()
	outs, _, err := paperPass(spec, order, true, reg, phases)
	tracedWall := time.Since(t0)
	if err != nil {
		return nil, err
	}
	out.extra["traced_span_s"] = phases.s
	got, err := outs.digests()
	if err != nil {
		return nil, err
	}
	for _, e := range compareDigests("paper-figures traced", got, want) {
		out.check(e)
	}

	l := newLayers()
	passes := float64(len(out.passes))
	runs := reg.Counter("eadvfs_runs_total", "").Value()
	l.set("experiment.fig5_s", median(calls["fig5"]))
	l.set("experiment.remaining_s", median(calls["remaining"]))
	l.set("experiment.missrate_s", median(calls["missrate"]))
	l.set("experiment.mincap_s", median(calls["mincap"]))
	l.set("experiment.runs", runs)
	l.set("experiment.runs_per_s", runs/median(out.passes))
	l.set("task.jobs_released", reg.Counter(obs.Labeled("eadvfs_run_jobs_total", "outcome", "released"), "").Value())
	if runs > 0 {
		l.set("sim.alloc_mb_per_run", float64(b1-b0)/passes/runs/(1<<20))
		l.set("sim.allocs_per_run", float64(n1-n0)/passes/runs)
	}
	_, busy, frames := t.totals()
	l.setEngine(t, busy)
	l.set("sim.run_ms_p50", t.runMedianMs())
	l.set("trace.overhead_ratio", tracedWall.Seconds()/median(out.passes)-1)
	if err := micro(o.seed, l); err != nil {
		return nil, err
	}
	out.layers = l
	if frames != int(runs) {
		out.check(fmt.Errorf("paper-figures traced: %d decorated runs, registry counted %v", frames, runs))
	}
	return out, nil
}
