package sim

import (
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// allocConfig builds a fresh fig1-style config; stateful components
// (Store, Predictor, Policy) are consumed per run, so the measured
// closure must rebuild them each iteration and their construction cost
// is measured separately and subtracted.
func allocConfig() *Config {
	src := energy.NewConstant(0.5)
	return &Config{
		Horizon:   25,
		Tasks:     []task.Task{oneShot(1, 0, 16, 4), oneShot(2, 5, 16, 1.5)},
		Source:    src,
		Predictor: energy.NewOracle(src),
		Store:     storage.New(1e6, 24),
		CPU:       cpu.TwoSpeed(8),
		Policy:    sched.LSA{},
	}
}

// With tracing disabled (no probe at all), the arena's steady-state run
// must stay allocation-lean: the span plumbing added to Arena.Run is two
// type assertions and nil *ActiveSpan method calls, none of which may
// allocate. The authoritative regression gate is eabench -check against
// the checked-in baseline (allocs/op within 15%); this test is the
// in-tree tripwire with a deliberately generous fixed bound so it fails
// on a structural regression (tracing allocating when disabled), not on
// noise. Race builds skip the numeric assertion — the detector changes
// allocation behaviour — but still execute the path for race coverage.
func TestArenaRunDisabledTracingAllocs(t *testing.T) {
	a := NewArena()
	for i := 0; i < 3; i++ { // warm the arena pools
		if _, err := a.Run(allocConfig()); err != nil {
			t.Fatal(err)
		}
	}
	overhead := testing.AllocsPerRun(100, func() {
		_ = allocConfig()
	})
	total := testing.AllocsPerRun(100, func() {
		if _, err := a.Run(allocConfig()); err != nil {
			t.Fatal(err)
		}
	})
	engine := total - overhead
	t.Logf("steady-state allocs/run: %.1f engine (%.1f total - %.1f config)", engine, total, overhead)
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour; numeric bound not meaningful")
	}
	// Measured ~12 at introduction (identical to pre-tracing); 2x
	// headroom before this trips.
	const bound = 24
	if engine > bound {
		t.Fatalf("nil-probe steady-state run allocates %.1f times (bound %d): disabled tracing is no longer allocation-free", engine, bound)
	}
}

// A probe that is not a SpanSink must not trigger any tracing work: the
// engine's span extraction is a type assertion that fails, and the run
// must behave exactly as with tracing compiled out. This pins the gate
// condition — tracing engages on capability (SpanSink), not on the mere
// presence of a probe.
func TestArenaRunPlainProbeNoSpans(t *testing.T) {
	var rec countingProbe
	cfg := allocConfig()
	cfg.Probe = &rec
	if _, err := NewArena().Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rec.events == 0 {
		t.Fatal("plain probe saw no events; probe plumbing broken")
	}
}

// countingProbe implements obs.Probe but NOT obs.SpanSink.
type countingProbe struct {
	events    int
	decisions int
}

func (c *countingProbe) OnEvent(obs.Event)             { c.events++ }
func (c *countingProbe) OnDecision(obs.DecisionRecord) { c.decisions++ }

// horizonConfig is a periodic five-task workload on a constant source and
// a predictor without per-unit tables, so nothing but the engine could
// make a run's allocations grow with the horizon.
func horizonConfig(horizon float64) *Config {
	var tasks []task.Task
	for i, p := range []float64{10, 20, 25, 40, 50} {
		tasks = append(tasks, task.Task{ID: i, Period: p, Deadline: p, WCET: p / 8})
	}
	return &Config{
		Horizon:   horizon,
		Tasks:     tasks,
		Source:    energy.NewConstant(5),
		Predictor: energy.NewEWMA(0.2),
		Store:     storage.New(500, 500),
		CPU:       cpu.XScaleScaled(10),
		Policy:    sched.EDF{},
	}
}

// Jobs are streamed from a per-task arrival heap and recycled, so what an
// arena allocates per run depends on the jobs live at once, not on the
// horizon: once warm, a 1e6-unit run mints no job struct that its
// 1e4-unit run did not, and allocates no more in total.
func TestArenaAllocsIndependentOfHorizon(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector changes allocation behaviour, and a 1e6-unit run under it takes seconds")
	}
	a := NewArena()
	run := func(horizon float64) func() {
		return func() {
			if _, err := a.Run(horizonConfig(horizon)); err != nil {
				t.Fatal(err)
			}
		}
	}
	run(1e4)()
	short := len(a.rel.all)
	run(1e6)()
	if long := len(a.rel.all); long > short {
		t.Fatalf("the 1e6-unit run minted %d job structs beyond the %d of the 1e4-unit run", long-short, short)
	}
	shortAllocs := testing.AllocsPerRun(1, run(1e4))
	longAllocs := testing.AllocsPerRun(1, run(1e6))
	t.Logf("allocs/run: %.0f at 1e4 units, %.0f at 1e6 units; %d job structs", shortAllocs, longAllocs, short)
	if longAllocs > shortAllocs {
		t.Fatalf("a warm 1e6-unit run allocates %.0f times, more than the %.0f of a 1e4-unit run", longAllocs, shortAllocs)
	}
}
