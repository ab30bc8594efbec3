package sim_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/refimpl"
	"github.com/eadvfs/eadvfs/internal/registry"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
	"github.com/eadvfs/eadvfs/internal/task"
)

// scenario is one facade-style run (solar source, EWMA predictor, the
// scaled XScale processor, a generated five-task set) that both engines
// can be built for.
type scenario struct {
	policy   string
	util     float64
	seed     uint64
	horizon  float64
	capacity float64
	sleep    string          // cpu.SleepPreset name; "" for none
	model    string          // registered task model; "" for "periodic"
	params   registry.Params // task-model parameters
	source   string          // registered source; "" for solar seeded by seed
	srcArgs  registry.Params // source parameters

	jobs func() []*task.Job // explicit jobs, fresh per call; nil for none

	continueAfterDeadline bool
	stopAtFirstMiss       bool // optimized side only: refimpl has no early stop
}

func (s scenario) String() string {
	return fmt.Sprintf("%s/u=%g/seed=%d/model=%q/sleep=%q/source=%q/jobs=%v/continue=%v/stop=%v",
		s.policy, s.util, s.seed, s.model, s.sleep, s.source, s.jobs != nil, s.continueAfterDeadline, s.stopAtFirstMiss)
}

// must unwraps registry lookups and builds of fixed, valid names.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// config builds the scenario for the optimized engine, or for refimpl
// with the registrations' reference policy and predictor. Every stateful
// component is fresh per call.
func (s scenario) config(t testing.TB, ref bool) *sim.Config {
	t.Helper()
	proc := cpu.XScaleScaled(10)
	if s.sleep != "" {
		idle, states, err := cpu.SleepPreset(s.sleep, proc.MaxPower())
		if err != nil {
			t.Fatal(err)
		}
		proc = proc.WithDPM(idle, states)
	}
	src := must(must(registry.Source("solar")).Build(registry.Params{"seed": s.seed}))
	if s.source != "" {
		src = must(must(registry.Source(s.source)).Build(s.srcArgs))
	}
	model := s.model
	if model == "" {
		model = "periodic"
	}
	gen := registry.TaskGen{NumTasks: 5, TargetU: s.util, MeanHarvestPower: src.MeanPower(), PMax: proc.MaxPower()}
	tasks := must(must(registry.TaskModel(model)).Build(gen, s.params, rng.New(s.seed)))

	pol := must(registry.Policy(s.policy))
	var pp registry.Params
	if pol.HasParam("utilization") {
		pp = registry.Params{"utilization": s.util}
	}
	pred := must(registry.Predictor("ewma"))
	polF, predF := pol.Factory, pred.Factory
	if ref {
		polF, predF = pol.RefFactory, pred.RefFactory
	}
	cfg := &sim.Config{
		Horizon:               s.horizon,
		Tasks:                 tasks,
		Source:                src,
		Predictor:             must(predF(nil))(src),
		Store:                 storage.New(s.capacity, s.capacity),
		CPU:                   proc,
		Policy:                must(polF(pp))(),
		ExecSeed:              s.seed,
		ContinueAfterDeadline: s.continueAfterDeadline,
		StopAtFirstMiss:       s.stopAtFirstMiss && !ref,
	}
	if s.jobs != nil {
		cfg.Jobs = s.jobs()
	}
	return cfg
}

// side is one engine's observation of a run: the Result and every event
// and decision record.
type side struct {
	res *sim.Result
	err error
	rec *obs.Recorder
}

func (o *side) attach(cfg *sim.Config) *sim.Config {
	o.rec = obs.NewRecorder()
	cfg.Probe = o.rec
	return cfg
}

// refRun runs the scenario on the reference engine, turning a panic into
// an error so a grid reports every failing cell.
func refRun(t testing.TB, s scenario) (o *side) {
	t.Helper()
	o = new(side)
	cfg := o.attach(s.config(t, true))
	defer func() {
		if r := recover(); r != nil {
			o.err = fmt.Errorf("refimpl panic: %v", r)
		}
	}()
	o.res, o.err = refimpl.Run(cfg)
	return o
}

// sameRun reports how got differs from want: the error, the Result (as
// JSON, which round-trips every finite float exactly) and the event and
// decision records.
func sameRun(got, want *side) error {
	if fmt.Sprint(got.err) != fmt.Sprint(want.err) {
		return fmt.Errorf("error %v, reference %v", got.err, want.err)
	}
	g, gerr := json.Marshal(got.res)
	w, werr := json.Marshal(want.res)
	if gerr != nil || werr != nil || !bytes.Equal(g, w) {
		return fmt.Errorf("result differs:\n  got  %s (%v)\n  want %s (%v)", g, gerr, w, werr)
	}
	if !reflect.DeepEqual(got.rec.Events(), want.rec.Events()) {
		return fmt.Errorf("events differ (%d, reference %d)", len(got.rec.Events()), len(want.rec.Events()))
	}
	if !reflect.DeepEqual(got.rec.Decisions(), want.rec.Decisions()) {
		return fmt.Errorf("decisions differ (%d, reference %d)", len(got.rec.Decisions()), len(want.rec.Decisions()))
	}
	return nil
}

// throughFirstMiss returns the events up to and including the first miss
// (all of them when there is none).
func throughFirstMiss(evs []obs.Event) (prefix []obs.Event, missed bool) {
	for i, ev := range evs {
		if ev.Kind == obs.KindMiss {
			return evs[:i+1], true
		}
	}
	return evs, false
}

// dpmSeeds is the task-set seed count per cell of the DPM regression
// grid; -short runs the first two.
const dpmSeeds = 20

// With DPM sleep states, every sleep or wake segment ends where the store
// empties on the sleep draw, so the exact-flow integration never runs a
// store dry mid-interval: every cell of this grid completes, identically
// on both engines. A stall out of a sleep state ends only through a wake.
func TestDPMSleepStopsAtEmptyStore(t *testing.T) {
	seeds, utils := dpmSeeds, []float64{0.4, 0.6, 0.8}
	if testing.Short() {
		seeds = 2
	}
	if sim.RaceEnabled {
		seeds, utils = 1, utils[1:2] // enough to run every path under the detector
	}
	var sleepStalls atomic.Int64
	t.Cleanup(func() {
		if seeds == dpmSeeds && sleepStalls.Load() == 0 {
			t.Error("no run stalled out of a sleep state; the restart check is vacuous")
		}
	})
	for _, policy := range registry.PolicyNames() {
		for _, u := range utils {
			t.Run(fmt.Sprintf("%s/u=%g", policy, u), func(t *testing.T) {
				t.Parallel()
				for seed := uint64(1); seed <= uint64(seeds); seed++ {
					s := scenario{policy: policy, util: u, seed: seed, horizon: 1e4, capacity: 500, sleep: "default"}
					got := new(side)
					func() {
						defer func() {
							if r := recover(); r != nil {
								got.err = fmt.Errorf("panic: %v", r)
							}
						}()
						got.res, got.err = sim.Run(got.attach(s.config(t, false)))
					}()
					if got.err != nil {
						t.Errorf("%v: %v", s, got.err)
						continue
					}
					n, err := checkSleepStallRestarts(got.rec.Events())
					if err != nil {
						t.Errorf("%v: %v", s, err)
					}
					sleepStalls.Add(int64(n))
					if err := sameRun(got, refRun(t, s)); err != nil {
						t.Errorf("%v: %v", s, err)
					}
				}
			})
		}
	}
}

// checkSleepStallRestarts checks that each stall entered straight from a
// sleep segment is left through another sleep segment (the wake), never
// straight to idle or run, and counts those stalls.
func checkSleepStallRestarts(evs []obs.Event) (int, error) {
	n, prev, down := 0, "", false
	for _, ev := range evs {
		if ev.Kind != obs.KindSegment {
			continue
		}
		switch {
		case ev.Mode == "stall" && prev == "sleep":
			n++
			down = true
		case ev.Mode == "stall":
		case down && ev.Mode != "sleep":
			return n, fmt.Errorf("segment %q at %g follows a stall out of sleep without a wake", ev.Mode, ev.Start)
		default:
			down = false
		}
		prev = ev.Mode
	}
	return n, nil
}

// One arena serves a batch of runs that retire jobs by every path —
// zero-work releases, completions after a miss, explicit sporadic jobs,
// early stops — and each run must still match the reference engine bit
// for bit. A job struct recycled while something could still reach it
// (the ready queue, a pending deadline event, the reclaiming policy's
// previous head job) would show up here as a divergence.
func TestRunManyJobReuseMatchesRefimpl(t *testing.T) {
	sporadic := func() []*task.Job {
		jobs, err := task.GenerateSporadic(task.SporadicSpec{
			TaskID: 100, Rate: 0.05, MinSeparation: 4, Deadline: 30, WCETMin: 0.5, WCETMax: 5,
		}, 3000, rng.New(9))
		if err != nil {
			t.Fatal(err)
		}
		// A zero-work job and one at the same instant as a periodic
		// release (every offset is 0) exercise both merge tie rules.
		return append(jobs, task.NewJob(101, 0, 0, 5, 0), task.NewJob(102, 0, 40, 5, 1))
	}
	zeroDraws := registry.Params{"dist": task.DistNormal, "bc_ratio": 0.0, "mean": 0.1, "stddev": 0.3}
	seeds := uint64(4)
	if sim.RaceEnabled {
		seeds = 1
	}
	var cases []scenario
	for seed := uint64(1); seed <= seeds; seed++ {
		cases = append(cases,
			scenario{policy: "ea-dvfs-reclaim", util: 0.6, seed: seed, horizon: 3000, capacity: 300,
				model: "stochastic-periodic", params: zeroDraws},
			scenario{policy: "lsa-reclaim", util: 0.8, seed: seed, horizon: 3000, capacity: 100,
				model: "stochastic-periodic", params: zeroDraws, continueAfterDeadline: true},
			scenario{policy: "ea-dvfs", util: 0.9, seed: seed, horizon: 3000, capacity: 50,
				continueAfterDeadline: true},
			scenario{policy: "edf", util: 0.5, seed: seed, horizon: 3000, capacity: 200, jobs: sporadic},
			scenario{policy: "ea-dvfs", util: 0.7, seed: seed, horizon: 3000, capacity: 100, sleep: "default",
				jobs: sporadic},
			scenario{policy: "lsa", util: 0.9, seed: seed, horizon: 3000, capacity: 20, stopAtFirstMiss: true},
			scenario{policy: "ea-dvfs", util: 0.3, seed: seed, horizon: 3000, capacity: 1000, stopAtFirstMiss: true},
			scenario{policy: "ea-dvfs-reclaim", util: 0.8, seed: seed, horizon: 3000, capacity: 50,
				model: "stochastic-periodic", params: zeroDraws, stopAtFirstMiss: true},
		)
	}

	got := make([]side, len(cases))
	cfgs := make([]*sim.Config, len(cases))
	for i, s := range cases {
		cfgs[i] = got[i].attach(s.config(t, false))
	}
	var jobsBefore [][]task.Job
	for _, cfg := range cfgs {
		var snap []task.Job
		for _, j := range cfg.Jobs {
			snap = append(snap, *j)
		}
		jobsBefore = append(jobsBefore, snap)
	}
	for i, out := range sim.RunMany(cfgs) {
		got[i].res, got[i].err = out.Result, out.Err
	}

	stops, misses := 0, 0
	for i, s := range cases {
		for k, j := range cfgs[i].Jobs {
			if *j != jobsBefore[i][k] {
				t.Fatalf("%v: the run mutated the caller's explicit job %d", s, k)
			}
		}
		want := refRun(t, s)
		if want.err != nil {
			t.Fatalf("%v: reference run failed: %v", s, want.err)
		}
		if !s.stopAtFirstMiss {
			if err := sameRun(&got[i], want); err != nil {
				t.Errorf("%v: %v", s, err)
			}
			continue
		}
		// An early-stopped run is the reference run's prefix: the same
		// stream through the first miss, or the whole run without one.
		stops++
		if got[i].err != nil {
			t.Fatalf("%v: %v", s, got[i].err)
		}
		gp, gm := throughFirstMiss(got[i].rec.Events())
		wp, wm := throughFirstMiss(want.rec.Events())
		if gm != wm || gm != (got[i].res.Miss.Missed > 0) {
			t.Errorf("%v: missed %v, reference %v", s, gm, wm)
			continue
		}
		if !gm {
			if err := sameRun(&got[i], want); err != nil {
				t.Errorf("%v: %v", s, err)
			}
			continue
		}
		misses++
		gd, wd := got[i].rec.Decisions(), want.rec.Decisions()
		if !reflect.DeepEqual(gp, wp) || len(gd) > len(wd) || !reflect.DeepEqual(gd, wd[:len(gd)]) {
			t.Errorf("%v: run through the first miss differs from the reference", s)
		}
	}
	if misses == 0 || misses == stops {
		t.Fatalf("%d of %d early-stop runs missed; the cases no longer cover both outcomes", misses, stops)
	}
}

// A job that completes after its deadline is retired at its completion.
// A job released at that same instant must not take over its struct
// before the next decision has returned, because the reclaiming policy
// reads the previous head job's final state in that decision. Here A
// misses at 4 and completes at 5 having used half its budget, and C of
// the same task arrives at 5: the policy must still see A finish and
// stretch C on the strength of it.
func TestRetiredJobOutlivesOneDecision(t *testing.T) {
	build := func(ref bool) *sim.Config {
		a := task.NewJob(0, 0, 0, 4, 4)
		a.SetActualWork(2)
		pol := must(registry.Policy("ea-dvfs-reclaim"))
		pred := must(registry.Predictor("oracle"))
		polF, predF := pol.Factory, pred.Factory
		if ref {
			polF, predF = pol.RefFactory, pred.RefFactory
		}
		src := must(must(registry.Source("constant")).Build(registry.Params{"power": 100.0}))
		return &sim.Config{
			Horizon:               50,
			Jobs:                  []*task.Job{task.NewJob(1, 0, 0, 3, 3), a, task.NewJob(0, 1, 5, 100, 4)},
			Source:                src,
			Predictor:             must(predF(nil))(src),
			Store:                 storage.New(1000, 1000),
			CPU:                   cpu.XScaleScaled(10),
			Policy:                must(polF(nil))(),
			ContinueAfterDeadline: true,
		}
	}
	got, want := new(side), new(side)
	out := sim.RunMany([]*sim.Config{got.attach(build(false))})[0]
	got.res, got.err = out.Result, out.Err
	want.res, want.err = refimpl.Run(want.attach(build(true)))
	if err := sameRun(got, want); err != nil {
		t.Fatal(err)
	}
	for _, d := range got.rec.Decisions() {
		if d.Time == 5 && d.TaskID == 0 && d.Seq == 1 && d.Reason == obs.ReasonStretchReclaimed {
			return
		}
	}
	t.Fatalf("C was not stretched at t=5 on A's observed slack: %+v", got.rec.Decisions())
}

// A two-mode source with a fractional day length switches between day and
// night inside a unit interval, so the source power the engine integrates
// with depends on the exact instant each integration step starts at. The
// run must still match refimpl bit for bit; a PowerAt cache keyed by the
// unit (floor(t)) instead of the instant fails here.
func TestFractionalTwoModeMatchesRefimpl(t *testing.T) {
	args := registry.Params{"day": 6.0, "night": 0.4, "period": 30.0, "day_len": 11.37}
	src := must(must(registry.Source("two-mode")).Build(args))
	if src.PowerAt(11) == src.PowerAt(11.5) {
		t.Fatal("source does not switch inside unit [11, 12)")
	}
	for _, pol := range []string{"ea-dvfs", "lsa", "edf", "ea-dvfs-reclaim"} {
		for seed := uint64(1); seed <= 4; seed++ {
			s := scenario{policy: pol, util: 0.6, seed: seed, horizon: 3000, capacity: 150,
				source: "two-mode", srcArgs: args}
			got := new(side)
			got.res, got.err = sim.Run(got.attach(s.config(t, false)))
			if err := sameRun(got, refRun(t, s)); err != nil {
				t.Errorf("%v: %v", s, err)
			}
		}
	}
}
