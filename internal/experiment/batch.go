package experiment

import (
	"context"

	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/sim"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// Runner amortizes per-(spec, replication) run setup across many runs of
// the same replication: the predictor name is resolved once, the (immutable)
// processor is built once, the solar trace is realized once and a single
// fork of it is reused run to run, and every run executes on one dedicated
// sim.Arena, whose kernel, queue and job structs stay warm. RunOne
// re-derives all of that per run; over a capacity bisection or a batch of
// sweep columns the difference is most of the non-engine cost.
//
// Each run is bit-identical to the corresponding RunOne: a prepared
// SolarModel fork is a pure function of time (queries within the realized
// prefix never mutate it, and sequential extension realizes the same
// samples a fresh fork would), and the arena path is pinned bit-identical
// by the internal/verify differential.
//
// A Runner is single-goroutine: runs execute sequentially on its arena.
// Fan replication-level parallelism out with one Runner per worker.
type Runner struct {
	spec  Spec
	rep   Replication
	predF PredictorFactory
	proc  *cpu.Processor
	src   *energy.SolarModel
	arena *sim.Arena
}

// NewRunner prepares an amortized runner for one replication of the spec.
// The replication's solar master is prepared through the horizon (a no-op
// when the caller already did) and forked once.
func NewRunner(s Spec, rep Replication) (*Runner, error) {
	predF, err := s.PredictorFor(s.Predictor)
	if err != nil {
		return nil, err
	}
	rep.PrepareSource(s.Horizon)
	return &Runner{
		spec:  s,
		rep:   rep,
		predF: predF,
		proc:  s.Processor(),
		src:   rep.Source(),
		arena: sim.NewArena(),
	}, nil
}

// RunCtx executes one run of the runner's replication at the given
// capacity under a fresh policy from pf. record enables the per-unit
// energy series; stopAtFirstMiss enables the feasibility-probe early exit
// (sim.Config.StopAtFirstMiss — the Result is then a prefix ending at the
// first miss, and the spec's run metrics record that prefix).
func (r *Runner) RunCtx(ctx context.Context, capacity float64, pf PolicyFactory, record, stopAtFirstMiss bool) (*sim.Result, error) {
	cfg := &sim.Config{
		Horizon:         r.spec.Horizon,
		Tasks:           r.rep.Tasks,
		Source:          r.src,
		Predictor:       r.predF(r.src),
		Store:           storage.NewIdeal(capacity),
		CPU:             r.proc,
		Policy:          pf(),
		RecordEnergy:    record,
		StopAtFirstMiss: stopAtFirstMiss,
		MaxEvents:       defaultEventBudget(r.spec.Horizon),
		Probe:           r.spec.Probe,
	}
	if ctx != nil && ctx != context.Background() {
		cfg.Context = ctx
	}
	res, err := r.arena.Run(cfg)
	r.spec.recordRun(res)
	return res, err
}

// RunBatch executes one replication's full (capacity × policy) grid on a
// single amortized Runner and returns results indexed [capacity][policy].
// It is the batched equivalent of calling RunOneCtx per cell — each cell
// is bit-identical — with the scheduler plan, task-set expansion and solar
// realization computed once for the whole grid instead of once per cell.
func RunBatch(ctx context.Context, s Spec, rep Replication, capacities []float64, pfs []PolicyFactory, record bool) ([][]*sim.Result, error) {
	r, err := NewRunner(s, rep)
	if err != nil {
		return nil, err
	}
	out := make([][]*sim.Result, len(capacities))
	for ci, c := range capacities {
		out[ci] = make([]*sim.Result, len(pfs))
		for pi, pf := range pfs {
			res, err := r.RunCtx(ctx, c, pf, record, false)
			if err != nil {
				return nil, err
			}
			out[ci][pi] = res
		}
	}
	return out, nil
}
