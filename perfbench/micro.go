package main

import (
	"bytes"
	"encoding/json"
	"time"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/core"
	"github.com/eadvfs/eadvfs/internal/cpu"
	"github.com/eadvfs/eadvfs/internal/des"
	"github.com/eadvfs/eadvfs/internal/digest"
	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// Layer micro-cases time the kernels no decorator can reach from
// outside: the DES kernel's schedule/dispatch, core.ComputePlan, and the
// service's wire check, strict decode and digest. Inputs come from the
// workload seed. Each case reports the median per-operation time of
// microBatches batches.
const microBatches = 5

var microSink float64

// perOp times fn, which performs n operations, microBatches times and
// returns the median nanoseconds per operation.
func perOp(n int, fn func()) float64 {
	ns := make([]float64, microBatches)
	for b := range ns {
		t0 := time.Now()
		fn()
		ns[b] = float64(time.Since(t0).Nanoseconds()) / float64(n)
	}
	return median(ns)
}

func micro(seed uint64, l layers) error {
	l.set("des.schedule_dispatch_ns", microDES(seed))
	ns, err := microPlan(seed)
	if err != nil {
		return err
	}
	l.set("core.compute_plan_ns", ns)
	check, decode, compact, err := microWire(seed)
	if err != nil {
		return err
	}
	l.set("spec.checkwire_us", check/1e3)
	l.set("spec.decode_us", decode/1e3)
	l.set("digest.compact_us", compact/1e3)
	return nil
}

// microDES keeps 32 events pending and, per operation, schedules one at
// a seeded exponential delay and dispatches the earliest.
func microDES(seed uint64) float64 {
	const pending, n = 32, 200000
	r := rng.New(seed).Child(1 << 41)
	delays := make([]float64, 4096)
	for i := range delays {
		delays[i] = r.Exponential(1)
	}
	k := des.NewKernel()
	for i := 0; i < pending; i++ {
		k.At(delays[i], i%3, "e", nil)
	}
	return perOp(n, func() {
		for i := 0; i < n; i++ {
			k.At(k.Now()+delays[i%len(delays)], i%3, "e", nil)
			k.Step()
		}
	})
}

// microPlan evaluates ComputePlan on the jobs of long-horizon's first
// round of task sets, across a seeded spread of stored energy.
func microPlan(seed uint64) (float64, error) {
	type in struct{ avail, now, deadline, remaining float64 }
	var ins []in
	r := rng.New(seed).Child(1 << 42)
	for _, c := range longRound(0) {
		rep, err := experiment.Replicate(c.spec, 0)
		if err != nil {
			return 0, err
		}
		for _, t := range rep.Tasks {
			for j := 0; j < 256; j++ {
				now := r.Uniform(0, t.Period)
				ins = append(ins, in{
					avail:     r.Uniform(0, 2*c.capacity),
					now:       now,
					deadline:  t.Deadline + now,
					remaining: t.WCET * r.Uniform(0.1, 1),
				})
			}
		}
	}
	p := cpu.XScaleScaled(10)
	const rounds = 50
	return perOp(rounds*len(ins), func() {
		for k := 0; k < rounds; k++ {
			for _, x := range ins {
				microSink += core.ComputePlan(p, x.avail, x.now, x.deadline, x.remaining).S1
			}
		}
	}), nil
}

// microWire runs the /v1/sim request front half — spec.CheckWire,
// strict decode, canonical digest — over the bodies of the seed's first
// serve-mix batch, as many hits as misses, and returns nanoseconds per
// body for each step.
func microWire(seed uint64) (check, decode, compact float64, err error) {
	gen := serveGen{seed: seed}
	_, slots := gen.batch(0)
	for i := 0; i < serveMisses; i++ {
		slots = append(slots, slot{hot: i % len(hot)})
	}
	var bodies, canon [][]byte
	for _, s := range slots {
		b := gen.body(s)
		var cfg eadvfs.Config
		if err := json.Unmarshal(b, &cfg); err != nil {
			return 0, 0, 0, err
		}
		cfg.Schema = 0
		bodies = append(bodies, b)
		canon = append(canon, body(cfg))
	}
	const rounds = 20
	n := rounds * len(bodies)
	var firstErr error
	check = perOp(n, func() {
		for k := 0; k < rounds; k++ {
			for _, b := range bodies {
				if _, err := spec.CheckWire(b); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	})
	decode = perOp(n, func() {
		for k := 0; k < rounds; k++ {
			for _, b := range bodies {
				var cfg eadvfs.Config
				dec := json.NewDecoder(bytes.NewReader(b))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&cfg); err != nil && firstErr == nil {
					firstErr = err
				}
			}
		}
	})
	compact = perOp(n, func() {
		for k := 0; k < rounds; k++ {
			for _, b := range canon {
				microSink += float64(len(digest.Compact(b)))
			}
		}
	})
	return check, decode, compact, firstErr
}
