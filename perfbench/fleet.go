package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"time"

	"github.com/eadvfs/eadvfs/internal/experiment"
	"github.com/eadvfs/eadvfs/internal/fabric"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
)

// fleet-sweep: a fabric.Coordinator with the HTTP transport over two
// in-process service.Server workers on loopback, one shard per worker
// (eactl -shards-per-worker 1), so at most two shard requests are in
// flight. A pass starts fresh workers and runs, for kinds missrate and
// remaining, the seed's sweep once cold and then fleetWarm times warm,
// served from the workers' caches.
//
// wall_s is the median cold sweep plus the median warm group, summed
// over the kinds. A warm sweep is fabric work — transport, shard JSON
// decode, merge — and a warm remaining sweep costs about a fifth of a
// cold one, which is engine work; a warm missrate sweep costs almost
// nothing. Repeated fleetWarm times, the warm sweeps carry about half
// of wall_s, so a change that doubles the cost of either path moves
// wall_s by about half.
const (
	fleetWorkers = 2
	fleetReps    = 40
	fleetWarm    = 12
)

var (
	fleetKinds    = []string{"missrate", "remaining"}
	fleetPolicies = []string{"lsa", "ea-dvfs"}
)

func fleetSpec(seed uint64) experiment.Spec {
	s := experiment.DefaultSpec()
	s.Replications = fleetReps
	s.Seed = rng.New(seed).Uint64()
	return service.NormalizeSpec(s)
}

type fleetEnv struct {
	servers []*http.Server
	urls    []string
	client  *http.Client
}

func startFleet() (*fleetEnv, error) {
	e := &fleetEnv{client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2}}}
	for i := 0; i < fleetWorkers; i++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			e.close()
			return nil, err
		}
		w := service.New(service.Options{})
		hs := &http.Server{Handler: w.Handler()}
		go hs.Serve(ln)
		e.servers = append(e.servers, hs)
		e.urls = append(e.urls, "http://"+ln.Addr().String())
	}
	// Warm-up: one small sweep of each kind opens the connections and
	// the workers' arena pools.
	c, err := e.coordinator(nil, nil)
	if err != nil {
		e.close()
		return nil, err
	}
	for _, kind := range fleetKinds {
		s := fleetSpec(0)
		s.Replications = 2
		if _, err := c.RunSweep(context.Background(), kind, s, fleetPolicies); err != nil {
			e.close()
			return nil, err
		}
	}
	return e, nil
}

// coordinator builds a coordinator over the workers. Hedging is off: a
// hedge fires on a wall-clock threshold, which would make the work done
// depend on machine load.
func (e *fleetEnv) coordinator(tt *tracedTransport, reg *obs.Registry) (*fabric.Coordinator, error) {
	var transport fabric.Transport = &fabric.HTTPTransport{Client: e.client}
	if tt != nil {
		tt.inner = transport
		transport = tt
	}
	return fabric.New(fabric.Options{
		Workers:         e.urls,
		Transport:       transport,
		ShardsPerWorker: 1,
		HedgeAfter:      -1,
		Registry:        reg,
	})
}

func (e *fleetEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for _, hs := range e.servers {
		_ = hs.Shutdown(ctx) // idle keep-alive connections only; nothing to report
	}
	e.client.CloseIdleConnections()
}

// sweepRec is one sweep's record: its merged output hash, for checking
// after the timed region.
type sweepRec struct {
	kind string
	rep  int // 0 for the cold sweep, 1… for the warm ones
	wall float64
	hash [32]byte
}

func mergedHash(r *fabric.SweepResult) ([32]byte, error) {
	var v any = r.Merged.MissRate
	if r.Kind == "remaining" {
		v = r.Merged.Remaining
	}
	b, err := json.Marshal(v)
	return sha256.Sum256(b), err
}

// fleetPass runs every kind's cold sweep and its warm repeats;
// onSweep, when set, runs after each sweep, outside its timing.
func fleetPass(c *fabric.Coordinator, spec experiment.Spec, onSweep func(sweepRec)) ([]sweepRec, error) {
	var recs []sweepRec
	for _, kind := range fleetKinds {
		for rep := 0; rep <= fleetWarm; rep++ {
			t0 := time.Now()
			r, err := c.RunSweep(context.Background(), kind, spec, fleetPolicies)
			wall := time.Since(t0)
			if err != nil {
				return nil, fmt.Errorf("%s sweep %d: %w", kind, rep, err)
			}
			h, err := mergedHash(r)
			if err != nil {
				return nil, err
			}
			rec := sweepRec{kind: kind, rep: rep, wall: wall.Seconds(), hash: h}
			if onSweep != nil {
				onSweep(rec)
			}
			recs = append(recs, rec)
		}
	}
	return recs, nil
}

// fleetRefs computes each kind's reference: the hash of the in-process
// experiment result for the seed's spec.
func fleetRefs(seed uint64) (map[string][32]byte, error) {
	want := map[string][32]byte{}
	spec := fleetSpec(seed)
	for _, kind := range fleetKinds {
		var v any
		var err error
		if kind == "missrate" {
			v, err = experiment.MissRateSweep(spec, fleetPolicies)
		} else {
			v, err = experiment.RemainingEnergy(spec, fleetPolicies)
		}
		if err != nil {
			return nil, err
		}
		b, err := json.Marshal(v)
		if err != nil {
			return nil, err
		}
		want[kind] = sha256.Sum256(b)
	}
	return want, nil
}

// checkFleet checks each merged sweep, cold and warm, against its
// kind's reference.
func checkFleet(want map[string][32]byte, recs []sweepRec) []error {
	var errs []error
	for _, r := range recs {
		if r.hash != want[r.kind] {
			errs = append(errs, fmt.Errorf("fleet-sweep: %s sweep %d: merged sweep differs from the in-process result", r.kind, r.rep))
		}
	}
	return errs
}

func runFleet(o opts) (*outcome, error) {
	env, setupTimes, err := repeatSetup(setupReps, startFleet, (*fleetEnv).close)
	if err != nil {
		return nil, err
	}
	defer func() { env.close() }()
	out := &outcome{setup: setupTimes, extra: map[string]any{}}
	spec := fleetSpec(o.seed)

	// Peak heap: the live heap after a forced collection at the end of
	// each kind's cold sweep and of its last warm one, when the workers'
	// caches and the coordinator hold the sweep's shards. The sampled
	// live heap, which also sees transient decode buffers at whatever
	// moment a GC happens to run, is reported beside it. Collections
	// run between sweeps, outside their timing.
	var recs []sweepRec
	var retained retainedPeak
	collect := func(r sweepRec) {
		if r.rep == 0 || r.rep == fleetWarm {
			retained.collect()
		}
	}
	heap := startHeapSampler()
	_, err = passLoop(o.seconds, func(i int) error {
		if i > 0 {
			// Fresh workers for every pass, outside the sweep timings:
			// the cold sweeps are cold again, and what the caches retain
			// does not depend on how many passes ran before.
			env.close()
			var err error
			if env, err = startFleet(); err != nil {
				return err
			}
		}
		c, err := env.coordinator(nil, nil)
		if err != nil {
			return err
		}
		r, err := fleetPass(c, spec, collect)
		recs = append(recs, r...)
		return err
	}, nil)
	out.extra["sampled_peak_heap_mb"] = heap.Stop() / (1 << 20)
	out.peakHeap = float64(retained)
	if err != nil {
		return nil, err
	}
	// wall_s: each kind's median cold sweep and median warm group, over
	// the passes, summed, so one pass slowed by outside load does not
	// move it.
	perPass := len(fleetKinds) * (fleetWarm + 1)
	cold := map[string][]float64{}
	warmGroup := map[string][]float64{}
	var coldAll, warmAll []float64
	for p := 0; p+perPass <= len(recs); p += perPass {
		group := map[string]float64{}
		pass := 0.0
		for _, r := range recs[p : p+perPass] {
			pass += r.wall
			if r.rep == 0 {
				cold[r.kind] = append(cold[r.kind], r.wall)
				coldAll = append(coldAll, r.wall)
			} else {
				group[r.kind] += r.wall
				warmAll = append(warmAll, r.wall)
			}
		}
		for k, s := range group {
			warmGroup[k] = append(warmGroup[k], s)
		}
		out.passes = append(out.passes, pass)
	}
	for _, k := range fleetKinds {
		out.wall += median(cold[k]) + median(warmGroup[k])
	}
	out.attempted = len(recs)
	out.extra["cold_sweep_s"] = summarize(coldAll)
	out.extra["warm_sweep_s"] = summarize(warmAll)
	out.extra["fail_ratio"] = 0.0

	var l layers
	if o.trace {
		// Traced pass: fresh workers, a decorated transport.
		env.close()
		if env, err = startFleet(); err != nil {
			return nil, err
		}
		tt := &tracedTransport{calib: calibrate()}
		reg := obs.NewRegistry()
		tc, err := env.coordinator(tt, reg)
		if err != nil {
			return nil, err
		}
		var critical time.Duration
		var sweepWall float64
		tr, err := fleetPass(tc, spec, func(r sweepRec) {
			sweepWall += r.wall
			critical += tt.takeMax()
		})
		if err != nil {
			return nil, err
		}
		recs = append(recs, tr...)
		out.attempted += len(tr)

		l = newLayers()
		attempts := float64(tt.attempts)
		ok := reg.Counter(obs.Labeled("fabric_shards_total", "outcome", "ok"), "").Value()
		l.set("fabric.attempts", attempts)
		l.set("fabric.retries", reg.Counter("fabric_retries_total", "").Value())
		l.set("fabric.hedges", reg.Counter("fabric_hedges_total", "").Value())
		if attempts > 0 {
			l.set("fabric.useful_ratio", ok/attempts)
		}
		l.set("fabric.transport_s", float64(tt.ns)/1e9)
		l.set("fabric.bytes_in", float64(tt.bytesIn)/(1<<20))
		l.set("fabric.merge_s", sweepWall-critical.Seconds())
		l.set("fleet.cold_sweep_s", median(coldAll))
		l.set("fleet.warm_sweep_s", median(warmAll))
		l.set("trace.timer_ns", float64(tt.calib))
		l.set("trace.overhead_ratio", sweepWall/median(out.passes)-1)
		if err := micro(o.seed, l); err != nil {
			return nil, err
		}
	}
	want, err := fleetRefs(o.seed)
	if err != nil {
		return nil, err
	}
	for _, e := range checkFleet(want, recs) {
		out.check(e)
	}
	out.layers = l
	return out, nil
}
