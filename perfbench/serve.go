package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/eadvfs/eadvfs"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/rng"
	"github.com/eadvfs/eadvfs/internal/service"
	"github.com/eadvfs/eadvfs/internal/spec"
)

// serve-mix: two client goroutines, each with its own connection, post
// /v1/sim bodies to an in-process service.Server over loopback HTTP. The
// loop is closed — a client sends its next request only after the
// previous reply — because eactl and scripts wait for each reply.
//
// The bodies are the repository's own /v1/sim corpus, the six sim
// documents of testdata/specs (corpusDocs), so policies, horizons and
// features are the ones the repository pins rather than invented ones.
// A batch is two sub-batches, timed apart:
//   - serveHits requests repeat the corpus documents, each sent as
//     written (schema 1), as spec.Migrate makes it (schema 2), and as
//     schema 2 with the default DPM sleep preset, all keying entries
//     primed at set-up: cache hits;
//   - serveMisses requests are corpus documents with a fresh seed, half
//     as written and half schema 2 with a stochastic task model: cache
//     misses, the engine's share. No miss names a sleep preset: on about
//     one fresh seed in a few thousand the engine panics on one
//     (README.md, known defects), and a benchmark must not fail.
//
// wall_s is the sum of the two sub-batches' median times. The sizes are
// set so each sub-batch takes about half of it: a change that doubles
// the cost of either path moves wall_s by about half, past its bound.
const (
	serveClients = 2
	serveHits    = 972
	serveMisses  = 72
	// serveCacheEntries bounds the server's result cache, so resident
	// memory stops growing with the number of misses a run reaches.
	serveCacheEntries = 1024
	// failLatency, in seconds, is charged to a failed request: it misses
	// any latency limit.
	failLatency = 30.0
)

// corpusDocs are the sim documents of testdata/specs in compact form,
// copied so that the workload stays the same when that corpus grows.
var corpusDocs = []string{
	`{"Policy":"ea-dvfs-dynamic","Horizon":1500,"Capacity":400,"ConstantHarvest":6,"NumTasks":3,"Seed":2}`,
	`{"Policy":"ea-dvfs","Horizon":2000,"NumTasks":4,"Utilization":0.3,"Seed":7}`,
	`{"Policy":"edf","Horizon":2500,"NumTasks":4,"FaultIntensity":0.3,"FaultSeed":9,"RecordEnergy":true,"Seed":4}`,
	`{"Policy":"greedy-stretch","Predictor":"slot-ewma","Horizon":3000,"NumTasks":5,"Utilization":0.4,"CheckInvariants":true,"Seed":3}`,
	`{"Policy":"lsa","Horizon":1200,"HarvestTrace":[4.0,7.5,9.0,6.25,2.0,0.0,1.5,8.0],"NumTasks":3,"Utilization":0.25,"Seed":11}`,
	`{"Policy":"static-dvfs","Utilization":0.6,"Capacity":500,"NumTasks":4,"Horizon":1800,"Seed":5}`,
}

// corpusConfig decodes corpus document i.
func corpusConfig(i int) eadvfs.Config {
	var cfg eadvfs.Config
	if err := json.Unmarshal([]byte(corpusDocs[i]), &cfg); err != nil {
		panic(err) // a fixed, valid literal
	}
	return cfg
}

// hotConfig returns the configuration of hit cache entry e: corpus
// document e/2, with the default DPM sleep preset for odd e. The
// priming run at set-up checks that the engine completes each.
func hotConfig(e int) eadvfs.Config {
	cfg := corpusConfig(e / 2)
	if e%2 == 1 {
		cfg.Schema, cfg.Sleep = 2, "default"
	}
	return cfg
}

// hotEntry is a hit body and the cache entry it keys.
type hotEntry struct {
	body  []byte
	entry int
}

// hot lists the hit bodies: each corpus document as written, migrated
// to schema 2, and with sleep states. The first two key the same entry.
var hot = func() []hotEntry {
	var h []hotEntry
	for doc := range corpusDocs {
		raw := []byte(corpusDocs[doc])
		migrated, err := spec.Migrate(raw)
		if err != nil {
			panic(err) // a fixed, valid literal
		}
		h = append(h,
			hotEntry{raw, 2 * doc},
			hotEntry{migrated, 2 * doc},
			hotEntry{body(hotConfig(2*doc + 1)), 2*doc + 1})
	}
	return h
}()

// hotEntries is the number of cache entries the hits key.
var hotEntries = 2 * len(corpusDocs)

// primeBody is the body that first requests hit cache entry e.
func primeBody(e int) []byte {
	if e%2 == 0 {
		return []byte(corpusDocs[e/2])
	}
	return body(hotConfig(e))
}

// serveGen generates the request stream from the workload seed.
type serveGen struct{ seed uint64 }

// fresh returns the n-th fresh configuration: corpus document n mod 6
// with a seed drawn for n, as written or with a stochastic task model,
// by turns. No two share a digest.
func (g serveGen) fresh(n int) eadvfs.Config {
	cfg := corpusConfig(n % len(corpusDocs))
	cfg.Seed = rng.New(g.seed).Child(uint64(n)).Uint64()
	if n/len(corpusDocs)%2 == 1 {
		cfg.Schema, cfg.TaskModel = 2, "stochastic-periodic"
	}
	return cfg
}

// slot is one request of a batch: a hit body index, or a fresh index.
type slot struct {
	hot   int // -1 for a fresh request
	fresh int
}

// batch returns the hit and the miss sub-batch of batch b, each in a
// seeded order.
func (g serveGen) batch(b int) (hits, misses []slot) {
	r := rng.New(g.seed).Child(1<<40 + uint64(b))
	for i := 0; i < serveHits; i++ {
		hits = append(hits, slot{hot: i % len(hot)})
	}
	for i := 0; i < serveMisses; i++ {
		misses = append(misses, slot{hot: -1, fresh: b*serveMisses + i})
	}
	rng.Shuffle(r, hits)
	rng.Shuffle(r, misses)
	return hits, misses
}

func (g serveGen) body(s slot) []byte {
	if s.hot >= 0 {
		return hot[s.hot].body
	}
	return body(g.fresh(s.fresh))
}

func body(cfg eadvfs.Config) []byte {
	b, err := json.Marshal(cfg)
	if err != nil {
		panic(err) // a Config always marshals
	}
	return b
}

// reply is one response as the client received it.
type reply struct {
	ms     float64 // client latency
	status int
	cache  string // X-Cache header
	raw    []byte
	spans  []obs.Span
}

// missRec is what the client keeps of a miss until its direct-run check
// after the timed region.
type missRec struct {
	fresh  int
	result [32]byte // SHA-256 of the result member
}

// tally is what the clients keep of a run. Hits are checked as they
// arrive, misses after each batch; what remains is two histograms, so
// client memory stays small and constant beside the server's.
type tally struct {
	mu        sync.Mutex
	hit       hist
	miss      hist
	misses    []missRec // the current batch's, until checked
	failed    int
	errs      []error
	handlerUs []float64          // traced: the server's request span, hits
	phaseS    map[string]float64 // traced: span seconds by name
}

func (t *tally) note(err error) {
	if len(t.errs) < 20 {
		t.errs = append(t.errs, err)
	}
}

// serveEnv is a listening server and its clients.
type serveEnv struct {
	gen       serveGen
	srv       *service.Server
	hs        *http.Server
	url       string
	client    *http.Client
	primed    [][32]byte // SHA-256 of the first reply for each hit cache entry
	primedRaw []reply    // the first replies, until checkPrimed
}

func startServe(gen serveGen) (*serveEnv, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	e := &serveEnv{
		gen: gen,
		srv: service.New(service.Options{CacheEntries: serveCacheEntries}),
		url: "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: serveClients,
			MaxConnsPerHost:     serveClients,
			DisableCompression:  true,
		}},
	}
	e.hs = &http.Server{Handler: e.srv.Handler()}
	go e.hs.Serve(ln)
	// Prime the hit entries. Their first replies are the references
	// every later hit must repeat byte for byte; checkPrimed checks them.
	for i := 0; i < hotEntries; i++ {
		r := e.post(primeBody(i), false)
		if r.status != http.StatusOK {
			e.close()
			return nil, fmt.Errorf("priming hit entry %d: status %d", i, r.status)
		}
		e.primed = append(e.primed, sha256.Sum256(r.raw))
		e.primedRaw = append(e.primedRaw, r)
	}
	return e, nil
}

// checkPrimed checks each priming reply against a direct run. It is the
// benchmark's own work, so it runs after the timed set-up.
func (e *serveEnv) checkPrimed() error {
	for i, r := range e.primedRaw {
		if err := checkResult(r, hotConfig(i)); err != nil {
			return fmt.Errorf("priming hit entry %d: %w", i, err)
		}
	}
	e.primedRaw = nil
	return nil
}

func (e *serveEnv) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = e.hs.Shutdown(ctx) // idle keep-alive connections only; nothing to report
	e.client.CloseIdleConnections()
}

// post sends one body and returns the reply; status 0 means the request
// itself failed.
func (e *serveEnv) post(b []byte, traced bool) reply {
	var r reply
	req, err := http.NewRequest(http.MethodPost, e.url+"/v1/sim", bytes.NewReader(b))
	if err != nil {
		return r
	}
	req.Header.Set("Content-Type", "application/json")
	if traced {
		req.Header.Set("traceparent", obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID(), Sampled: true}.Traceparent())
	}
	t0 := time.Now()
	resp, err := e.client.Do(req)
	if err == nil {
		r.raw, err = io.ReadAll(resp.Body)
		resp.Body.Close()
	}
	r.ms = float64(time.Since(t0).Nanoseconds()) / 1e6
	if err != nil {
		return r
	}
	r.status = resp.StatusCode
	r.cache = resp.Header.Get("X-Cache")
	if traced {
		r.spans, _ = obs.DecodeSpanHeader(resp.Header.Get(obs.SpanHeader))
	}
	return r
}

// resultOf extracts the result member of a /v1/sim reply.
func resultOf(raw []byte) ([]byte, error) {
	var env struct {
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &env); err != nil {
		return nil, err
	}
	return env.Result, nil
}

// directResult is json.Marshal of a direct eadvfs.Run of cfg.
func directResult(cfg eadvfs.Config) ([]byte, error) {
	res, err := eadvfs.Run(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(res)
}

// checkResult checks a 200 reply's result against a direct run.
func checkResult(r reply, cfg eadvfs.Config) error {
	if r.status != http.StatusOK {
		return fmt.Errorf("status %d", r.status)
	}
	got, err := resultOf(r.raw)
	if err != nil {
		return err
	}
	want, err := directResult(cfg)
	if err != nil {
		return err
	}
	if !bytes.Equal(got, want) {
		return errors.New("result differs from a direct eadvfs.Run")
	}
	return nil
}

// record checks one reply as far as it can be checked on arrival and
// keeps the rest. A hit must be byte-identical to the first reply for its
// configuration; a miss keeps its result hash for the direct-run check.
func (e *serveEnv) record(t *tally, s slot, r reply) {
	err := func() error {
		want := "miss"
		if s.hot >= 0 {
			want = "hit"
		}
		switch {
		case r.status != http.StatusOK:
			return fmt.Errorf("status %d", r.status)
		case r.cache != want:
			return fmt.Errorf("X-Cache %q, want %q", r.cache, want)
		case s.hot >= 0 && sha256.Sum256(r.raw) != e.primed[hot[s.hot].entry]:
			return errors.New("hit differs from the first reply for its digest")
		}
		return nil
	}()
	var rec missRec
	if err == nil && s.hot < 0 {
		var res []byte
		if res, err = resultOf(r.raw); err == nil {
			rec = missRec{fresh: s.fresh, result: sha256.Sum256(res)}
		}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := r.ms
	if err != nil {
		t.failed++
		t.note(fmt.Errorf("serve-mix %+v: %w", s, err))
		ms = failLatency * 1000
	}
	if s.hot >= 0 {
		t.hit.add(ms)
	} else {
		t.miss.add(ms)
		if err == nil {
			t.misses = append(t.misses, rec)
		}
	}
	for _, sp := range r.spans {
		t.phaseS[sp.Name] += sp.Duration.Seconds()
		if sp.Name == "request:sim" && s.hot >= 0 {
			t.handlerUs = append(t.handlerUs, float64(sp.Duration.Nanoseconds())/1e3)
		}
	}
}

// batchTimes are the wall times, in seconds, of each batch's hit and
// miss sub-batches.
type batchTimes struct{ hits, misses []float64 }

// wall is a typical batch: the median hit sub-batch plus the median miss
// sub-batch.
func (b batchTimes) wall() float64 { return median(b.hits) + median(b.misses) }

// runBatches drives batches from, from+1, … through the clients until
// the time budget is spent and returns each sub-batch's wall time.
// Between batches, outside their timing, it checks the batch's misses
// against direct runs and then calls after, when set.
func (e *serveEnv) runBatches(t *tally, from int, seconds float64, traced bool, after func()) (batchTimes, error) {
	var bt batchTimes
	between := func() {
		for _, err := range e.verifyMisses(t.misses) {
			t.note(err)
		}
		t.misses = t.misses[:0]
		if after != nil {
			after()
		}
	}
	_, err := passLoop(seconds, func(i int) error {
		hits, misses := e.gen.batch(from + i)
		bt.hits = append(bt.hits, e.drive(t, hits, traced))
		bt.misses = append(bt.misses, e.drive(t, misses, traced))
		return nil
	}, between)
	return bt, err
}

// drive sends the slots' requests through the clients and returns the
// seconds until the last reply.
func (e *serveEnv) drive(t *tally, slots []slot, traced bool) float64 {
	bodies := make([][]byte, len(slots))
	for j, s := range slots {
		bodies[j] = e.gen.body(s)
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	t0 := time.Now()
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(slots) {
					return
				}
				e.record(t, slots[j], e.post(bodies[j], traced))
			}
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}

// verifyMisses checks every miss's result against json.Marshal of a
// direct eadvfs.Run.
func (e *serveEnv) verifyMisses(misses []missRec) []error {
	var errs []error
	var mu sync.Mutex
	var next atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				j := int(next.Add(1)) - 1
				if j >= len(misses) {
					return
				}
				m := misses[j]
				want, err := directResult(e.gen.fresh(m.fresh))
				if err == nil && sha256.Sum256(want) != m.result {
					err = errors.New("result differs from a direct eadvfs.Run")
				}
				if err != nil {
					mu.Lock()
					if len(errs) < 20 {
						errs = append(errs, fmt.Errorf("serve-mix fresh %d: %w", m.fresh, err))
					}
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return errs
}

func runServe(o opts) (*outcome, error) {
	gen := serveGen{seed: o.seed}
	env, setupTimes, err := repeatSetup(setupReps, func() (*serveEnv, error) { return startServe(gen) }, (*serveEnv).close)
	if err != nil {
		return nil, err
	}
	defer env.close()
	if err := env.checkPrimed(); err != nil {
		return nil, err
	}
	out := &outcome{setup: setupTimes, extra: map[string]any{}}

	// Peak heap: the live heap after a forced collection between
	// batches, when the server holds its cache and idle pools; the
	// sampled live heap is reported beside it.
	t := &tally{}
	var retained retainedPeak
	heap := startHeapSampler()
	bt, err := env.runBatches(t, 0, o.seconds, false, retained.collect)
	out.extra["sampled_peak_heap_mb"] = heap.Stop() / (1 << 20)
	out.peakHeap = float64(retained)
	if err != nil {
		return nil, err
	}
	out.wall = bt.wall()
	for i := range bt.hits {
		out.passes = append(out.passes, bt.hits[i]+bt.misses[i])
	}
	n := t.hit.n + t.miss.n
	elapsed := 0.0
	for _, b := range out.passes {
		elapsed += b
	}
	reqPerS := float64(n) / elapsed
	failRatio := float64(t.failed) / float64(n)
	out.attempted, out.failed = n, t.failed
	out.extra["req_per_s"] = reqPerS
	out.extra["hit_batch_s"] = summarize(bt.hits)
	out.extra["miss_batch_s"] = summarize(bt.misses)
	out.extra["hit_ms"] = t.hit.dist()
	out.extra["miss_ms"] = t.miss.dist()
	out.extra["fail_ratio"] = failRatio
	reg := env.srv.Registry()
	counter := func(outcome string) float64 {
		return reg.Counter(obs.Labeled("easerve_cache_requests_total", "outcome", outcome), "").Value()
	}
	hits, misses, joins := counter("hit"), counter("miss"), counter("join")
	engineRuns := reg.Counter("easerve_engine_runs_total", "").Value()
	rejected := reg.Counter(obs.Labeled("easerve_rejected_total", "reason", "overload"), "").Value() +
		reg.Counter(obs.Labeled("easerve_rejected_total", "reason", "draining"), "").Value()

	var tt *tally
	var traced batchTimes
	if o.trace {
		// Traced half: fresh batches, every request carrying traceparent.
		tt = &tally{phaseS: map[string]float64{}}
		traced, err = env.runBatches(tt, len(out.passes), o.seconds/2, true, nil)
		if err != nil {
			return nil, err
		}
		out.attempted += tt.hit.n + tt.miss.n
		out.failed += tt.failed
		t.errs = append(t.errs, tt.errs...)
	}
	for _, e := range t.errs {
		out.check(e)
	}
	if !o.trace {
		return out, nil
	}

	l := newLayers()
	l.set("service.cache_hits", hits)
	l.set("service.cache_misses", misses)
	l.set("service.cache_joins", joins)
	if hits+joins+misses > 0 {
		l.set("service.hit_ratio", (hits+joins)/(hits+joins+misses))
	}
	l.set("service.engine_runs", engineRuns)
	l.set("service.rejected", rejected)
	out.extra["traced_span_s"] = tt.phaseS
	l.set("service.handler_hit_us", median(tt.handlerUs))
	l.set("serve.req_per_s", reqPerS)
	l.set("serve.hit_p50_ms", t.hit.quantile(0.5))
	l.set("serve.hit_p99_ms", t.hit.quantile(0.99))
	l.set("serve.miss_p50_ms", t.miss.quantile(0.5))
	l.set("serve.miss_p99_ms", t.miss.quantile(0.99))
	l.set("serve.fail_ratio", failRatio)
	l.set("trace.overhead_ratio", traced.wall()/out.wall-1)
	if err := micro(o.seed, l); err != nil {
		return nil, err
	}
	out.layers = l
	return out, nil
}
