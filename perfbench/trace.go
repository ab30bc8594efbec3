package main

import (
	"context"
	"sync"
	"time"

	"github.com/eadvfs/eadvfs/internal/energy"
	"github.com/eadvfs/eadvfs/internal/fabric"
	"github.com/eadvfs/eadvfs/internal/sched"
	"github.com/eadvfs/eadvfs/internal/storage"
)

// The traced run wraps the interfaces the engine and the coordinator
// accept — sched.Policy, energy.Predictor, energy.Source,
// storage.Reservoir and fabric.Transport — in decorators that count
// calls and time them. Nothing inside the program is edited: the
// decorators reach the engine through sim.Config, through registry
// factories (for the experiment runners) and through fabric.Options.
//
// A timed call costs two clock reads, which on a cheap call like
// Source.PowerAt is several times the call itself. So the decorators
// count every call but time one in sampleEvery; a layer's time is the
// sampled time scaled by calls over samples. calibrate measures the
// cost of timing an empty call, and every sample subtracts it, so a
// layer's time is the time spent in the wrapped code alone.
const sampleEvery = 16

// stat is one layer's tally: every call counted, some timed.
type stat struct {
	calls   int64
	sampled int64
	ns      int64 // sum over sampled calls
}

func (s *stat) add(o stat) {
	s.calls += o.calls
	s.sampled += o.sampled
	s.ns += o.ns
}

// estimate is the layer's total time in ns, scaled up from its samples.
func (s stat) estimate() float64 {
	if s.sampled == 0 {
		return 0
	}
	return float64(s.ns) * float64(s.calls) / float64(s.sampled)
}

// frame is the tally of one engine run. The engine is single-goroutine
// per run and every decorator of a run shares its frame, so frames need
// no locking while the run is live.
type frame struct {
	start, last time.Time
	decide      stat // exclusive: nested predictor time removed
	predict     stat // Observe + PredictEnergy
	source      stat
	flow        stat
	outside     int64 // predictor calls made outside Decide
	inDecide    bool  // a timed Decide is in progress
	nestedNs    int64
}

// tracer collects frames from every run of a traced pass.
type tracer struct {
	calibNs int64
	mu      sync.Mutex
	frames  []*frame
}

func newTracer() *tracer { return &tracer{calibNs: calibrate()} }

func (t *tracer) newFrame() *frame {
	f := &frame{start: time.Now()}
	t.mu.Lock()
	t.frames = append(t.frames, f)
	t.mu.Unlock()
	return f
}

// totals sums every frame; busy is the sum of first-to-last-sample spans.
func (t *tracer) totals() (sum frame, busy time.Duration, runs int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, f := range t.frames {
		sum.decide.add(f.decide)
		sum.predict.add(f.predict)
		sum.source.add(f.source)
		sum.flow.add(f.flow)
		if f.last.After(f.start) {
			busy += f.last.Sub(f.start)
		}
	}
	return sum, busy, len(t.frames)
}

// runMedianMs is the median first-to-last-sample span of the traced runs.
func (t *tracer) runMedianMs() float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	ms := make([]float64, 0, len(t.frames))
	for _, f := range t.frames {
		ms = append(ms, float64(f.last.Sub(f.start).Nanoseconds())/1e6)
	}
	return median(ms)
}

// elapsed returns the time since t0 less the calibrated clock cost and
// marks the frame's latest activity.
func (t *tracer) elapsed(t0 time.Time, f *frame) int64 {
	now := time.Now()
	f.last = now
	d := now.Sub(t0).Nanoseconds() - t.calibNs
	if d < 0 {
		d = 0
	}
	return d
}

// calibrate returns the smallest observed cost, in ns, of one timed empty
// call through the same bookkeeping the decorators use.
func calibrate() int64 {
	probe := &tracer{}
	f := &frame{}
	best := int64(1 << 62)
	for round := 0; round < 5; round++ {
		const n = 100000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			c0 := time.Now()
			f.source.sampled++
			f.source.ns += probe.elapsed(c0, f)
		}
		if per := time.Since(t0).Nanoseconds() / n; per < best {
			best = per
		}
	}
	return best
}

// tracedPolicy times Decide, excluding the predictor calls the policy
// makes from inside it.
type tracedPolicy struct {
	inner sched.Policy
	t     *tracer
	f     *frame
}

func (p *tracedPolicy) Name() string { return p.inner.Name() }

func (p *tracedPolicy) Decide(ctx *sched.Context) sched.Decision {
	if p.f == nil {
		// Share the run's frame with its predictor, which the engine
		// hands over in the context.
		if tp, ok := ctx.Predictor.(*tracedPredictor); ok {
			p.f = tp.f
		} else {
			p.f = p.t.newFrame()
		}
	}
	f := p.f
	f.decide.calls++
	if f.decide.calls%sampleEvery != 0 {
		return p.inner.Decide(ctx)
	}
	f.inDecide, f.nestedNs = true, 0
	t0 := time.Now()
	d := p.inner.Decide(ctx)
	ns := p.t.elapsed(t0, f) - f.nestedNs
	f.inDecide = false
	if ns < 0 {
		ns = 0
	}
	f.decide.sampled++
	f.decide.ns += ns
	return d
}

// tracedPredictor samples its calls at the same rate inside and outside
// Decide: inside, exactly when the enclosing Decide is timed, so the
// policy's exclusive time can subtract them; outside, on its own count.
type tracedPredictor struct {
	inner energy.Predictor
	t     *tracer
	f     *frame
}

func (p *tracedPredictor) Name() string { return p.inner.Name() }

func (p *tracedPredictor) Observe(t, pw float64) {
	if !p.timed() {
		p.inner.Observe(t, pw)
		return
	}
	t0 := time.Now()
	p.inner.Observe(t, pw)
	p.note(p.t.elapsed(t0, p.f))
}

func (p *tracedPredictor) PredictEnergy(t1, t2 float64) float64 {
	if !p.timed() {
		return p.inner.PredictEnergy(t1, t2)
	}
	t0 := time.Now()
	v := p.inner.PredictEnergy(t1, t2)
	p.note(p.t.elapsed(t0, p.f))
	return v
}

func (p *tracedPredictor) timed() bool {
	f := p.f
	f.predict.calls++
	if f.inDecide {
		return true
	}
	f.outside++
	return f.outside%sampleEvery == 0
}

func (p *tracedPredictor) note(ns int64) {
	f := p.f
	f.predict.sampled++
	f.predict.ns += ns
	if f.inDecide {
		f.nestedNs += ns + p.t.calibNs
	}
}

// sample reports whether the call just counted in s is one to time.
func sample(s *stat) bool {
	s.calls++
	return s.calls%sampleEvery == 0
}

// tracedSource keeps the Cumulative fast path of sources that have it:
// dropping it would change which integration code runs.
type tracedSource struct {
	inner energy.Source
	t     *tracer
	f     *frame
}

func (s *tracedSource) PowerAt(t float64) float64 {
	if !sample(&s.f.source) {
		return s.inner.PowerAt(t)
	}
	t0 := time.Now()
	v := s.inner.PowerAt(t)
	s.f.source.sampled++
	s.f.source.ns += s.t.elapsed(t0, s.f)
	return v
}

func (s *tracedSource) MeanPower() float64 { return s.inner.MeanPower() }
func (s *tracedSource) Name() string       { return s.inner.Name() }

type tracedCumulativeSource struct {
	tracedSource
	cum energy.Cumulative
}

func (s *tracedCumulativeSource) CumulativeEnergy(t float64) float64 {
	if !sample(&s.f.source) {
		return s.cum.CumulativeEnergy(t)
	}
	t0 := time.Now()
	v := s.cum.CumulativeEnergy(t)
	s.f.source.sampled++
	s.f.source.ns += s.t.elapsed(t0, s.f)
	return v
}

func traceSource(src energy.Source, t *tracer, f *frame) energy.Source {
	ts := tracedSource{inner: src, t: t, f: f}
	if c, ok := src.(energy.Cumulative); ok {
		return &tracedCumulativeSource{tracedSource: ts, cum: c}
	}
	return &ts
}

// tracedStore times Flow, the per-segment energy integration step; the
// other reservoir methods pass straight through.
type tracedStore struct {
	storage.Reservoir
	t *tracer
	f *frame
}

func (s *tracedStore) Flow(ps, pc, dt float64) (float64, float64) {
	if !sample(&s.f.flow) {
		return s.Reservoir.Flow(ps, pc, dt)
	}
	t0 := time.Now()
	d, o := s.Reservoir.Flow(ps, pc, dt)
	s.f.flow.sampled++
	s.f.flow.ns += s.t.elapsed(t0, s.f)
	return d, o
}

// tracedTransport counts and times shard attempts and the bytes they
// bring back.
type tracedTransport struct {
	inner fabric.Transport
	calib int64

	mu       sync.Mutex
	attempts int64
	ns       int64
	bytesIn  int64
	maxNs    int64 // longest attempt since the last takeMax
}

func (t *tracedTransport) Do(ctx context.Context, worker string, body []byte) (*fabric.Envelope, error) {
	t0 := time.Now()
	env, err := t.inner.Do(ctx, worker, body)
	ns := time.Since(t0).Nanoseconds() - t.calib
	t.mu.Lock()
	t.attempts++
	t.ns += ns
	if ns > t.maxNs {
		t.maxNs = ns
	}
	if err == nil {
		t.bytesIn += int64(len(env.Result))
	}
	t.mu.Unlock()
	return env, err
}

func (t *tracedTransport) Healthy(ctx context.Context, worker string) error {
	return t.inner.Healthy(ctx, worker)
}

// takeMax returns and resets the longest attempt: with one shard per
// worker the shards run side by side, so the longest attempt of a sweep
// is its transport critical path.
func (t *tracedTransport) takeMax() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	m := t.maxNs
	t.maxNs = 0
	return time.Duration(m)
}
