package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"time"
)

// median returns the middle of xs (mean of the two middles for even
// lengths), or 0 for none.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// tailPercent is the highest of p90, p99 and p99.9 that leaves at least
// ten samples beyond it, or 0 when even p90 does not.
func tailPercent(n int) float64 {
	best := 0.0
	for _, p := range []float64{90, 99, 99.9} {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// dist is a timing distribution as reports carry it: the median, the
// tail percentile with at least ten samples beyond it, and the count.
type dist struct {
	N        int        `json:"n"`
	P50      float64    `json:"p50"`
	TailPct  float64    `json:"tail_pct,omitempty"`
	Tail     float64    `json:"tail,omitempty"`
	Min      float64    `json:"min"`
	Max      float64    `json:"max"`
	Quartile [2]float64 `json:"quartiles"`
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.P50 = median(xs)
	d.Min = quantile(xs, 0)
	d.Max = quantile(xs, 1)
	d.Quartile = [2]float64{quantile(xs, 0.25), quantile(xs, 0.75)}
	if p := tailPercent(len(xs)); p > 0 {
		d.TailPct = p
		d.Tail = quantile(xs, p/100)
	}
	return d
}

// hist is a latency histogram in milliseconds, with buckets 0.5% wide
// on a log scale from 1 µs to about 100 s. Its memory is constant however
// many samples a run takes, so a faster build, which takes more, does not
// show a larger heap; quantiles are accurate to 0.25%.
type hist struct {
	counts   []uint64
	n        int
	min, max float64
}

const (
	histLo      = 1e-3 // ms
	histStep    = 1.005
	histBuckets = 3700
)

func (h *hist) add(ms float64) {
	if h.counts == nil {
		h.counts = make([]uint64, histBuckets)
		h.min = ms
	}
	i := int(math.Log(math.Max(ms, histLo)/histLo) / math.Log(histStep))
	h.counts[min(i, histBuckets-1)]++
	h.n++
	h.min, h.max = math.Min(h.min, ms), math.Max(h.max, ms)
}

// quantile returns the geometric middle of the bucket holding the
// q-quantile sample.
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := uint64(math.Round(q * float64(h.n-1)))
	var seen uint64
	for i, c := range h.counts {
		if seen += c; seen > rank {
			return histLo * math.Pow(histStep, float64(i)+0.5)
		}
	}
	return h.max
}

func (h *hist) dist() dist {
	d := dist{N: h.n, Min: h.min, Max: h.max}
	if h.n == 0 {
		return d
	}
	d.P50 = h.quantile(0.5)
	d.Quartile = [2]float64{h.quantile(0.25), h.quantile(0.75)}
	if p := tailPercent(h.n); p > 0 {
		d.TailPct = p
		d.Tail = h.quantile(p / 100)
	}
	return d
}

// passLoop runs pass(i) until the next pass would end past the budget,
// always at least once, and returns each pass's wall time in seconds.
// after, when set, runs after each pass, outside its timing.
func passLoop(seconds float64, pass func(i int) error, after func()) ([]float64, error) {
	var times []float64
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 && time.Since(start).Seconds()+median(times) > seconds {
			return times, nil
		}
		t0 := time.Now()
		if err := pass(i); err != nil {
			return times, err
		}
		times = append(times, time.Since(t0).Seconds())
		if after != nil {
			after()
		}
	}
}

// retainedPeak tracks the largest live heap read right after forced
// collections. Read at the end of a unit of work, that is the memory the
// program retains across units, free of when the runtime's own
// collections happened to run. The second collection empties the
// sync.Pool victim caches: an idle pooled arena's size depends on which
// run used it last, not on what the program retains.
type retainedPeak float64

func (p *retainedPeak) collect() {
	runtime.GC()
	runtime.GC()
	*p = retainedPeak(math.Max(float64(*p), float64(liveHeap())))
}

// setupReps is how many times a workload sets up; setup_s is the
// median. A single set-up lasts a tenth of a second or so, too short to
// time steadily.
const setupReps = 11

// repeatSetup runs setup n times, keeping the environment of the last
// and closing the others, and returns the per-repetition wall times: a
// single set-up is too short to time steadily.
func repeatSetup[T any](n int, setup func() (T, error), closeFn func(T)) (T, []float64, error) {
	var env T
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		e, err := setup()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(t0).Seconds())
		if i < n-1 {
			closeFn(e)
		} else {
			env = e
		}
	}
	return env, times, nil
}

// heapSampler tracks the peak live Go heap (bytes marked reachable at
// the end of each GC cycle) while it runs.
type heapSampler struct {
	stop chan struct{}
	done chan uint64
}

const liveHeapMetric = "/gc/heap/live:bytes"

func liveHeap() uint64 {
	s := []metrics.Sample{{Name: liveHeapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		peak := liveHeap()
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				if v := liveHeap(); v > peak {
					peak = v
				}
				h.done <- peak
				return
			case <-tick.C:
				if v := liveHeap(); v > peak {
					peak = v
				}
			}
		}
	}()
	return h
}

// Stop ends sampling and returns the peak in bytes.
func (h *heapSampler) Stop() float64 {
	close(h.stop)
	return float64(<-h.done)
}
