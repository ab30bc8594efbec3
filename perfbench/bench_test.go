package main

import (
	"encoding/json"
	"math"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"github.com/eadvfs/eadvfs/internal/spec"
)

// flip changes the lowest bit of a float64: the smallest perturbation an
// output can suffer.
func flip(f *float64) { *f = math.Float64frombits(math.Float64bits(*f) ^ 1) }

func TestPaperCheckPassesAndCatchesOneBit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full paper-figures pass")
	}
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	want := refs.Paper[strconv.FormatUint(paperExpSeed, 10)]
	outs, _, err := paperPass(paperSpec(), paperOrder(5), false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, err := outs.digests()
	if err != nil {
		t.Fatal(err)
	}
	if errs := compareDigests("paper", got, want); len(errs) > 0 {
		t.Fatalf("seed outputs fail their references: %v", errs)
	}
	crossCheckResults(t, outs)
	perturb := map[string]func(){
		"fig5":   func() { flip(&outs.Fig5[17]) },
		"fig6":   func() { flip(&outs.Fig6["ea-dvfs"][500]) },
		"fig7":   func() { flip(&outs.Fig7["lsa"][9000]) },
		"fig8":   func() { flip(&outs.Fig8.Rates["lsa"][3]) },
		"fig9":   func() { flip(&outs.Fig9.StdErr["ea-dvfs"][1]) },
		"table1": func() { flip(&outs.Table1.Ratio[2]) },
	}
	for name, f := range perturb {
		f()
		got, err := outs.digests()
		if err != nil {
			t.Fatal(err)
		}
		errs := compareDigests("paper", got, want)
		if len(errs) != 1 {
			t.Errorf("one bit flipped in %s: %d check failures, want 1: %v", name, len(errs), errs)
		}
		f() // flip back
	}
}

// crossCheckResults compares the seed-1 outputs with the artifacts
// committed under results/, an independent record of the same figures.
// fig6.csv and fig7.csv are left out: they are stale by up to 1.4e-15.
func crossCheckResults(t *testing.T, outs *paperOutputs) {
	t.Helper()
	read := func(name string) [][]float64 {
		raw, err := os.ReadFile("../results/" + name)
		if err != nil {
			t.Skipf("results/%s not readable: %v", name, err)
		}
		var rows [][]float64
		for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n")[1:] {
			var row []float64
			for _, f := range strings.Split(line, ",") {
				v, err := strconv.ParseFloat(f, 64)
				if err != nil {
					t.Fatalf("results/%s: %v", name, err)
				}
				row = append(row, v)
			}
			rows = append(rows, row)
		}
		return rows
	}
	for i, row := range read("fig5.csv") {
		if row[1] != outs.Fig5[i] {
			t.Fatalf("fig5 t=%d: results/ has %v, benchmark %v", i, row[1], outs.Fig5[i])
		}
	}
	for name, m := range map[string]missOut{"fig8.csv": outs.Fig8, "fig9.csv": outs.Fig9} {
		for i, row := range read(name) {
			if row[1] != m.Rates["lsa"][i] || row[2] != m.Rates["ea-dvfs"][i] {
				t.Fatalf("%s row %d: results/ has %v, benchmark %v %v", name, i, row, m.Rates["lsa"][i], m.Rates["ea-dvfs"][i])
			}
		}
	}
	tab := outs.Table1
	for i, row := range read("table1.csv") {
		if row[1] != tab.Mean["lsa"][i] || row[2] != tab.Mean["ea-dvfs"][i] || row[3] != tab.Ratio[i] || row[4] != tab.RatioErr[i] {
			t.Fatalf("table1 row %d: results/ has %v", i, row)
		}
	}
}

func TestLongCheckPassesAndCatchesOneBit(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	want := refs.Long[1]
	runs, err := runLongRound(longRound(1), nil)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkLongRound("long", runs, want); len(errs) > 0 {
		t.Fatalf("seed outputs fail their references: %v", errs)
	}
	flip(&runs[1].res.CPUEnergy)
	if errs := checkLongRound("long", runs, want); len(errs) != 1 {
		t.Errorf("one bit flipped: %d check failures, want 1", len(errs))
	}
}

// The traced run must produce exactly the untraced outputs.
func TestTracedOutputsEqualUntraced(t *testing.T) {
	refs, err := loadRefs()
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	runs, err := runLongRound(longRound(0), tr)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkLongRound("long traced", runs, refs.Long[0]); len(errs) > 0 {
		t.Fatal(errs)
	}
	sum, _, frames := tr.totals()
	if frames != len(runs) || sum.decide.calls == 0 || sum.predict.calls == 0 || sum.source.calls == 0 || sum.flow.calls == 0 {
		t.Errorf("decorators saw %d frames and %+v", frames, sum)
	}

	if err := registerTracedDefs(); err != nil {
		t.Fatal(err)
	}
	spec := paperSpec()
	spec.Replications = 2
	plain, _, err := paperPass(spec, nil, false, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	activeTracer.Store(newTracer())
	traced, _, err := paperPass(spec, paperOrder(3), true, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := plain.digests()
	b, _ := traced.digests()
	if !reflect.DeepEqual(a, b) {
		t.Errorf("traced paper outputs differ:\n%v\n%v", a, b)
	}
}

func TestServeCheckPassesAndCatchesOneBit(t *testing.T) {
	gen := serveGen{seed: 11}
	env, err := startServe(gen)
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	primed := env.primedRaw
	bad := append([]reply(nil), primed...)
	bad[1].raw = append([]byte(nil), bad[1].raw...)
	bad[1].raw[len(bad[1].raw)/2] ^= 1
	env.primedRaw = bad
	if env.checkPrimed() == nil {
		t.Error("priming reply perturbed: check passed")
	}
	env.primedRaw = primed
	if err := env.checkPrimed(); err != nil {
		t.Fatal(err)
	}
	tl := &tally{}
	if _, err := env.runBatches(tl, 0, 0.01, false, nil); err != nil {
		t.Fatal(err)
	}
	if len(tl.errs) > 0 || tl.failed > 0 {
		t.Fatalf("seed outputs fail: %v", tl.errs)
	}
	if tl.hit.n != serveHits || tl.miss.n != serveMisses {
		t.Fatalf("%d hits and %d misses, want %d and %d", tl.hit.n, tl.miss.n, serveHits, serveMisses)
	}

	// A hit with one bit flipped, or a wrong status, fails on arrival.
	hit := env.post(hot[3].body, false)
	for name, bad := range map[string]func(r *reply){
		"hit body": func(r *reply) { r.raw[len(r.raw)/2] ^= 1 },
		"status":   func(r *reply) { r.status = http.StatusInternalServerError },
		"x-cache":  func(r *reply) { r.cache = "miss" },
	} {
		r := hit
		r.raw = append([]byte(nil), hit.raw...)
		bad(&r)
		bt := &tally{}
		env.record(bt, slot{hot: 3}, r)
		if bt.failed != 1 {
			t.Errorf("%s perturbed: check passed", name)
		}
	}
	// A miss with one bit of its result flipped fails the direct-run check.
	mt := &tally{}
	fresh := slot{hot: -1, fresh: 1 << 20}
	env.record(mt, fresh, env.post(gen.body(fresh), false))
	if errs := env.verifyMisses(mt.misses); len(errs) != 0 || len(mt.misses) != 1 {
		t.Fatalf("unperturbed miss: %v, %d records", errs, len(mt.misses))
	}
	mt.misses[0].result[5] ^= 1
	if errs := env.verifyMisses(mt.misses); len(errs) != 1 {
		t.Errorf("miss result perturbed: %d check failures, want 1", len(errs))
	}
}

func TestFleetCheckPassesAndCatchesOneBit(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a full pass of cold and warm sweeps")
	}
	env, err := startFleet()
	if err != nil {
		t.Fatal(err)
	}
	defer env.close()
	c, err := env.coordinator(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	recs, err := fleetPass(c, fleetSpec(7), nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := fleetRefs(7)
	if err != nil {
		t.Fatal(err)
	}
	if errs := checkFleet(want, recs); len(errs) > 0 {
		t.Fatalf("seed outputs fail: %v", errs)
	}
	for i := range recs {
		bad := append([]sweepRec(nil), recs...)
		bad[i].hash[3] ^= 1
		if errs := checkFleet(want, bad); len(errs) != 1 {
			t.Errorf("sweep %d perturbed: %d check failures, want 1", i, len(errs))
		}
	}
}

func TestGeneratorsAreSeedDeterministic(t *testing.T) {
	entries := map[string]int{}
	for i, h := range hot {
		d, err := spec.Digest(h.body)
		if err != nil {
			t.Fatal(err)
		}
		if e, ok := entries[d]; ok && e != h.entry {
			t.Fatalf("hit body %d keys entry %d's digest, listed as entry %d", i, e, h.entry)
		}
		entries[d] = h.entry
	}
	if len(entries) != hotEntries {
		t.Fatalf("%d hit bodies key %d cache entries, want %d", len(hot), len(entries), hotEntries)
	}
	for _, seed := range []uint64{0, 1, 42, math.MaxUint64} {
		a, b := serveGen{seed}, serveGen{seed}
		seen := map[string]bool{}
		for n := 0; n < 2000; n++ {
			x := body(a.fresh(n))
			if string(x) != string(body(b.fresh(n))) {
				t.Fatalf("seed %d fresh %d differs between calls", seed, n)
			}
			d, err := spec.Digest(x)
			if err != nil {
				t.Fatal(err)
			}
			if _, isHot := entries[d]; seen[d] || isHot {
				t.Fatalf("seed %d fresh %d repeats an earlier digest", seed, n)
			}
			seen[d] = true
		}
		h1, m1 := a.batch(3)
		h2, m2 := b.batch(3)
		if !reflect.DeepEqual(h1, h2) || !reflect.DeepEqual(m1, m2) {
			t.Fatalf("seed %d batch differs between calls", seed)
		}
		if !reflect.DeepEqual(longOrder(seed, 4), longOrder(seed, 4)) ||
			!reflect.DeepEqual(fleetSpec(seed), fleetSpec(seed)) ||
			!reflect.DeepEqual(paperOrder(seed), paperOrder(seed)) {
			t.Fatalf("seed %d inputs differ between calls", seed)
		}
	}
	if string(body(serveGen{1}.fresh(0))) == string(body(serveGen{2}.fresh(0))) {
		t.Error("different seeds give the same stream")
	}
	if reflect.DeepEqual(fleetSpec(1), fleetSpec(2)) {
		t.Error("different seeds give the same sweep")
	}
}

// BENCHMARK.json and the code must name the same per-layer metrics.
func TestBenchmarkJSONMatchesLayerList(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not beside the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name, Why string }
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json lists %d per-layer metrics, code %d", len(b.PerLayer), len(layerMetrics))
	}
	for i, m := range layerMetrics {
		if b.PerLayer[i].Name != m.name || b.PerLayer[i].Unit != m.unit {
			t.Errorf("per_layer[%d] = %v, code has %s (%s)", i, b.PerLayer[i], m.name, m.unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json %v, code %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	var h hist
	var xs []float64
	for i := 1; i <= 1000; i++ {
		ms := 0.05 * float64(i*i%997+1)
		h.add(ms)
		xs = append(xs, ms)
	}
	sort.Float64s(xs)
	for _, q := range []float64{0.25, 0.5, 0.9, 0.99} {
		got, want := h.quantile(q), xs[int(math.Round(q*float64(len(xs)-1)))]
		if math.Abs(got-want) > 0.0051*want {
			t.Errorf("q%v: histogram %v, exact %v", q, got, want)
		}
	}
}

func TestTailPercent(t *testing.T) {
	for n, want := range map[int]float64{5: 0, 99: 0, 100: 90, 999: 90, 1000: 99, 10000: 99.9} {
		if got := tailPercent(n); got != want {
			t.Errorf("tailPercent(%d) = %v, want %v", n, got, want)
		}
	}
}
