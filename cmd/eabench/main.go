// Command eabench runs the repository's canonical benchmark workloads
// (internal/bench — the same cases `go test -bench` runs) with a
// self-contained measurement loop and emits both:
//
//   - Go benchmark format on stdout (benchstat-compatible), and
//   - a machine-readable JSON report (-json), the format of the checked-in
//     BENCH_baseline.json at the repo root.
//
// Each case runs one untimed warm-up iteration (filling the sim arena
// pools, solar tables and caches a first run builds), then reports ns/op,
// allocs/op, B/op and the experiment's shape metrics (missrate/*,
// energy/*, ratio/*, …) of the timed iterations. The shape metrics are the
// regression guard: an "optimization" that moves them changed the science,
// not just the speed. See DESIGN.md §9 for the regeneration workflow.
//
// Usage:
//
//	eabench [-bench regexp] [-run regexp] [-count 1] [-benchtime 1]
//	        [-json out.json] [-check baseline.json] [-check-perf=true]
//	        [-manifest-out manifest.json]
//	        [-cpuprofile cpu.out] [-memprofile mem.out] [-version]
//
// -run is a second case filter ANDed with -bench (mirroring `go test`'s
// flag pair), so scripts can pin a sub-selection without clobbering a
// caller-supplied -bench.
//
// -check compares the run against a baseline JSON report, prints a delta
// line per compared case (current/baseline ratios for ns/op, allocs/op and
// B/op), and fails when a case regresses: allocs/op beyond baseline×1.15+2
// (the hot-path allocation guard — a probe-free run must stay
// allocation-free), ns/op beyond baseline×2.5 (a loose wall-clock tripwire
// that tolerates CI machine noise but catches order-of-magnitude
// slowdowns), or any shape metric whose bits differ from the baseline's
// (metrics are seed-deterministic; any drift means the science changed).
// The report records GOMAXPROCS and the CPU count; -check warns (without
// failing) when they differ from the baseline's, since the experiment
// runner's parallelism, and with it the per-worker arena warm-up, follows
// GOMAXPROCS.
// -check-perf=false skips the two perf bounds but keeps the bit-exact
// metric comparison — the mode CI uses under the race detector, where
// wall-clock and allocation counts are meaningless but the shape metrics
// must still be identical.
// -manifest-out records the build and measurement parameters.
//
// Examples:
//
//	eabench -count 5 | tee new.txt && benchstat old.txt new.txt
//	eabench -json BENCH_baseline.json
//	eabench -check BENCH_baseline.json
//	eabench -run 'Table1|RunMany' -check BENCH_baseline.json -check-perf=false
//	eabench -bench Engine -benchtime 20 -cpuprofile cpu.out
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"regexp"
	"runtime"
	"sort"
	"time"

	"github.com/eadvfs/eadvfs/internal/bench"
	"github.com/eadvfs/eadvfs/internal/buildinfo"
	"github.com/eadvfs/eadvfs/internal/obs"
	"github.com/eadvfs/eadvfs/internal/profiling"
)

// caseReport is one measurement of one case (the JSON schema).
type caseReport struct {
	Name       string             `json:"name"`
	Iterations int                `json:"iterations"`
	NsPerOp    float64            `json:"ns_per_op"`
	AllocsOp   float64            `json:"allocs_per_op"`
	BytesOp    float64            `json:"bytes_per_op"`
	Metrics    map[string]float64 `json:"metrics"`
}

type report struct {
	GoVersion string `json:"go_version"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	// GOMAXPROCS and NumCPU describe the measuring machine; omitted from
	// reports written before they were recorded.
	GOMAXPROCS int          `json:"gomaxprocs,omitempty"`
	NumCPU     int          `json:"num_cpu,omitempty"`
	Count      int          `json:"count"`
	Benchtime  int          `json:"benchtime_iterations"`
	Cases      []caseReport `json:"cases"`
}

func main() {
	var (
		benchRe     = flag.String("bench", ".", "regexp selecting which cases to run")
		runRe       = flag.String("run", "", "additional case filter ANDed with -bench (empty = no extra filter)")
		count       = flag.Int("count", 1, "measurements per case (use >1 for benchstat input)")
		benchtime   = flag.Int("benchtime", 1, "iterations per measurement (fixed, not adaptive: the workloads are deterministic)")
		jsonPath    = flag.String("json", "", "write the JSON report (last measurement per case) to this file")
		cpuprofile  = flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
		memprofile  = flag.String("memprofile", "", "write an allocation profile taken after the run to this file")
		checkPath   = flag.String("check", "", "compare against this baseline JSON report and fail on regressions")
		checkPerf   = flag.Bool("check-perf", true, "enforce the ns/op and allocs/op bounds during -check (disable under -race, where both are meaningless; shape metrics are always compared)")
		manifestOut = flag.String("manifest-out", "", "write the benchmark manifest (build, measurement parameters) to this file")
		version     = flag.Bool("version", false, "print the build version and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Line("eabench"))
		return
	}

	re, err := regexp.Compile(*benchRe)
	if err != nil {
		fatalf("eabench: bad -bench regexp: %v", err)
	}
	var runFilter *regexp.Regexp
	if *runRe != "" {
		if runFilter, err = regexp.Compile(*runRe); err != nil {
			fatalf("eabench: bad -run regexp: %v", err)
		}
	}
	if *count < 1 || *benchtime < 1 {
		fatalf("eabench: -count and -benchtime must be >= 1")
	}

	stopCPU, err := profiling.StartCPU(*cpuprofile)
	if err != nil {
		fatalf("eabench: %v", err)
	}
	defer stopCPU()

	rep := report{
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
		Count:      *count,
		Benchtime:  *benchtime,
	}

	// Header lines benchstat uses to group results.
	fmt.Printf("goos: %s\ngoarch: %s\npkg: github.com/eadvfs/eadvfs/internal/bench\n", rep.GOOS, rep.GOARCH)

	ran := 0
	for _, c := range bench.Cases() {
		if !re.MatchString(c.Name) || (runFilter != nil && !runFilter.MatchString(c.Name)) {
			continue
		}
		ran++
		if _, err := c.Run(1); err != nil {
			fatalf("eabench: %s: warm-up: %v", c.Name, err)
		}
		var last caseReport
		for m := 0; m < *count; m++ {
			r, err := measure(c, *benchtime)
			if err != nil {
				fatalf("eabench: %s: %v", c.Name, err)
			}
			printGoBench(r)
			last = r
		}
		rep.Cases = append(rep.Cases, last)
	}
	if ran == 0 {
		if *runRe != "" {
			fatalf("eabench: no cases match -bench %q AND -run %q", *benchRe, *runRe)
		}
		fatalf("eabench: no cases match -bench %q", *benchRe)
	}

	if *jsonPath != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			fatalf("eabench: %v", err)
		}
		buf = append(buf, '\n')
		if err := os.WriteFile(*jsonPath, buf, 0o644); err != nil {
			fatalf("eabench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "eabench: wrote %s\n", *jsonPath)
	}

	if *manifestOut != "" {
		m, err := obs.NewManifest("eabench", "", nil, struct {
			Bench     string `json:"bench"`
			Count     int    `json:"count"`
			Benchtime int    `json:"benchtime"`
		}{*benchRe, *count, *benchtime})
		if err != nil {
			fatalf("eabench: %v", err)
		}
		if err := m.WriteFile(*manifestOut); err != nil {
			fatalf("eabench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "eabench: wrote %s\n", *manifestOut)
	}

	if err := profiling.WriteHeap(*memprofile); err != nil {
		fatalf("eabench: %v", err)
	}

	if *checkPath != "" {
		if err := checkAgainst(*checkPath, rep, *checkPerf); err != nil {
			fatalf("eabench: %v", err)
		}
		fmt.Fprintf(os.Stderr, "eabench: no regressions against %s\n", *checkPath)
	}
}

// Regression thresholds for -check. Allocations are near-deterministic,
// so the bound is tight: the probe-free hot path must stay (close to)
// allocation-free, and +15%+2 only absorbs runtime bookkeeping jitter.
// Wall-clock varies wildly across CI machines, so its bound is a loose
// tripwire for order-of-magnitude slowdowns, not a performance SLO.
const (
	allocSlackFactor = 1.15
	allocSlackConst  = 2.0
	nsSlackFactor    = 2.5
)

// checkAgainst compares this run's cases with a baseline report (the
// -json schema, e.g. the checked-in BENCH_baseline.json). Every compared
// case gets a delta line on stderr — current/baseline ratios for ns/op,
// allocs/op and B/op — whether or not it regressed, so a passing CI log
// still shows where the time went. All failures are collected and
// reported, not just the first.
//
// Perf bounds (allocSlackFactor/nsSlackFactor) apply only when perf is
// true; shape metrics present in both reports are always compared
// bit-exactly (math.Float64bits — the JSON float64 round-trip is exact, so
// equality is well-defined). Cases or metrics present in only one report
// are skipped: the baseline may predate a new workload, and -bench/-run
// may have filtered this run.
func checkAgainst(path string, cur report, perf bool) error {
	buf, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var base report
	if err := json.Unmarshal(buf, &base); err != nil {
		return fmt.Errorf("%s: %v", path, err)
	}
	switch {
	case base.GOMAXPROCS == 0 || base.NumCPU == 0:
		fmt.Fprintf(os.Stderr, "eabench: warning: %s does not record gomaxprocs/num_cpu (this run: %d/%d)\n",
			path, cur.GOMAXPROCS, cur.NumCPU)
	case base.GOMAXPROCS != cur.GOMAXPROCS || base.NumCPU != cur.NumCPU:
		fmt.Fprintf(os.Stderr, "eabench: warning: gomaxprocs/num_cpu %d/%d differ from the baseline's %d/%d\n",
			cur.GOMAXPROCS, cur.NumCPU, base.GOMAXPROCS, base.NumCPU)
	}
	baseline := make(map[string]caseReport, len(base.Cases))
	for _, c := range base.Cases {
		baseline[c.Name] = c
	}
	var failures []string
	compared := 0
	for _, c := range cur.Cases {
		b, ok := baseline[c.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "eabench: delta: %s: not in baseline, skipped\n", c.Name)
			continue
		}
		compared++
		note := ""
		if c.Iterations != b.Iterations {
			note = fmt.Sprintf(" [iterations %d vs baseline %d — per-op amortization differs]",
				c.Iterations, b.Iterations)
		}
		fmt.Fprintf(os.Stderr, "eabench: delta: %s: ns/op %.2fx, allocs/op %.2fx, B/op %.2fx%s\n",
			c.Name, ratio(c.NsPerOp, b.NsPerOp), ratio(c.AllocsOp, b.AllocsOp),
			ratio(c.BytesOp, b.BytesOp), note)
		if perf {
			if limit := b.AllocsOp*allocSlackFactor + allocSlackConst; c.AllocsOp > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: allocs/op %.1f exceeds baseline %.1f (limit %.1f)",
					c.Name, c.AllocsOp, b.AllocsOp, limit))
			}
			if limit := b.NsPerOp * nsSlackFactor; c.NsPerOp > limit {
				failures = append(failures, fmt.Sprintf(
					"%s: ns/op %.0f exceeds baseline %.0f (limit %.0f)",
					c.Name, c.NsPerOp, b.NsPerOp, limit))
			}
		}
		units := make([]string, 0, len(b.Metrics))
		for u := range b.Metrics {
			units = append(units, u)
		}
		sort.Strings(units)
		for _, u := range units {
			want := b.Metrics[u]
			got, ok := c.Metrics[u]
			if !ok {
				failures = append(failures, fmt.Sprintf(
					"%s: metric %s missing (baseline %g)", c.Name, u, want))
				continue
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				failures = append(failures, fmt.Sprintf(
					"%s: metric %s drifted: %v != baseline %v (bits %016x != %016x)",
					c.Name, u, got, want, math.Float64bits(got), math.Float64bits(want)))
			}
		}
	}
	if compared == 0 {
		return fmt.Errorf("%s: no cases in common with this run", path)
	}
	if len(failures) > 0 {
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "eabench: regression: %s\n", f)
		}
		return fmt.Errorf("%d regression(s) against %s", len(failures), path)
	}
	return nil
}

// ratio guards cur/base against a zero baseline (0/0 reads as parity).
func ratio(cur, base float64) float64 {
	if base == 0 {
		if cur == 0 {
			return 1
		}
		return math.Inf(1)
	}
	return cur / base
}

// measure runs one case for n iterations between two ReadMemStats
// snapshots. testing.Benchmark would adapt b.N toward a time budget; a
// fixed iteration count keeps runs short and — because every workload is
// seed-deterministic — still exactly reproducible.
func measure(c bench.Case, n int) (caseReport, error) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	metrics, err := c.Run(n)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if err != nil {
		return caseReport{}, err
	}
	return caseReport{
		Name:       c.Name,
		Iterations: n,
		NsPerOp:    float64(elapsed.Nanoseconds()) / float64(n),
		AllocsOp:   float64(after.Mallocs-before.Mallocs) / float64(n),
		BytesOp:    float64(after.TotalAlloc-before.TotalAlloc) / float64(n),
		Metrics:    metrics,
	}, nil
}

// printGoBench emits one measurement in Go benchmark format, shape
// metrics included, so benchstat can diff any of them across runs.
func printGoBench(r caseReport) {
	fmt.Printf("Benchmark%s %8d %12.0f ns/op %12.0f B/op %9.0f allocs/op",
		r.Name, r.Iterations, r.NsPerOp, r.BytesOp, r.AllocsOp)
	units := make([]string, 0, len(r.Metrics))
	for u := range r.Metrics {
		units = append(units, u)
	}
	sort.Strings(units)
	for _, u := range units {
		fmt.Printf(" %g %s", r.Metrics[u], u)
	}
	fmt.Println()
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, format+"\n", args...)
	os.Exit(1)
}
