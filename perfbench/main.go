// Command perfbench is the repository benchmark: four workloads that
// exercise the simulator the way its users do (the paper's figure
// harness, long single runs, the HTTP service, the sweep fabric), each
// checked against a reference before any of its numbers count.
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 the last stdout line carries the end-to-end metrics,
// measured with nothing decorated. With --trace 1 the same workload is
// run once untraced and once with timing decorators around the layer
// interfaces, and the last line carries the per-layer split plus the
// tracing overhead. The line before it is a full report: the
// environment record, sample counts, percentiles and every
// workload-specific figure. README.md documents the metrics.
//
// --record rewrites refs.json, the reference digests of the seed-pinned
// workloads; it is a maintenance command, never part of a measured run.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

// workload is one named traffic mix.
type workload struct {
	name string
	why  string
	run  func(o opts) (*outcome, error)
}

var workloads = []workload{
	{"paper-figures", "the researcher's path: eaexp -exp all at 40 replications; experiment runner, warm-start bisection and the engine do all the work", runPaper},
	{"long-horizon", "single 1e6-unit engine runs on distinct task sets, one with DPM sleep states: per-event engine cost and horizon-sized memory", runLong},
	{"serve-mix", "2 closed-loop HTTP clients posting the repo's /v1/sim corpus; hits (spec, digest, cache) and engine misses timed apart", runServe},
	{"fleet-sweep", "fabric coordinator over 2 loopback workers: each sweep cold, then 12 times warm; the only load on transport and merge", runFleet},
}

// opts are the command-line settings of one run.
type opts struct {
	seed    uint64
	seconds float64
	trace   bool
}

// outcome is what a workload hands back: the end-to-end figures of the
// untraced measurement, the layer split of the traced one (nil when
// --trace 0), the check verdicts and the full report.
type outcome struct {
	setup     []float64 // seconds per set-up repetition
	passes    []float64 // seconds per pass of the fixed unit of work
	wall      float64   // wall_s when a workload defines it otherwise than median(passes)
	peakHeap  float64   // bytes
	attempted int
	failed    int
	checkErrs []error
	layers    map[string]metric
	extra     map[string]any // workload-specific report entries
}

func (o *outcome) check(err error) {
	if err != nil {
		o.checkErrs = append(o.checkErrs, err)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", 10, "measured run length in seconds")
		trace   = flag.Int("trace", 0, "1 runs the traced layer split instead of the end-to-end measurement")
		record  = flag.Bool("record", false, "recompute refs.json from the current code and exit")
	)
	flag.Parse()
	if *record {
		if err := recordRefs("refs.json"); err != nil {
			fatal(err)
		}
		return
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *name))
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fatal(errors.New("--seconds must be positive and --trace 0 or 1"))
	}
	o := opts{seed: *seed, seconds: *seconds, trace: *trace == 1}
	out, err := w.run(o)
	if err != nil {
		fatal(fmt.Errorf("%s: %w", w.name, err))
	}
	for _, e := range out.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench %s: check failed: %v\n", w.name, e)
	}

	res := result{
		Correct:   len(out.checkErrs) == 0 && out.failed == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   endToEnd(out),
	}
	if o.trace {
		res.Metrics = out.layers
	}
	rep := map[string]any{
		"workload":    w.name,
		"why":         w.why,
		"environment": environment(o),
		"setup_s":     summarize(out.setup),
		"pass_s":      summarize(out.passes),
		"checks":      errStrings(out.checkErrs),
		"metrics":     res.Metrics,
	}
	for k, v := range out.extra {
		rep[k] = v
	}
	printJSON(map[string]any{"report": rep})
	printJSON(res)
}

// endToEnd derives the gated metrics every workload reports.
func endToEnd(out *outcome) map[string]metric {
	wall := out.wall
	if wall == 0 {
		wall = median(out.passes)
	}
	return map[string]metric{
		"setup_s":      {median(out.setup), "s"},
		"wall_s":       {wall, "s"},
		"peak_heap_mb": {out.peakHeap / (1 << 20), "MB"},
	}
}

// environment is the record every report carries, so figures from
// different machines or settings are never compared blind.
func environment(o opts) map[string]any {
	return map[string]any{
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"seed":       o.seed,
		"seconds":    o.seconds,
		"trace":      o.trace,
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

func errStrings(errs []error) []string {
	out := make([]string, 0, len(errs))
	for _, e := range errs {
		out = append(out, e.Error())
	}
	return out
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(b))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}
