package main

import (
	"runtime/metrics"
	"time"
)

// layerMetrics lists every per-layer metric in BENCHMARK.json order.
// Every traced run reports all of them; a layer a workload does not
// exercise reports 0 (README.md says which).
var layerMetrics = []struct{ name, unit string }{
	{"experiment.fig5_s", "s"},
	{"experiment.remaining_s", "s"},
	{"experiment.missrate_s", "s"},
	{"experiment.mincap_s", "s"},
	{"experiment.runs", "count"},
	{"experiment.runs_per_s", "1/s"},
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.run_ms_p50", "ms"},
	{"sim.alloc_mb_per_run", "MB"},
	{"sim.allocs_per_run", "count"},
	{"sim.self_s", "s"},
	{"sim.dpm_defect_repro", "count"},
	{"task.jobs_released", "count"},
	{"policy.decide_calls", "count"},
	{"policy.decide_s", "s"},
	{"policy.share", "ratio"},
	{"core.compute_plan_ns", "ns"},
	{"energy.predict_calls", "count"},
	{"energy.predict_s", "s"},
	{"energy.source_calls", "count"},
	{"energy.source_s", "s"},
	{"storage.flow_calls", "count"},
	{"storage.flow_s", "s"},
	{"des.schedule_dispatch_ns", "ns"},
	{"spec.checkwire_us", "us"},
	{"spec.decode_us", "us"},
	{"digest.compact_us", "us"},
	{"service.cache_hits", "count"},
	{"service.cache_misses", "count"},
	{"service.cache_joins", "count"},
	{"service.hit_ratio", "ratio"},
	{"service.engine_runs", "count"},
	{"service.rejected", "count"},
	{"service.handler_hit_us", "us"},
	{"fabric.attempts", "count"},
	{"fabric.retries", "count"},
	{"fabric.hedges", "count"},
	{"fabric.useful_ratio", "ratio"},
	{"fabric.transport_s", "s"},
	{"fabric.bytes_in", "MB"},
	{"fabric.merge_s", "s"},
	{"serve.req_per_s", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p99_ms", "ms"},
	{"serve.fail_ratio", "ratio"},
	{"fleet.cold_sweep_s", "s"},
	{"fleet.warm_sweep_s", "s"},
	{"trace.timer_ns", "ns"},
	{"trace.overhead_ratio", "ratio"},
}

// layers is a traced run's per-layer report under construction.
type layers map[string]metric

func newLayers() layers {
	l := make(layers, len(layerMetrics))
	for _, m := range layerMetrics {
		l[m.name] = metric{0, m.unit}
	}
	return l
}

// set records a value; names outside layerMetrics are a programming
// error the self-test catches.
func (l layers) set(name string, v float64) {
	m, ok := l[name]
	if !ok {
		panic("perfbench: unlisted layer metric " + name)
	}
	m.Value = v
	l[name] = m
}

// setEngine fills the engine-layer split from a tracer's frames. busy is
// the engine's wall time across runs, the decorators' own clock cost
// included.
func (l layers) setEngine(t *tracer, busy time.Duration) {
	sum, _, _ := t.totals()
	sampled := sum.decide.sampled + sum.predict.sampled + sum.source.sampled + sum.flow.sampled
	// The engine's own time: busy less the clock reads the decorators
	// added and less the decorated layers.
	clean := busy.Seconds() - float64(sampled*t.calibNs)/1e9
	decide := sum.decide.estimate() / 1e9
	predict := sum.predict.estimate() / 1e9
	source := sum.source.estimate() / 1e9
	flow := sum.flow.estimate() / 1e9
	l.set("policy.decide_calls", float64(sum.decide.calls))
	l.set("policy.decide_s", decide)
	if clean > 0 {
		l.set("policy.share", decide/clean)
	}
	l.set("energy.predict_calls", float64(sum.predict.calls))
	l.set("energy.predict_s", predict)
	l.set("energy.source_calls", float64(sum.source.calls))
	l.set("energy.source_s", source)
	l.set("storage.flow_calls", float64(sum.flow.calls))
	l.set("storage.flow_s", flow)
	l.set("sim.self_s", clean-decide-predict-source-flow)
	l.set("trace.timer_ns", float64(t.calibNs))
}

// allocs reads the process-wide cumulative heap allocation counters.
func allocs() (bytes, objects uint64) {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/heap/allocs:objects"}}
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64()
}
