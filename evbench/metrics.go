package main

import (
	"math"

	"github.com/everest-project/everest/internal/simclock"
)

// metricDef names one metric and its unit. The lists below are exactly
// the end_to_end and per_layer lists of BENCHMARK.json.
type metricDef struct {
	Name, Unit string
}

// An operation is a video answered (oneshot), a query (serve, shared) or
// an Append call (stream). Frames answered are the frames of the video an
// answer covers; queries answered are videos for oneshot and follower
// answers delivered for stream.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"frames_per_s", "1/s"},
	{"queries_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_tail_ms", "ms"},
	{"alloc_bytes_per_frame", "B"},
	{"alloc_bytes_per_query", "B"},
	{"peak_rss_mb", "MB"},
	{"sim_ms_per_frame", "ms"},
	{"sim_ms_per_query", "ms"},
	{"precision", "ratio"},
}

var perLayer = append([]metricDef{
	{"video.renders_per_frame", "count/frame"},
	{"video.render_s", "s/op"},
	{"phase1.label_s", "s/op"},
	{"phase1.featurize_s", "s/op"},
	{"cmdn.train_s", "s/op"},
	{"diffdet.run_s", "s/op"},
	{"diffdet.retained_ratio", "ratio"},
	{"engine.d0_infer_s", "s/op"},
	{"engine.relation_s", "s/op"},
	{"engine.execute_s", "s/op"},
	{"core.topk_s", "s/op"},
	{"core.examined_per_query", "count/query"},
	{"core.cleaned_per_query", "count/query"},
	{"core.iterations_per_query", "count/query"},
	{"core.pruned_ratio", "ratio"},
	{"vision.oracle_frames_per_op.phase1", "count/op"},
	{"vision.oracle_frames_per_op.phase2", "count/op"},
	{"vision.oracle_s.phase1", "s/op"},
	{"vision.oracle_s.phase2", "s/op"},
	{"labelstore.cached_labels_mean", "count"},
	{"oraclemux.consolidation", "ratio"},
	{"oraclemux.launches", "count/query"},
	{"durable.wal_bytes_per_query", "B/query"},
	{"stream.append_s", "s/op"},
	{"stream.close_s", "s/close"},
	{"stream.warm_ratio", "ratio"},
	{"stream.wasted_label_ratio", "ratio"},
	{"runtime.gc_cycles_per_op", "count/op"},
	{"trace.overhead_ratio", "ratio"},
	{"trace.fidelity_ops", "count"},
}, simclockMetrics()...)

// simclockMetrics names a simulated-ms-per-operation metric for each
// pipeline phase: "phase1/train-cmdn" becomes
// "simclock.phase1.train-cmdn_ms_per_op".
func simclockMetrics() []metricDef {
	out := make([]metricDef, len(pipelinePhases))
	for i, ph := range pipelinePhases {
		out[i] = metricDef{simclockName(ph), "ms/op"}
	}
	return out
}

func simclockName(ph simclock.Phase) string {
	b := []byte(ph)
	for i, c := range b {
		if c == '/' {
			b[i] = '.'
		}
	}
	return "simclock." + string(b) + "_ms_per_op"
}

// endToEndMetrics computes the end-to-end metrics of an untraced pass.
func endToEndMetrics(p *passResult, setupS, precision, peakRSSMB float64, lat latencySummary) map[string]float64 {
	framesPerS, queriesPerS := p.rates()
	return map[string]float64{
		"setup_s":               setupS,
		"frames_per_s":          framesPerS,
		"queries_per_s":         queriesPerS,
		"latency_p50_ms":        lat.P50,
		"latency_tail_ms":       lat.Tail,
		"alloc_bytes_per_frame": float64(p.alloc) / p.frames,
		"alloc_bytes_per_query": per(float64(p.alloc), p.queries),
		"peak_rss_mb":           peakRSSMB,
		"sim_ms_per_frame":      p.simMS / p.frames,
		"sim_ms_per_query":      per(p.simMS, p.queries),
		"precision":             precision,
	}
}

// perLayerMetrics computes the per-layer metrics of a traced pass from
// its spans, the wrappers' counters and the workload's own counters;
// untraced is the untraced pass over the same inputs, for the tracing
// overhead. A layer the workload does not reach reads 0.
func perLayerMetrics(p, untraced *passResult, agg map[string]spanAgg, lc *layerCounters, fidelityOps int) map[string]float64 {
	ops := p.attempted
	spanS := func(name string) float64 { return per(agg[name].TotalS, ops) }
	m := map[string]float64{
		"video.renders_per_frame":            float64(lc.render.calls.Load()) / p.frames,
		"video.render_s":                     per(lc.render.seconds(), ops),
		"phase1.label_s":                     spanS("phase1.label"),
		"phase1.featurize_s":                 spanS("phase1.featurize"),
		"cmdn.train_s":                       spanS("cmdn.train"),
		"diffdet.run_s":                      spanS("diffdet.assemble"),
		"engine.d0_infer_s":                  spanS("engine.capture"),
		"engine.relation_s":                  per(agg["engine.relation"].TotalS, agg["engine.relation"].Count),
		"engine.execute_s":                   spanS("engine.execute"),
		"core.examined_per_query":            per(float64(p.engine.Examined), p.engineN),
		"core.cleaned_per_query":             per(float64(p.engine.Cleaned), p.engineN),
		"core.iterations_per_query":          per(float64(p.engine.Iterations), p.engineN),
		"core.pruned_ratio":                  per(float64(p.engine.Pruned), p.engine.Pruned+p.engine.Examined),
		"vision.oracle_frames_per_op.phase1": per(float64(lc.oracle[phaseLabel].items.Load()), ops),
		"vision.oracle_frames_per_op.phase2": per(float64(lc.oracle[phaseConfirm].items.Load()), ops),
		"vision.oracle_s.phase1":             per(lc.oracle[phaseLabel].seconds(), ops),
		"vision.oracle_s.phase2":             per(lc.oracle[phaseConfirm].seconds(), ops),
		"labelstore.cached_labels_mean":      per(p.cachedLabels, p.cachedN),
		"stream.append_s":                    per(agg["stream.append"].TotalS+agg["stream.close"].TotalS, agg["stream.append"].Count+agg["stream.close"].Count),
		"stream.close_s":                     per(agg["stream.close"].TotalS, agg["stream.close"].Count),
		"runtime.gc_cycles_per_op":           per(float64(p.gcs), ops),
		"trace.overhead_ratio":               (float64(untraced.attempted)/untraced.wall.Seconds())/(float64(ops)/p.wall.Seconds()) - 1,
		"trace.fidelity_ops":                 float64(fidelityOps),
	}
	if exec := m["engine.execute_s"]; exec > 0 {
		m["core.topk_s"] = exec - m["engine.relation_s"] - m["vision.oracle_s.phase2"]
	}
	for _, ph := range pipelinePhases {
		m[simclockName(ph)] = per(p.phases[ph], ops)
	}
	for k, v := range p.layer {
		m[k] = v
	}
	for _, d := range perLayer {
		if _, ok := m[d.Name]; !ok {
			m[d.Name] = 0
		}
	}
	return m
}

func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }
