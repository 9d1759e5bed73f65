package main

import (
	"math"
	"math/big"
)

// metricDef declares one metric the harness prints. BENCHMARK.json lists
// the same names, units, directions and bounds; the smoke test holds the
// two together.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // end-to-end only
}

// endToEnd are the gated metrics, each defined by one formula on every
// workload: the timings reduced over the passes of a run by better, the
// flows taken over every job of every pass. Two of the issue's eight are
// not among them, because they do not repeat between runs of unchanged
// code, and are per-layer numbers instead: the 90th percentile of the
// request latency spread 11–25% on http-open (trace.request_p90_ms, beside
// the p95 and p99), and the CPU time per job depends on whether the box's
// second core is free for the Go runtime's idle GC workers and spinning
// threads — 1.1 to 1.9 ms on one replay-sla input at one wall time
// (trace.cpu_ms_per_job). A third is replaced: the peak resident set is an
// extreme value of GC pacing and spread 16% on offline-exact
// (trace.rss_peak_mb), so the gate has mem_held_mb, the memory the runtime
// holds when a pass returns, median over the passes, which spread 7%.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"jobs_per_s", "jobs/s", "higher", 0.25},
	{"request_p50_ms", "ms", "lower", 0.25},
	{"flow_mean_s", "s", "lower", 0.25},
	{"wflow_max", "s", "lower", 0.25},
	{"mem_held_mb", "MB", "lower", 0.25},
}

// flowWindow is the number of consecutively accepted jobs whose largest
// weighted flow makes one wflow_max sample on the stream workloads (on
// offline-exact a window is one instance). The maximum over a whole stream
// is an extreme value that grows with the stream's length; the median
// window maximum is the same objective as a steady-state figure.
const flowWindow = 50

// better is the reduction of a timing over the passes of a run: the decile
// on the metric's good side (the first for a time, the ninth for a rate).
// Interference on a shared box only ever slows a pass down, so the good end of
// fifteen or so short passes repeats far better than their median or their
// total — and the decile, unlike the single best pass, does not hang on one
// fluke — while a real regression slows every pass and moves the decile
// with it. Only clock readings are reduced this way: the flows are exact
// and are taken over every job of every pass.
func better(xs []float64, higher bool) float64 {
	if higher {
		return percentile(xs, 90)
	}
	return percentile(xs, 10)
}

// endToEndValues reduces the passes of one run to the gated metrics.
func endToEndValues(setups []float64, passes []*passResult) map[string]float64 {
	var rate, p50, held, windows []float64
	flowSum, flowN := new(big.Rat), 0
	for _, p := range passes {
		rate = append(rate, float64(p.jobs)/p.wall.Seconds())
		p50 = append(p50, percentile(p.requests, 50))
		held = append(held, p.held)
		flowSum.Add(flowSum, p.flowSum)
		flowN += p.flowN
		for _, w := range p.windows {
			windows = append(windows, ratFloat(w))
		}
	}
	return map[string]float64{
		"setup_s":        median(setups),
		"jobs_per_s":     better(rate, true),
		"request_p50_ms": better(p50, false),
		"flow_mean_s":    ratFloat(flowSum.Quo(flowSum, big.NewRat(int64(flowN), 1))),
		"wflow_max":      median(windows),
		"mem_held_mb":    median(held),
	}
}

// medianRate is the jobs per second of the median pass.
func medianRate(passes []*passResult) float64 {
	var rate []float64
	for _, p := range passes {
		rate = append(rate, float64(p.jobs)/p.wall.Seconds())
	}
	return median(rate)
}

// finite reports whether every value is a finite number.
func finite(vals map[string]float64) bool {
	for _, v := range vals {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}
