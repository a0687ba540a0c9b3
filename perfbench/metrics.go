package main

import (
	"math"
	"sort"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names,
// units and directions; TestMetricTableMatchesBenchmarkJSON keeps the two in
// step.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the batch CLI or the daemon sees. Every
// workload reports every one of them in an untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"throughput_kgates_s", "kgates/s", "higher"},
	{"e2e_p50_ms", "ms", "lower"},
	{"e2e_tail_ms", "ms", "lower"},
	{"miss_p50_ms", "ms", "lower"},
	{"hit_p50_ms", "ms", "lower"},
	{"peak_heap_mb", "MB", "lower"},
	{"fully_found_pct", "%", "higher"},
	{"not_found_pct", "%", "lower"},
	{"fragmentation_rate", "ratio", "lower"},
	{"ops_ok_share", "share", "higher"},
}

// perLayer are the traced run's metrics, one layer (module) each. A layer a
// workload does not reach reports 0: the workload spends no time there.
var perLayer = []metricDef{
	{"verilog.parse_ms", "ms", "lower"},
	{"verilog.parse_mb_s", "MB/s", "higher"},
	{"verilog.alloc_mb", "MB", "lower"},
	{"netlist.fingerprint_ms", "ms", "lower"},
	{"group.adjacent_ms", "ms", "lower"},
	{"group.count", "count", "lower"},
	{"core.identify_ms", "ms", "lower"},
	{"core.group_ms", "ms", "lower"},
	{"core.match_ms", "ms", "lower"},
	{"core.ctrlsig_ms", "ms", "lower"},
	{"core.trial_ms", "ms", "lower"},
	{"core.verify_ms", "ms", "lower"},
	{"core.unattributed_ms", "ms", "lower"},
	{"core.trials", "count", "lower"},
	{"core.distinct_assignments", "count", "lower"},
	{"core.trial_repeat_share", "share", "lower"},
	{"core.trial_yield", "words/trial", "higher"},
	{"reduce.apply_us", "us", "lower"},
	{"reduce.gate_visits", "count", "lower"},
	{"eqcheck.cones_proved", "count", "higher"},
	{"eqcheck.sat_conflicts", "count", "lower"},
	{"metrics.evaluate_ms", "ms", "lower"},
	{"report.encode_ms", "ms", "lower"},
	{"report.bytes", "bytes", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.done_wait_ms", "ms", "lower"},
	{"service.fetch_ms", "ms", "lower"},
	{"service.cache_hit_ratio", "ratio", "higher"},
	{"service.coalesced", "count", "higher"},
	{"service.pipeline_runs", "count", "lower"},
	{"service.jobs_shed", "count", "lower"},
	{"service.jobs_rejected", "count", "lower"},
	{"service.job_latency_ewma_ms", "ms", "lower"},
	{"journal.bytes_per_job", "bytes", "lower"},
	{"journal.replay_ms", "ms", "lower"},
	{"journal.replayed_jobs", "count", "higher"},
	{"loadgen.late_p99_ms", "ms", "lower"},
	{"runtime.gc_cpu_share", "share", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

// metricValue is one entry of the result line's "metrics" object.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line the benchmark prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// fill returns the metrics object for defs, taking values from vals. A name
// missing from vals is a bug in the benchmark, reported by the caller.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, []string) {
	out := make(map[string]metricValue, len(defs))
	var missing []string
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			missing = append(missing, d.Name)
			continue
		}
		out[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return out, missing
}

// percentile returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p% of the samples
// at or below it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p50 estimates the median as the mean of the samples ranked between the
// 45th and 55th percentiles (the middle one or two when there are fewer
// than 20). Batch pools mix designs whose latencies form separate clusters,
// and with equal numbers on each side the plain median falls in the gap
// between two clusters, where it jumps between their edges from run to run;
// the window mean moves smoothly instead.
func p50(xs []float64) float64 {
	n := len(xs)
	if n < 20 {
		return median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	lo, hi := int(math.Floor(0.45*float64(n))), int(math.Ceil(0.55*float64(n)))
	return mean(s[lo:hi])
}

// beyond counts the samples that rank strictly above the p-th percentile.
func beyond(n int, p float64) int {
	return n - int(math.Ceil(p/100*float64(n)))
}

// tailLadder lists the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{99.9, 99, 95, 90, 75, 50}

// pickTail chooses the percentile to report as the tail of n samples. A
// workload names the percentile it wants (its expected sample count leaves at
// least ten samples beyond it); if a run produced too few samples for that,
// the highest lower percentile on the ladder with ten samples beyond it is
// used instead. Below 20 samples not even the median has ten samples beyond
// it, so the workload's own percentile is kept.
func pickTail(n int, want float64) float64 {
	if n < 20 || want >= 100 {
		return want
	}
	if beyond(n, want) >= 10 {
		return want
	}
	for _, p := range tailLadder {
		if p < want && beyond(n, p) >= 10 {
			return p
		}
	}
	return 50
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
