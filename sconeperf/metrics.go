package main

import (
	"math"
	"sort"
	"syscall"
	"time"
)

// metricDef is one BENCHMARK.json metric. The tables below are the
// program's copy of that file's end_to_end and per_layer lists; a test keeps
// the two equal.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the system sees. Every workload reports
// every one of them, measured with tracing off.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"runs_per_s", "runs/s", "higher", 0.25},
	{"job_p50_ms", "ms", "lower", 0.25},
	{"job_p90_ms", "ms", "lower", 0.25},
	{"cpu_us_per_run", "us", "lower", 0.25},
	{"peak_rss_mb", "MB", "lower", 0.2},
}

// perLayer are the traced run's metrics: component replays of each layer's
// public calls on the workload's own designs and inputs, plus the tracing
// overhead itself. README.md maps each to the end-to-end metric it should
// move.
var perLayer = []metricDef{
	{"sim.compile_ms", "ms", "lower", 0},
	{"sim.instructions", "count", "lower", 0},
	{"sim.step_fast_ns", "ns", "lower", 0},
	{"sim.step_fault_ns", "ns", "lower", 0},
	{"sim.evals_per_run", "count", "lower", 0},
	{"core.batch_us", "us", "lower", 0},
	{"core.probe_batch_us", "us", "lower", 0},
	{"spn.ref_ns", "ns", "lower", 0},
	{"fault.p1_ns_per_run", "ns", "lower", 0},
	{"fault.self_ns_per_run", "ns", "lower", 0},
	{"fault.parallel_speedup", "ratio", "higher", 0},
	{"fault.w2_speedup", "ratio", "higher", 0},
	{"fault.w4_speedup", "ratio", "higher", 0},
	{"fault.call_overhead_us", "us", "lower", 0},
	{"fault.batch_gap_p50_us", "us", "lower", 0},
	{"fault.batch_gap_p90_us", "us", "lower", 0},
	{"fault.allocs_per_run", "count", "lower", 0},
	{"fault.bytes_per_run", "bytes", "lower", 0},
	{"plan.new_us", "us", "lower", 0},
	{"plan.placements", "count", "lower", 0},
	{"leakage.step_unmasked_ms", "ms", "lower", 0},
	{"leakage.step_masked_ms", "ms", "lower", 0},
	{"leakage.self_us", "us", "lower", 0},
	{"power.probe_us", "us", "lower", 0},
	{"stats.add_ns", "ns", "lower", 0},
	{"store.open_ms", "ms", "lower", 0},
	{"store.get_us", "us", "lower", 0},
	{"store.put_us", "us", "lower", 0},
	{"store.sync_ms", "ms", "lower", 0},
	{"store.hit_ratio", "ratio", "higher", 0},
	{"service.submit_ms", "ms", "lower", 0},
	{"service.queue_wait_ms", "ms", "lower", 0},
	{"service.run_ms", "ms", "lower", 0},
	{"service.replay_run_ms", "ms", "lower", 0},
	{"service.replay_p50_ms", "ms", "lower", 0},
	{"service.checkpoint_ms", "ms", "lower", 0},
	{"service.result_lag_ms", "ms", "lower", 0},
	{"service.lease_acquire_us", "us", "lower", 0},
	{"service.lease_complete_us", "us", "lower", 0},
	{"service.leases_per_job", "count", "lower", 0},
	{"client.lease_exec_ms", "ms", "lower", 0},
	{"client.lease_idle_ms", "ms", "lower", 0},
	{"trace.overhead_ratio", "ratio", "lower", 0},
	{"trace.spans", "count", "lower", 0},
}

func findMetric(name string) (metricDef, bool) {
	for _, tab := range [][]metricDef{endToEnd, perLayer} {
		for _, m := range tab {
			if m.Name == name {
				return m, true
			}
		}
	}
	return metricDef{}, false
}

// metric is one measured value. Samples counts what the value summarises
// (ops behind a percentile, set-ups behind a median); it is kept in the run
// report but not in the final result line.
type metric struct {
	Value   float64 `json:"value"`
	Unit    string  `json:"unit"`
	Samples int     `json:"samples,omitempty"`
}

// percentile interpolates linearly between closest ranks of sorted xs.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return percentile(sortedCopy(xs), 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) returns (its default exclusive method), so
// spreads reported here match the ones computed from result lines.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	d := sortedCopy(xs)
	n := len(d)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return d[0], d[0], d[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
