package main

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the user-visible metrics every workload prints with
// tracing off. "op" is the workload's unit of work: one distributed
// multiply (mixed-partitions), one served request (serve-small), or one
// priced cluster point (plan-price); README.md maps each to the metric
// names of the benchmark's design.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"op_ms_p50", "ms"},
	{"op_ms_p90", "ms"},
	{"ops_per_s", "1/s"},
}

// perLayer are the metrics of the traced run, one group per package the
// workloads call into. A layer a workload does not load reads 0 there.
var perLayer = []metricDef{
	{"tile.gemm_gflops", "GFLOP/s"},
	{"tile.gemm_calls", "count"},
	{"tile.gemm_mflop", "MFLOP"},
	{"tile.gemm_share_pct", "%"},

	{"distmat.get_mbs", "MB/s"},
	{"distmat.accum_mbs", "MB/s"},
	{"shmem.remote_get_mb", "MB"},
	{"shmem.remote_accum_mb", "MB"},
	{"shmem.remote_ops", "count"},

	{"universal.compile_ms_p50", "ms"},
	{"universal.plan_steps", "count"},
	{"universal.plan_builds", "count"},
	{"universal.plancache_hit_pct", "%"},

	{"universal.exec_us_per_step", "us"},
	{"universal.exec_over_kernel_pct", "%"},
	{"universal.batch_ms", "ms"},
	{"universal.allocs_per_step", "count"},
	{"universal.ckpt_tax_pct", "%"},
	{"universal.resilient_tax_pct", "%"},
	{"chaos.clean_tax_pct", "%"},

	{"serve.avg_batch", "count"},
	{"serve.queue_wait_ms_mean", "ms"},
	{"serve.over_batch_pct", "%"},
	{"serve.rejected", "count"},
	{"serve.failed", "count"},
	{"serve.shed", "count"},

	{"universal.simulate_ms_p50", "ms"},
	{"gpusim.ops_per_s", "1/s"},
	{"fabric.build_ms", "ms"},

	{"bench.op_ms_p99", "ms"},
	{"bench.useful_gflops", "GFLOP/s"},
	{"bench.generator_lag_ms_p99", "ms"},
	{"bench.trace_overhead_pct", "%"},
	{"bench.failed_pct", "%"},
}

// result is what one workload run measured.
type result struct {
	// attempted counts operations issued; failed those that errored, were
	// rejected, or produced an output that failed its check; wrong is the
	// subset of failed whose output was checked and found wrong.
	attempted, failed, wrong int64
	e2e                      map[string]float64
	layer                    map[string]float64
}

func newResult() *result {
	return &result{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// opStats are the end-to-end figures of one timed phase.
type opStats struct {
	p50Ms, p90Ms, p99Ms, perSec float64
	ops                         int
}

func (r *result) setE2E(setupS float64, st opStats) {
	r.e2e["setup_s"] = setupS
	r.e2e["op_ms_p50"] = st.p50Ms
	r.e2e["op_ms_p90"] = st.p90Ms
	// The 99th percentile follows the host's CPU steal too closely to
	// gate on (README.md); the traced run reports it.
	r.layer["bench.op_ms_p99"] = st.p99Ms
	r.e2e["ops_per_s"] = st.perSec
}

// traceOverhead is the traced phase's median latency over the untraced
// phase's, as a percentage above 1.
func traceOverhead(plain, traced opStats) float64 {
	if plain.p50Ms <= 0 {
		return 0
	}
	return 100 * (traced.p50Ms/plain.p50Ms - 1)
}

// finish derives the failure percentage once the counts are final.
func (r *result) finish() {
	if r.attempted > 0 {
		r.layer["bench.failed_pct"] = 100 * float64(r.failed) / float64(r.attempted)
	}
}
