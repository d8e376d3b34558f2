package main

// metricDef declares one reported metric. BENCHMARK.json repeats every
// declaration with its direction and bound; TestMetricsDeclared keeps
// the two lists equal.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Every run with --trace 0 reports all of them.
var endToEnd = []metricDef{
	{"sim_minstr_per_s", "Minstr/s"},
	{"wall_s", "s"},
	{"setup_s", "s"},
	{"peak_rss_mb", "MB"},
	{"alloc_mb_per_minstr", "MB/Minstr"},
}

// layers are the simulation-path packages the traced pass charges host
// time and allocations to. rng is the sim.(*RNG) methods, split out of
// sim because the workload generators spend much of their time there.
var layers = []string{
	"sim", "rng", "workloads", "cpu", "cache", "coherence", "noc", "core", "dimm",
	"pcm", "ecc", "wear", "stats", "mem", "energy", "system", "exp",
}

// Samples that no layer claims go to one of these two buckets: harness
// when the benchmark's own code is on the stack, runtime otherwise.
const (
	bucketHarness = "harness"
	bucketRuntime = "runtime"
)

// buckets is every profile bucket: the layers, then harness and runtime.
var buckets = append(append([]string{}, layers...), bucketHarness, bucketRuntime)

// perLayer are the metrics of the traced pass (--trace 1).
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, b := range buckets {
		defs = append(defs, metricDef{b + ".cpu_share", "fraction"})
	}
	for _, b := range buckets {
		defs = append(defs, metricDef{b + ".alloc_mb_per_minstr", "MB/Minstr"})
	}
	for _, d := range drivers {
		defs = append(defs,
			metricDef{d.layer + "." + d.metric, d.unit},
			metricDef{d.layer + ".allocs_per_call", "allocs"})
	}
	return append(defs,
		metricDef{"sim.events_per_kinstr", "events/kinstr"},
		metricDef{"core.rpki", "reads/kinstr"},
		metricDef{"core.wpki", "writes/kinstr"},
		metricDef{"core.irlp_avg", "chips"},
		metricDef{"cache.l2_miss_ratio", "fraction"},
		metricDef{"cache.llc_miss_ratio", "fraction"},
		metricDef{"pcm.faults_injected", "count"},
		metricDef{"cpu.rollbacks", "count"},
		metricDef{"sim.host_ns_per_event", "ns"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"runtime.mallocs_per_kinstr", "mallocs/kinstr"},
		metricDef{"exp.parallel_efficiency", "fraction"},
		metricDef{"exp.sims", "count"},
		metricDef{"exp.cache_entries", "count"},
		metricDef{"trace.overhead_frac", "fraction"},
	)
}()
