package main

// metric describes one reported quantity. The tables below are the
// benchmark's single list of metrics: main refuses to print a result
// that misses one or adds another, and a test holds BENCHMARK.json to
// the same list.
type metric struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	// bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	bound float64
}

// endToEnd is measured with tracing off (--trace 0). Host time is the
// only noisy quantity: the simulated statistics are deterministic and
// are compared byte for byte, never within a bound. The time bounds are
// wide because host speed on a shared 2-vCPU machine drifts by tens of
// percent over minutes (README.md gives the measurements).
var endToEnd = []metric{
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.24},
	{name: "cpu_s", unit: "s", better: "lower", bound: 0.24},
	{name: "max_rss_mb", unit: "MB", better: "lower", bound: 0.15},
	{name: "sweep_p50_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "sweep_p90_ms", unit: "ms", better: "lower", bound: 0.24},
	{name: "sweeps_per_s", unit: "1/s", better: "higher", bound: 0.24},
}

// perLayer is reported by the traced run (--trace 1). README.md maps
// each to the end-to-end metric and workloads it should move.
var perLayer = []metric{
	{name: "exp.table1_s", unit: "s", better: "lower"},
	{name: "exp.table2_s", unit: "s", better: "lower"},
	{name: "exp.perfect_s", unit: "s", better: "lower"},
	{name: "exp.figure6_s", unit: "s", better: "lower"},
	{name: "exp.figure7_s", unit: "s", better: "lower"},
	{name: "exp.shootout_s", unit: "s", better: "lower"},
	{name: "exp.smt_s", unit: "s", better: "lower"},
	{name: "synth.generate_ms", unit: "ms", better: "lower"},
	{name: "emu.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "cpu.baseline.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "cpu.perfect_promoted.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "cpu.microthread.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "cpu.microthread.self_ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "cpu.smt.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "replay.cursor_ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "replay.overlay_ns_per_branch.hybrid", unit: "ns/branch", better: "lower"},
	{name: "replay.overlay_ns_per_branch.tage", unit: "ns/branch", better: "lower"},
	{name: "replay.overlay_ns_per_branch.h2p", unit: "ns/branch", better: "lower"},
	{name: "bpred.hybrid.ns_per_branch", unit: "ns/branch", better: "lower"},
	{name: "bpred.tage.ns_per_branch", unit: "ns/branch", better: "lower"},
	{name: "bpred.h2p.ns_per_branch", unit: "ns/branch", better: "lower"},
	{name: "pathprof.ns_per_inst", unit: "ns/inst", better: "lower"},
	{name: "pathcache.observe_ns", unit: "ns", better: "lower"},
	{name: "pcache.write_consume_ns", unit: "ns", better: "lower"},
	{name: "uthread.build_us", unit: "us", better: "lower"},
	{name: "uthread.execute_ns", unit: "ns", better: "lower"},
	{name: "cache.access_ns", unit: "ns", better: "lower"},
	{name: "mem.load_ns", unit: "ns", better: "lower"},
	{name: "runcache.hit_ns", unit: "ns", better: "lower"},
	{name: "runcache.hit_ratio", unit: "ratio", better: "higher"},
	{name: "runcache.computes", unit: "count", better: "lower"},
	{name: "runcache.evictions", unit: "count", better: "lower"},
	{name: "report.render_ms", unit: "ms", better: "lower"},
	{name: "serve.admit_ms", unit: "ms", better: "lower"},
	{name: "serve.stream_ms", unit: "ms", better: "lower"},
	{name: "serve.hit_ratio", unit: "ratio", better: "higher"},
	// Exact counts: identical on every run of one seed unless the model
	// itself changed, so a speed-only change must leave them untouched.
	{name: "cpu.sim_insts", unit: "count", better: "higher"},
	{name: "cpu.sim_cycles", unit: "count", better: "lower"},
	{name: "micro.spawns", unit: "count", better: "higher"},
	{name: "pathcache.promotions", unit: "count", better: "higher"},
	{name: "uthread.builds", unit: "count", better: "higher"},
	{name: "trace.overhead_pct", unit: "%", better: "lower"},
}

// known reports whether a metric table lists name.
func known(name string) bool {
	for _, t := range [][]metric{endToEnd, perLayer} {
		for _, m := range t {
			if m.name == name {
				return true
			}
		}
	}
	return false
}
