package main

import (
	"math"
	"slices"
	"sort"
	"strings"
)

// metricDef names one reported number. The same table drives the program's
// output, the -agree comparison, BENCHMARK.json (via -manifest) and the
// README's tables, so a name is spelled once.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	// Bound is the relative worsening that counts as a regression. Metrics in
	// endToEnd are held to it by the driver; the workload-specific ones in
	// scoped are held to it only by -agree.
	Bound float64
	Layer string // module the number belongs to ("" for end-to-end)
	Moves string // the end-to-end metric / workload a layer metric should move
}

// endToEnd lists the metrics every workload reports and the driver gates:
// the driver's contract wants each of them on every workload and never zero.
// fail_ratio is therefore published as its complement, ok_ratio.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "ops_per_s", Unit: "1/s", Better: "higher", Bound: 0.20},
	{Name: "lat_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "lat_p95_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ok_ratio", Unit: "ratio", Better: "higher", Bound: 0.001},
	{Name: "cpu_us_per_op", Unit: "us", Better: "lower", Bound: 0.20},
	{Name: "allocs_per_op", Unit: "count", Better: "lower", Bound: 0.03},
	{Name: "heap_live_mb", Unit: "MB", Better: "lower", Bound: 0.25},
}

// scoped lists the end-to-end metrics that exist on some workloads only
// (omitted elsewhere, never reported as 0 in the ledger rows). The driver's
// contract cannot gate a metric that is absent or zero on a workload, so
// BENCHMARK.json carries them in per_layer; -agree still holds them to Bound.
var scoped = []metricDef{
	{Name: "fail_ratio", Unit: "ratio", Better: "lower", Bound: 0, Layer: "e2e", Moves: "every workload (absolute bound 0)"},
	{Name: "fsyncs_per_op", Unit: "count", Better: "lower", Bound: 0.05, Layer: "e2e", Moves: "drain_durable, import_read, commit_write, restart"},
	{Name: "disk_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.05, Layer: "e2e", Moves: "drain_durable, import_read, commit_write, restart"},
	{Name: "wire_bytes_per_op", Unit: "B", Better: "lower", Bound: 0.001, Layer: "e2e", Moves: "modem_session"},
	{Name: "session_vs_cslip14", Unit: "s", Better: "lower", Bound: 0.001, Layer: "e2e", Moves: "modem_session"},
	{Name: "session_vs_ethernet", Unit: "s", Better: "lower", Bound: 0.001, Layer: "e2e", Moves: "modem_session"},
	{Name: "reopen_footer_s", Unit: "s", Better: "lower", Bound: 0.15, Layer: "e2e", Moves: "restart"},
	{Name: "reopen_scan_s", Unit: "s", Better: "lower", Bound: 0.15, Layer: "e2e", Moves: "restart"},
}

// perLayer lists the traced run's metrics, <module>.<metric>.
var perLayer = buildPerLayer()

var stableRoles = []string{"client", "journal", "segment"}

func buildPerLayer() []metricDef {
	lower := func(layer, name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "lower", Layer: layer, Moves: moves}
	}
	higher := func(layer, name, unit, moves string) metricDef {
		return metricDef{Name: name, Unit: unit, Better: "higher", Layer: layer, Moves: moves}
	}
	const diag = "diagnostic"
	defs := []metricDef{
		lower("gen", "gen.lat_p99_ms", "ms", diag),
		lower("gen", "gen.lat_p999_ms", "ms", diag),
		higher("gen", "gen.samples", "count", diag),
		lower("gen", "trace.overhead_pct", "%", diag),

		lower("qrpc", "qrpc.client.enqueue_self_us", "us", "lat_p50_ms on drain_durable; ops_per_s on echo_rtt"),
		lower("qrpc", "qrpc.client.batches_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.client.acks_per_op", "count", "ops_per_s on echo_rtt"),
		lower("qrpc", "qrpc.client.resent_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.client.duplicates_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.server.onframe_self_us", "us", "cpu_us_per_op, ops_per_s on echo_rtt"),
		lower("qrpc", "qrpc.server.handler_us", "us", "cpu_us_per_op on echo_rtt"),
		lower("qrpc", "qrpc.server.batches_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.server.replays_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.server.dropped_per_op", "count", "ops_per_s on drain_durable"),
		lower("qrpc", "qrpc.journal.records_per_op", "count", "fsyncs_per_op on drain_durable, import_read"),
		lower("qrpc", "qrpc.journal.compactions", "count", "disk_bytes_per_op on drain_durable"),
	}
	for _, role := range stableRoles {
		moves := "ops_per_s, fsyncs_per_op, disk_bytes_per_op on commit_write"
		if role == "client" {
			moves = "lat_p50_ms on drain_durable"
		}
		p := "stable." + role + "."
		defs = append(defs,
			lower("stable", p+"append_us_p50", "us", moves),
			lower("stable", p+"commit_wait_us_p50", "us", moves),
			lower("stable", p+"commit_wait_us_p95", "us", moves),
			lower("stable", p+"fsyncs_per_op", "count", moves),
			lower("stable", p+"bytes_per_op", "B", moves),
			higher("stable", p+"ops_per_fsync", "count", moves),
			lower("stable", p+"sync_ms_total", "ms", moves),
		)
	}
	defs = append(defs,
		lower("store", "store.get_us_p50", "us", "lat_p50_ms on import_read"),
		lower("store", "store.get_us_p95", "us", "lat_p95_ms on import_read"),
		lower("store", "store.commit_us_p50", "us", "ops_per_s on commit_write"),
		lower("store", "store.commit_us_p95", "us", "lat_p95_ms on commit_write"),
		higher("store", "store.hit_ratio", "ratio", "lat_p50_ms on import_read"),
		lower("store", "store.cold_faults_per_op", "count", "lat_p95_ms on import_read"),
		lower("store", "store.compactions", "count", "disk_bytes_per_op on commit_write"),
		lower("store", "store.compact_stall_ms_max", "ms", "lat_p95_ms on commit_write"),
		lower("store", "store.segment_bytes_per_live_byte", "ratio", "disk_bytes_per_op on commit_write"),
		lower("store", "store.heap_bytes_per_obj", "B", "heap_live_mb on import_read, restart"),
		lower("store", "store.open_footer_s", "s", "reopen_footer_s on restart"),
		lower("store", "store.open_scan_s", "s", "reopen_scan_s on restart"),
		lower("store", "store.journal_replay_s", "s", "reopen_footer_s on restart"),

		lower("server", "server.import_us", "us", "lat_p50_ms on import_read"),
		lower("server", "server.export_us", "us", "lat_p50_ms on commit_write"),
		higher("server", "server.deltas_served_per_op", "count", "wire_bytes_per_op on modem_session"),
		lower("server", "server.delta_fallbacks_per_op", "count", "wire_bytes_per_op on modem_session"),
		lower("server", "server.duplicate_exports_per_op", "count", "ops_per_s on commit_write"),

		higher("access", "access.cache_hit_ratio", "ratio", "lat_p50_ms on import_read"),
		lower("access", "access.imports_sent_per_op", "count", "lat_p50_ms on import_read"),
		higher("access", "access.delta_imports_per_op", "count", "session_vs_cslip14 on modem_session"),
		lower("access", "access.local_invoke_us", "us", "lat_p50_ms on commit_write"),
		lower("access", "cache.evictions_per_op", "count", "lat_p50_ms on import_read"),
	)
	for _, n := range []string{"rscript.eval", "rdo.encode", "rdo.decode", "rdo.clone"} {
		layer := n[:strings.IndexByte(n, '.')]
		defs = append(defs,
			lower(layer, n+"_us", "us", "cpu_us_per_op on commit_write, import_read"),
			lower(layer, n+"_allocs", "count", "allocs_per_op on commit_write, import_read"),
		)
	}
	defs = append(defs,
		lower("wire", "wire.encode_ns", "ns", "cpu_us_per_op on echo_rtt"),
		lower("wire", "wire.decode_ns", "ns", "cpu_us_per_op on echo_rtt"),
		lower("wire", "wire.coalesce_ns", "ns", "cpu_us_per_op on echo_rtt"),
		higher("wire", "wire.frames_per_batch", "count", "ops_per_s on drain_durable"),
		lower("proto", "proto.marshal_ns", "ns", "cpu_us_per_op on import_read"),
		lower("proto", "proto.unmarshal_ns", "ns", "cpu_us_per_op on import_read"),
		lower("compress", "compress.ratio", "ratio", "wire_bytes_per_op on modem_session"),
		lower("compress", "compress.us_per_kb", "us", "ops_per_s on modem_session"),

		lower("transport", "transport.tcp.connect_ms_p50", "ms", "ops_per_s on drain_durable"),
		lower("transport", "transport.kick_us", "us", "ops_per_s on echo_rtt"),
	)
	for _, link := range linkNames {
		p := "netsim." + link + "."
		moves := "session_vs_* on modem_session"
		defs = append(defs,
			lower("netsim", p+"vtime_s", "s", moves),
			lower("netsim", p+"bytes", "B", moves),
			lower("netsim", p+"frames", "count", moves),
			lower("netsim", p+"logical_frames", "count", moves),
		)
	}
	defs = append(defs,
		higher("netsim", "netsim.events_per_wall_s", "1/s", "ops_per_s on modem_session"),
		lower("runtime", "runtime.gc_cpu_fraction", "ratio", "cpu_us_per_op everywhere"),
		lower("runtime", "runtime.goroutines", "count", "heap_live_mb everywhere"),
		lower("runtime", "runtime.heap_inuse_mb_peak", "MB", "heap_live_mb everywhere"),
	)
	return defs
}

// linkNames are netsim.StandardLinks() by name, fast to slow.
var linkNames = []string{"ethernet", "wavelan", "cslip14.4", "cslip2.4"}

// tracedDefs is what a -trace 1 run reports to the driver: the scoped
// end-to-end metrics, then every per-layer metric.
func tracedDefs() []metricDef { return append(append([]metricDef{}, scoped...), perLayer...) }

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of an
// ascending slice, or 0 for an empty one.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// supportedPercentiles are the tail points the benchmark knows how to name.
var supportedPercentiles = []float64{50, 90, 95, 99, 99.9, 99.99}

// highestPercentile returns the highest of supportedPercentiles that still
// has at least ten of n samples beyond it (the choosing-metrics rule for
// which tail a sample can support), or 50 when even p90 has fewer.
func highestPercentile(n int) float64 {
	best := 50.0
	for _, p := range supportedPercentiles {
		if float64(n)*(100-p)/100 >= 10-1e-9 {
			best = p
		}
	}
	return best
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// The per-layer metrics each workload's traced run must report above zero
// (workload.layers). Left out on purpose: differences of two measurements
// (server.import_us, server.export_us, trace.overhead_pct), which noise can
// push below zero on a tiny run — their probes' errors fail the run instead —
// and anything that needs a GC cycle or a thousand samples to exist.
var (
	everyLayers = []string{"gen.samples", "qrpc.client.enqueue_self_us", "qrpc.server.onframe_self_us",
		"stable.client.append_us_p50", "wire.encode_ns", "wire.decode_ns", "wire.coalesce_ns", "wire.frames_per_batch",
		"compress.ratio", "compress.us_per_kb", "runtime.goroutines", "runtime.heap_inuse_mb_peak"}
	journalLayers = []string{"fsyncs_per_op", "disk_bytes_per_op", "qrpc.journal.records_per_op", "stable.journal.append_us_p50",
		"stable.journal.commit_wait_us_p50", "stable.journal.fsyncs_per_op", "stable.journal.bytes_per_op", "stable.journal.ops_per_fsync"}
	codecLayers = []string{"proto.marshal_ns", "proto.unmarshal_ns", "rscript.eval_us", "rscript.eval_allocs",
		"rdo.encode_us", "rdo.encode_allocs", "rdo.decode_us", "rdo.decode_allocs", "rdo.clone_us", "rdo.clone_allocs"}
	objectLayers = slices.Concat(everyLayers, journalLayers, codecLayers, []string{"access.local_invoke_us", "store.get_us_p50",
		"store.heap_bytes_per_obj", "stable.segment.append_us_p50", "stable.segment.commit_wait_us_p50"})

	echoLayers  = slices.Concat(everyLayers, []string{"qrpc.server.handler_us", "qrpc.client.acks_per_op", "transport.kick_us"})
	drainLayers = slices.Concat(everyLayers, journalLayers, []string{"qrpc.server.handler_us", "qrpc.client.batches_per_op",
		"qrpc.server.batches_per_op", "transport.tcp.connect_ms_p50", "stable.client.fsyncs_per_op", "stable.client.bytes_per_op",
		"stable.client.ops_per_fsync", "stable.client.sync_ms_total"})
	importReadLayers = slices.Concat(objectLayers, []string{"access.cache_hit_ratio", "access.imports_sent_per_op", "cache.evictions_per_op",
		"store.hit_ratio", "store.cold_faults_per_op", "store.segment_bytes_per_live_byte"})
	commitWriteLayers = slices.Concat(objectLayers, []string{"store.commit_us_p50", "store.hit_ratio", "store.segment_bytes_per_live_byte",
		"stable.client.fsyncs_per_op", "stable.segment.fsyncs_per_op", "stable.segment.bytes_per_op", "stable.segment.ops_per_fsync"})
	restartLayers = slices.Concat(objectLayers, []string{"reopen_footer_s", "reopen_scan_s", "store.open_footer_s", "store.open_scan_s",
		"store.journal_replay_s", "store.cold_faults_per_op"})
	modemLayers = slices.Concat(everyLayers, codecLayers, netsimLayers(), []string{"wire_bytes_per_op", "session_vs_cslip14", "session_vs_ethernet",
		"netsim.events_per_wall_s", "access.cache_hit_ratio", "access.imports_sent_per_op", "access.delta_imports_per_op",
		"server.deltas_served_per_op", "qrpc.client.batches_per_op", "store.get_us_p50", "store.commit_us_p50"})
)

func netsimLayers() []string {
	var out []string
	for _, link := range linkNames {
		for _, m := range []string{"vtime_s", "bytes", "frames", "logical_frames"} {
			out = append(out, "netsim."+link+"."+m)
		}
	}
	return out
}
