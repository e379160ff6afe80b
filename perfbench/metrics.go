package main

import (
	"fmt"
	"maps"
	"slices"
)

// metricDef declares one reported metric. moves names, for a per-layer
// metric, the end-to-end metric and workload a change to it should
// move; a traced run prints it beside each value, and the README's
// layer table is this list.
type metricDef struct {
	name, unit, better string
	moves              string
}

// endToEndDefs are the metrics of an untraced run.
var endToEndDefs = []metricDef{
	{"ops_per_s", "1/s", "higher", ""},
	{"p50_us", "us", "lower", ""},
	{"p99_us", "us", "lower", ""},
	{"setup_s", "s", "lower", ""},
	{"rss_mb", "MB", "lower", ""},
}

// perLayerDefs are the metrics of a traced run.
var perLayerDefs = []metricDef{
	{"server.batch_rtt_us_p50", "us", "lower", "p50_us · all"},
	{"server.batch_rtt_us_p99", "us", "lower", "p99_us · all"},
	{"server.flush_us", "us", "lower", "p50_us · range-scan, ungated point-read"},
	{"server.first_reply_us", "us", "lower", "p50_us · range-scan, ungated point-read"},
	{"server.p999_us", "us", "lower", "tail only, not gated · all"},
	{"server.residue_frac", "ratio", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"server.cmd_bytes_per_cmd", "B", "lower", "ops_per_s · range-scan"},
	{"server.reply_bytes_per_cmd", "B", "lower", "ops_per_s · range-scan"},
	{"proto.decode_ns", "ns", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"proto.encode_ns", "ns", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"proto.client_encode_ns", "ns", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"proto.read_reply_ns", "ns", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"shardmap.get_ns", "ns", "lower", "ops_per_s, p50_us · range-scan, ungated point-read"},
	{"shardmap.set_ns", "ns", "lower", "ops_per_s, p99_us · write-wal"},
	{"shardmap.del_ns", "ns", "lower", "ops_per_s, p99_us · write-wal"},
	{"shardmap.cas_ns", "ns", "lower", "ops_per_s, p99_us · write-wal"},
	{"shardmap.swap2_ns", "ns", "lower", "ops_per_s, p99_us · write-wal"},
	{"shardmap.mget_ns", "ns", "lower", "ops_per_s · range-scan"},
	{"shardmap.scan_ns", "ns", "lower", "ops_per_s · range-scan"},
	{"shardmap.iscan_ns", "ns", "lower", "ops_per_s · range-scan"},
	{"shardmap.get_hit_ratio", "ratio", "higher", "p99_us · write-wal"},
	{"shardmap.cas_hit_ratio", "ratio", "higher", "p99_us · write-wal"},
	{"shardmap.conflicts_per_op", "ratio", "lower", "p99_us · write-wal"},
	{"shardmap.scan_keys_per_call", "count", "higher", "ops_per_s · range-scan"},
	{"shardmap.scan_fallbacks_per_key", "ratio", "lower", "ops_per_s · range-scan"},
	{"backoff.escalations_per_op", "ratio", "lower", "p99_us · write-wal"},
	{"backoff.serialized_per_op", "ratio", "lower", "p99_us · write-wal"},
	{"core.ro2_ns", "ns", "lower", "ops_per_s · range-scan, ungated point-read"},
	{"core.rw2_ns", "ns", "lower", "ops_per_s · write-wal"},
	{"core.full_ro3_ns", "ns", "lower", "ops_per_s · range-scan"},
	{"core.short_abort_ratio", "ratio", "lower", "p99_us · write-wal"},
	{"core.full_abort_ratio", "ratio", "lower", "p99_us · write-wal"},
	{"wal.append_ns", "ns", "lower", "ops_per_s, p99_us · write-wal; no change elsewhere"},
	{"wal.flush_ms", "ms", "lower", "ops_per_s, p99_us · write-wal; no change elsewhere"},
	{"wal.bytes_per_record", "B", "lower", "ops_per_s, p99_us · write-wal; no change elsewhere"},
	{"wal.recovery_s", "s", "lower", "operator restart time · write-wal"},
	{"error_frac", "ratio", "lower", "every metric · all (a run with errors fails)"},
	{"trace.overhead_frac", "ratio", "lower", "none; the cost of tracing"},
}

// checkReported verifies that a run reported exactly the declared
// metrics, with the declared units.
func checkReported(got map[string]metric, defs []metricDef) error {
	want := make(map[string]string, len(defs))
	for _, d := range defs {
		want[d.name] = d.unit
	}
	for _, name := range slices.Sorted(maps.Keys(got)) {
		if u, ok := want[name]; !ok || u != got[name].Unit {
			return fmt.Errorf("reported metric %s (%s) is not declared", name, got[name].Unit)
		}
	}
	for _, d := range defs {
		if _, ok := got[d.name]; !ok {
			return fmt.Errorf("declared metric %s was not reported", d.name)
		}
	}
	return nil
}
