package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// layerMetrics fills res with the per-layer metrics of a traced run and
// writes every span (wire and replay) to the run's trace file.
func (s *bench) layerMetrics(res *result, plain, traced *wireRun, rp *replayResult,
	before, after map[string]float64, recovery time.Duration) error {
	put := func(name string, v float64, unit string) { res.Metrics[name] = metric{v, unit} }
	delta := func(k string) float64 { return after[k] - before[k] }

	// Wire, untraced window: tail latency, bytes, STATS deltas.
	q, _ := quantiles(plain.latencies(), 0.999)
	put("server.p999_us", q[0]/1e3, "us")
	var in, out int64
	for _, wd := range plain.windows {
		in, out = in+wd.bytesIn, out+wd.bytesOut
	}
	put("server.cmd_bytes_per_cmd", ratio(float64(out), float64(plain.done)), "B")
	put("server.reply_bytes_per_cmd", ratio(float64(in), float64(plain.done)), "B")
	ops := delta("ops")
	put("shardmap.get_hit_ratio", ratio(delta("get_hits"), delta("gets")), "ratio")
	put("shardmap.cas_hit_ratio", ratio(delta("cas_hits"), delta("cas")), "ratio")
	put("shardmap.conflicts_per_op", ratio(delta("conflicts"), ops), "ratio")
	scanKeys := delta("scan_keys") + delta("iscan_keys")
	put("shardmap.scan_keys_per_call", ratio(scanKeys, delta("scans")+delta("iscans")), "count")
	put("shardmap.scan_fallbacks_per_key", ratio(delta("scan_fallbacks"), scanKeys), "ratio")
	put("backoff.escalations_per_op", ratio(delta("escalations"), ops), "ratio")
	put("backoff.serialized_per_op", ratio(delta("serialized_ops"), ops), "ratio")
	put("error_frac", ratio(float64(s.failed), float64(s.attempted)), "ratio")
	put("trace.overhead_frac", 1-traced.calm().rate()/plain.calm().rate(), "ratio")
	put("wal.recovery_s", recovery.Seconds(), "s")

	// Wire, traced window: one batch in traceEvery, spans in the order
	// client.run records them (root, encode, flush, reads).
	var wireSpans []span
	for _, wd := range traced.windows {
		wireSpans = append(wireSpans, wd.spans...)
	}
	var rtt, flush, first, enc, reads []float64
	var encSum, readSum, rttSum float64
	var flushStart int64
	read := 0
	for _, sp := range wireSpans {
		d := float64(sp.end - sp.start)
		switch sp.name {
		case "proto.client_encode":
			enc = append(enc, d/depth)
			encSum += d / depth
		case "server.flush":
			flushStart, read = sp.start, 0
			flush = append(flush, d/1e3)
		case "proto.read_reply":
			if read == 0 {
				first = append(first, float64(sp.end-flushStart)/1e3)
			} else {
				reads = append(reads, d)
				readSum += d
			}
			if read++; read == depth {
				rtt = append(rtt, float64(sp.end-flushStart)/1e3)
				rttSum += float64(sp.end-flushStart) / 1e3
			}
		}
	}
	rq, n := quantiles(rtt, 0.5, 0.99)
	if n == 0 {
		return fmt.Errorf("traced window recorded no batches")
	}
	put("server.batch_rtt_us_p50", rq[0], "us")
	put("server.batch_rtt_us_p99", rq[1], "us")
	put("server.flush_us", median(flush), "us")
	put("server.first_reply_us", median(first), "us")
	put("proto.client_encode_ns", median(enc), "ns")
	put("proto.read_reply_ns", median(reads), "ns")

	// Replay: self times per span name. decode/encode and the command
	// mean come from the workload's own streams; shardmap spans include
	// the probe tail, which covers the commands the workload lacks.
	mainSelf := selfByName(rp.spans[:rp.mainSpans])
	allSelf := selfByName(rp.spans)
	put("proto.decode_ns", median(mainSelf["proto.decode"]), "ns")
	put("proto.encode_ns", median(mainSelf["proto.encode"]), "ns")
	for k := opKind(0); k < numOps; k++ {
		put(mapSpan[k]+"_ns", median(allSelf[mapSpan[k]]), "ns")
	}
	var cmdSum float64
	for _, sp := range rp.spans[:rp.mainSpans] {
		if sp.name == "cmd" {
			cmdSum += float64(sp.end - sp.start)
		}
	}
	cmdMean := cmdSum / float64(len(mainSelf["cmd"]))
	// residue: the share of the mean batch RTT that client encode, the
	// replayed server work and client reply decode do not account for
	// (syscalls, wake-ups, the network stack, queueing).
	covered := depth * (encSum/float64(len(enc)) + cmdMean + readSum/float64(len(reads)))
	put("server.residue_frac", 1-covered/(rttSum/float64(len(rtt))*1e3), "ratio")
	st := rp.stats
	put("core.short_abort_ratio", ratio(float64(st.ShortAborts), float64(st.ShortCommits+st.ShortAborts)), "ratio")
	put("core.full_abort_ratio", ratio(float64(st.Aborts), float64(st.Commits+st.Aborts)), "ratio")
	for name, v := range rp.probe {
		unit := "ns"
		switch name {
		case "wal.flush_ms":
			unit = "ms"
		case "wal.bytes_per_record":
			unit = "B"
		}
		put(name, v, unit)
	}

	path := filepath.Join(filepath.Dir(s.dir), "trace-"+s.w.name+".csv")
	if err := writeSpans(path, append(wireSpans, rp.spans...)); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	fmt.Printf("spans: %d wire + %d replay written to %s\n", len(wireSpans), len(rp.spans), path)
	for _, d := range perLayerDefs {
		fmt.Printf("  %s %g %s (moves %s)\n", d.name, res.Metrics[d.name].Value, d.unit, d.moves)
	}
	return nil
}
