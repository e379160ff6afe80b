package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"spectm/internal/proto"
)

// TestMetricNamesMatchBenchmarkJSON pins the declared metrics (which a
// run checks it reported, see checkReported) and workloads to the
// repository's BENCHMARK.json.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit, Better string }
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	compare := func(kind string, got []entry, defs []metricDef) {
		if len(got) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark declares %d", kind, len(got), len(defs))
		}
		for i := range min(len(got), len(defs)) {
			d := defs[i]
			if got[i] != (entry{d.name, d.unit, d.better}) {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, benchmark %s %s %s", kind, i, got[i], d.name, d.unit, d.better)
			}
		}
	}
	compare("end_to_end", bj.EndToEnd, endToEndDefs)
	compare("per_layer", bj.PerLayer, perLayerDefs)
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, bj.Workloads[i].Name, w.name)
		}
	}
}

func TestCheckReported(t *testing.T) {
	defs := []metricDef{{name: "a", unit: "s"}, {name: "b", unit: "ns"}}
	ok := map[string]metric{"a": {1, "s"}, "b": {2, "ns"}}
	if err := checkReported(ok, defs); err != nil {
		t.Fatal(err)
	}
	for _, bad := range []map[string]metric{
		{"a": {1, "s"}},
		{"a": {1, "s"}, "b": {2, "us"}},
		{"a": {1, "s"}, "b": {2, "ns"}, "c": {3, "s"}},
	} {
		if checkReported(bad, defs) == nil {
			t.Errorf("checkReported(%v) accepted", bad)
		}
	}
}

// stream draws n commands, feeding back a fixed outcome function.
func stream(w *workload, seed uint64, id, n int) []command {
	g := newGenerator(w, seed, id)
	out := make([]command, n)
	for i := range out {
		out[i] = g.next()
		g.observe(&out[i], i%3 == 0, out[i].val)
	}
	return out
}

func TestGeneratorDeterministic(t *testing.T) {
	for _, w := range slices.Concat(workloads, ungated) {
		a, b := stream(w, 7, 0, 5000), stream(w, 7, 0, 5000)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: command %d differs between identical seeds: %+v vs %+v", w.name, i, a[i], b[i])
			}
		}
		if c := stream(w, 8, 0, 5000); equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 give the same stream", w.name)
		}
		if c := stream(w, 7, 1, 5000); equal(a, c) {
			t.Errorf("%s: streams 0 and 1 of a seed are the same", w.name)
		}
		var kinds [numOps]int
		for _, c := range a {
			kinds[c.kind]++
			if int(c.keys[0]) >= w.keys {
				t.Fatalf("%s: key %d out of range", w.name, c.keys[0])
			}
		}
		for k, n := range kinds {
			if (w.mix[k] > 0) != (n > 0) {
				t.Errorf("%s: %d %s commands for a %d%% share", w.name, n, opNames[k], w.mix[k])
			}
		}
	}
}

func equal(a, b []command) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestCASUsesSeenValue: a CAS carries the value the connection last
// saw, so it can succeed.
func TestCASUsesSeenValue(t *testing.T) {
	w, _ := workloadByName("write-wal")
	g := newGenerator(w, 1, 0)
	get := command{kind: opGet, nkeys: 1}
	for k := range w.keys {
		get.keys[0] = int32(k)
		g.observe(&get, true, 12345+uint64(k))
	}
	for range 10000 {
		c := g.next()
		if c.kind == opCAS {
			if c.old != 12345+uint64(c.keys[0]) {
				t.Fatalf("CAS on key %d expects %d, last seen %d", c.keys[0], c.old, 12345+c.keys[0])
			}
			return
		}
	}
	t.Fatal("no CAS in 10000 commands")
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{id: 1, name: "root", start: 0, end: 100},
		{id: 2, parent: 1, name: "a", start: 10, end: 30},
		{id: 3, parent: 1, name: "b", start: 20, end: 50},  // overlaps a
		{id: 4, parent: 1, name: "c", start: 90, end: 120}, // ends after root
		{id: 5, parent: 3, name: "d", start: 25, end: 35},
		{id: 6, name: "other", start: 0, end: 7},
	}
	want := []int64{100 - 40 - 10, 20, 30 - 10, 30, 10, 7}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %s: self %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestQuantilesReportCount(t *testing.T) {
	v, n := quantiles([]uint32{50, 10, 30, 20, 40}, 0.5, 0.99, 0)
	if n != 5 || v[0] != 30 || v[1] != 50 || v[2] != 10 {
		t.Fatalf("quantiles = %v n=%d, want [30 50 10] n=5", v, n)
	}
	v, n = quantiles([]float64(nil), 0.5)
	if n != 0 || !math.IsNaN(v[0]) {
		t.Fatalf("empty quantiles = %v n=%d, want NaN n=0", v, n)
	}
}

func TestParseStartup(t *testing.T) {
	cfg, err := parseStartup("2026/01/02 03:04:05 spectm-server: listening on 127.0.0.1:4000 (layout=val maxconns=256)")
	if err != nil || cfg.addr != "127.0.0.1:4000" || cfg.layout != "val" || cfg.maxConns != 256 || cfg.fsync != "" {
		t.Fatalf("in-memory line: %+v %v", cfg, err)
	}
	cfg, err = parseStartup("spectm-server: listening on 127.0.0.1:1 (layout=tvar maxconns=16 data-dir=/d fsync=interval=1s, 3 keys recovered)")
	if err != nil || cfg.layout != "tvar" || cfg.maxConns != 16 || cfg.fsync != "interval=1s" {
		t.Fatalf("persistent line: %+v %v", cfg, err)
	}
	for _, bad := range []string{
		"spectm-server: listening on 127.0.0.1:1 (maxconns=16)",
		"spectm-server: listening on 127.0.0.1:1 (layout=val)",
		"spectm-server: listening on 127.0.0.1:1",
	} {
		if _, err := parseStartup(bad); err == nil {
			t.Errorf("parseStartup(%q) accepted", bad)
		}
	}
}

// checkReplies runs the checker over encoded replies to c.
func checkReplies(t *testing.T, w *workload, c command, write func(*proto.Writer)) string {
	t.Helper()
	var buf bytes.Buffer
	wr := proto.NewWriter(&buf)
	write(wr)
	if err := wr.Flush(); err != nil {
		t.Fatal(err)
	}
	rc := replyChecker{w: w, rd: proto.NewReader(&buf)}
	_, _, bad, err := rc.read(&c)
	if err != nil {
		t.Fatal(err)
	}
	return bad
}

func TestReplyChecks(t *testing.T) {
	w, _ := workloadByName("range-scan")
	get := command{kind: opGet, nkeys: 1, keys: [3]int32{7}}
	scan := command{kind: opScan, nkeys: 1, keys: [3]int32{10}}
	iscan := command{kind: opIScan, nkeys: 1, keys: [3]int32{10}}
	pairs := func(keys []int, vals []uint64) func(*proto.Writer) {
		return func(wr *proto.Writer) {
			wr.Array(2 * len(keys))
			for i, k := range keys {
				wr.BulkString(keyName(k))
				wr.Uint(vals[i])
			}
		}
	}
	run := func(from, n int) ([]int, []uint64) {
		var ks []int
		var vs []uint64
		for k := from; k < from+n; k++ {
			ks, vs = append(ks, k), append(vs, initialValue(k)|5)
		}
		return ks, vs
	}
	okKeys, okVals := run(10, scanLimit)
	for _, tc := range []struct {
		name  string
		c     command
		write func(*proto.Writer)
		ok    bool
	}{
		{"get owned", get, func(wr *proto.Writer) { wr.Uint(initialValue(7) | 9) }, true},
		{"get other key's value", get, func(wr *proto.Writer) { wr.Uint(initialValue(8)) }, false},
		{"get missing", get, func(wr *proto.Writer) { wr.Null() }, false},
		{"get error", get, func(wr *proto.Writer) { wr.Error("ERR x") }, false},
		{"scan", scan, pairs(okKeys, okVals), true},
		{"scan short", scan, pairs(okKeys[:5], okVals[:5]), false},
		{"scan not from start", scan, pairs(run(11, scanLimit)), false},
		{"scan out of order", scan, pairs(append([]int{11, 10}, okKeys[2:]...), append([]uint64{okVals[1], okVals[0]}, okVals[2:]...)), false},
		{"iscan ascending", iscan, pairs([]int{10, 12, 13}, []uint64{initialValue(10), initialValue(12) | 1, initialValue(13)}), true},
		{"iscan descending", iscan, pairs([]int{12, 10}, []uint64{initialValue(12), initialValue(10)}), false},
		{"iscan below start", iscan, pairs([]int{9}, []uint64{initialValue(9)}), false},
	} {
		bad := checkReplies(t, w, tc.c, tc.write)
		if (bad == "") != tc.ok {
			t.Errorf("%s: bad=%q, want ok=%v", tc.name, bad, tc.ok)
		}
	}
}

func TestCalmSlices(t *testing.T) {
	// Steal in slices 5 and 12 of 20: they and their neighbours drop.
	steal := make([]float64, 20)
	steal[5], steal[12] = 0.05, 0.1
	if got := fmt.Sprint(calmSlices(steal, 20)); got != "[0 1 2 3 7 8 9 10 14 15 16 17 18 19]" {
		t.Fatalf("calm slices %s, want all but 4-6 and 11-13", got)
	}
	// No calm slice of eight: the least stolen one, counting neighbours,
	// counts.
	steal = []float64{0.5, 0.1, 0.3, 0.6, 0.2, 0.7, 0.05, 0.4}
	if got := fmt.Sprint(calmSlices(steal, 8)); got != "[7]" {
		t.Fatalf("calm slices %s, want [7]", got)
	}
	// A slice the sampler missed counts as stolen.
	if got := fmt.Sprint(calmSlices([]float64{0, 0, 0, 0, 0}, 6)); got != "[0 1 2 3]" {
		t.Fatalf("calm slices %s, want [0 1 2 3]", got)
	}
	if all := calmSlices(nil, 5); len(all) != 5 {
		t.Fatalf("without steal samples every slice should count, got %v", all)
	}
}

func TestCalmPoolsSlices(t *testing.T) {
	// Two connections, five slices; the middle slice is stolen, so it
	// and its neighbours drop. The pooled figures cover slices 0 and 4
	// of both connections.
	r := &wireRun{
		windows: []window{
			{lat: []uint32{1, 2, 100, 101, 102, 3}, slices: []int64{2, 1, 1, 1, 1}},
			{lat: []uint32{4, 200, 201, 202, 203, 5, 6}, slices: []int64{1, 1, 2, 1, 2}},
		},
		steal: []float64{0, 0, 0.5, 0, 0},
	}
	c := r.calm()
	if got := fmt.Sprint(c.lat); c.slices != 2 || c.done != 6 || got != "[1 2 4 3 5 6]" {
		t.Fatalf("calm = %d slices, %d done, lat %s; want 2, 6, [1 2 4 3 5 6]", c.slices, c.done, got)
	}
	if want := 6 / (2 * slice.Seconds()); c.rate() != want {
		t.Fatalf("rate %v, want %v", c.rate(), want)
	}
}

func TestScanDiff(t *testing.T) {
	before := "key-00000001=5\nkey-00000002=7\n"
	got := scanDiff(before, "key-00000001=5\nkey-00000002=8\n")
	if want := `2 keys before, 2 after; line 1 was "key-00000002=7", is "key-00000002=8"`; got != want {
		t.Fatalf("scanDiff = %s, want %s", got, want)
	}
	got = scanDiff(before, "key-00000001=5\n")
	if want := `2 keys before, 1 after; line 1 was "key-00000002=7", is ""`; got != want {
		t.Fatalf("scanDiff = %s, want %s", got, want)
	}
}
