package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"
	"unsafe"

	"spectm/internal/core"
	"spectm/internal/proto"
	"spectm/internal/server"
	"spectm/internal/shardmap"
	"spectm/internal/wal"
	"spectm/internal/word"
)

const (
	// replayCmds is the number of commands each replay stream runs.
	replayCmds = 32 << 10
	// tailCmds is the length of the probe stream for each command type
	// a workload does not send.
	tailCmds = 2048
)

// buildReplayServer builds the in-process stack the way the child was
// built: the layout and maxconns it logged, and its fsync policy on a
// fresh directory when it ran with persistence.
func buildReplayServer(cfg serverConfig, dir string) (*server.Server, error) {
	var layout core.Layout
	found := false
	for _, l := range []core.Layout{core.LayoutVal, core.LayoutTVar, core.LayoutOrec} {
		if l.String() == cfg.layout {
			layout, found = l, true
		}
	}
	if !found {
		return nil, fmt.Errorf("startup line %q: unknown layout %q", cfg.line, cfg.layout)
	}
	opts := []server.Option{server.WithMaxConns(cfg.maxConns), server.WithLayout(layout)}
	if cfg.fsync != "" {
		p, err := wal.ParsePolicy(cfg.fsync)
		if err != nil {
			return nil, fmt.Errorf("startup line %q: %w", cfg.line, err)
		}
		opts = append(opts, server.WithPersistence(dir, p))
	}
	return server.New(opts...)
}

// replayer runs one command stream in-process, the way the server's
// connection loop does: decode with proto.Reader, call the shardmap
// Thread method the server calls, encode the reply with proto.Writer.
type replayer struct {
	w   *workload
	kt  *keyTable
	th  *shardmap.Thread
	gen *generator
	rec *recorder

	in bytes.Buffer // the client's encoded commands
	cw *proto.Writer
	rd *proto.Reader
	wr *proto.Writer

	mkeys  []string
	mvals  []shardmap.Value
	mfound []bool
	skeys  []string
	svals  []shardmap.Value

	failed   int
	firstBad string
}

func newReplayer(w *workload, kt *keyTable, th *shardmap.Thread, gen *generator, rec *recorder) *replayer {
	r := &replayer{w: w, kt: kt, th: th, gen: gen, rec: rec,
		mkeys: make([]string, 3), mvals: make([]shardmap.Value, 3), mfound: make([]bool, 3)}
	r.cw = proto.NewWriter(&r.in)
	r.rd = proto.NewReader(&r.in)
	r.wr = proto.NewWriter(io.Discard)
	r.rd.OnFill = r.wr.Flush
	return r
}

func bstr(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(unsafe.SliceData(b), len(b))
}

func parseVal(b []byte) word.Value {
	u, _ := strconv.ParseUint(bstr(b), 10, 64)
	return word.FromUint(u)
}

// run replays n commands in pipeline batches of depth, as the wire
// client sends them.
func (r *replayer) run(n int) {
	var batch [depth]command
	for done := 0; done < n; done += depth {
		for i := range batch {
			batch[i] = r.gen.next()
			encode(r.cw, r.kt, &batch[i])
		}
		r.cw.Flush()
		for i := range batch {
			r.one(&batch[i])
		}
	}
}

func (r *replayer) bad(s string) {
	r.failed++
	if r.firstBad == "" {
		r.firstBad = s
	}
}

// one decodes, executes and encodes one command, recording the spans
// cmd → proto.decode, shardmap.<op>, proto.encode.
func (r *replayer) one(c *command) {
	rec := r.rec
	t0 := rec.now()
	args, err := r.rd.Next()
	t1 := rec.now()
	if err != nil {
		r.bad(fmt.Sprintf("replay decode: %v", err))
		return
	}
	cmd, args := args[0], args[1:]
	var t2, t3 int64
	var ok bool
	var val uint64
	th := r.th
	switch {
	case proto.CmdEq(cmd, "GET"):
		t2 = rec.now()
		v, found := th.Get(bstr(args[0]))
		t3 = rec.now()
		if found {
			r.wr.Uint(v.Uint())
		} else {
			r.wr.Null()
		}
		ok, val = found, v.Uint()
	case proto.CmdEq(cmd, "SET"):
		v := parseVal(args[1])
		t2 = rec.now()
		if !th.Update(bstr(args[0]), v) {
			th.Put(strings.Clone(bstr(args[0])), v)
		}
		t3 = rec.now()
		r.wr.SimpleString("OK")
	case proto.CmdEq(cmd, "DEL"):
		t2 = rec.now()
		ok = th.Delete(bstr(args[0]))
		t3 = rec.now()
		r.boolReply(ok)
	case proto.CmdEq(cmd, "CAS"):
		old, new := parseVal(args[1]), parseVal(args[2])
		t2 = rec.now()
		ok = th.CompareAndSwap(bstr(args[0]), old, new)
		t3 = rec.now()
		r.boolReply(ok)
	case proto.CmdEq(cmd, "SWAP2"):
		t2 = rec.now()
		ok = th.Swap2(bstr(args[0]), bstr(args[1]))
		t3 = rec.now()
		r.boolReply(ok)
	case proto.CmdEq(cmd, "MGET"):
		n := len(args)
		keys, vals, found := r.mkeys[:n], r.mvals[:n], r.mfound[:n]
		for i, a := range args {
			keys[i] = bstr(a)
		}
		t2 = rec.now()
		th.GetBatch(keys, vals, found)
		t3 = rec.now()
		r.wr.Array(n)
		for i := range keys {
			if found[i] {
				r.wr.Uint(vals[i].Uint())
			} else {
				r.wr.Null()
			}
		}
	case proto.CmdEq(cmd, "SCAN"), proto.CmdEq(cmd, "ISCAN"):
		limit, _ := strconv.Atoi(bstr(args[len(args)-1]))
		var keys []string
		var vals []shardmap.Value
		var err error
		t2 = rec.now()
		if len(args) == 3 {
			keys, vals, err = th.Scan(bstr(args[0]), bstr(args[1]), limit, r.skeys[:0], r.svals[:0])
		} else {
			keys, vals, err = th.IndexScan(bstr(args[0]), bstr(args[1]), bstr(args[2]), limit, r.skeys[:0], r.svals[:0])
		}
		t3 = rec.now()
		r.skeys, r.svals = keys, vals
		if err != nil {
			r.wr.Error("ERR scan: " + err.Error())
			r.bad(fmt.Sprintf("replay %s: %v", opNames[c.kind], err))
			break
		}
		r.wr.Array(2 * len(keys))
		for i, k := range keys {
			r.wr.BulkString(k)
			r.wr.Uint(vals[i].Uint())
		}
	default:
		r.bad(fmt.Sprintf("replay: unexpected command %q", cmd))
		return
	}
	t4 := rec.now()
	if r.w.stable {
		r.check(c, ok, val)
	}
	r.gen.observe(c, ok, val)
	trace := rec.base | (rec.n + 1) // the root span's id
	root := rec.add(trace, 0, "cmd", t0, t4)
	rec.add(trace, root, "proto.decode", t0, t1)
	rec.add(trace, root, mapSpan[c.kind], t2, t3)
	rec.add(trace, root, "proto.encode", t3, t4)
}

// check verifies a stable workload's results the way the wire checks
// do: GET and MGET hit with values owned by their keys, SCAN returns
// the scanLimit keys from its start key.
func (r *replayer) check(c *command, found bool, val uint64) {
	switch c.kind {
	case opGet:
		if !found || !ownedBy(val, int(c.keys[0])) {
			r.bad(fmt.Sprintf("replay get %d: found %v value %#x", c.keys[0], found, val))
		}
	case opMGet:
		for i, k := range c.keys[:c.nkeys] {
			if !r.mfound[i] || !ownedBy(r.mvals[i].Uint(), int(k)) {
				r.bad(fmt.Sprintf("replay mget %d: found %v value %#x", k, r.mfound[i], r.mvals[i].Uint()))
			}
		}
	case opScan:
		start := int(c.keys[0])
		for i, k := range r.skeys {
			if i >= scanLimit || start+i >= r.w.keys || k != r.kt.names[start+i] || !ownedBy(r.svals[i].Uint(), start+i) {
				r.bad(fmt.Sprintf("replay scan from %d: result %d is %s", start, i, k))
				return
			}
		}
		if len(r.skeys) != min(scanLimit, r.w.keys-start) {
			r.bad(fmt.Sprintf("replay scan from %d: %d keys", start, len(r.skeys)))
		}
	}
}

// mapSpan names each command's shardmap span.
var mapSpan = func() (names [numOps]string) {
	for k, n := range opNames {
		names[k] = "shardmap." + n
	}
	return names
}()

func (r *replayer) boolReply(ok bool) {
	if ok {
		r.wr.Int(1)
	} else {
		r.wr.Int(0)
	}
}

// replayResult is what the in-process replay measured.
type replayResult struct {
	spans     []span // main streams first, then the probe tail
	mainSpans int
	stats     core.Stats // the stream threads' transaction outcomes
	failed    int
	firstBad  string
	probe     map[string]float64 // core and wal probe metrics
}

// replay runs the workload's first replayCmds commands of each wire
// stream in-process on conns goroutines, then a short single-stream
// probe tail for every command type the workload does not send, then
// the core and wal probes. dir is scratch space for persistence.
func replay(w *workload, kt *keyTable, cfg serverConfig, seed uint64, dir string, origin time.Time) (*replayResult, error) {
	srv, err := buildReplayServer(cfg, dir+"/data")
	if err != nil {
		return nil, err
	}
	m := srv.Map()
	loader := m.NewThread()
	for i, k := range kt.names {
		loader.Put(k, word.FromUint(initialValue(i)))
	}
	if w.index {
		if err := loader.CreateIndex(indexName, "value"); err != nil {
			srv.Shutdown()
			return nil, err
		}
	}

	res := &replayResult{}
	reps := make([]*replayer, conns)
	var wg sync.WaitGroup
	for i := range reps {
		reps[i] = newReplayer(w, kt, m.NewThread(), newGenerator(w, seed, i), newRecorder(origin, uint64(16+i)))
		wg.Add(1)
		go func(r *replayer) {
			defer wg.Done()
			r.run(replayCmds)
		}(reps[i])
	}
	wg.Wait()
	for _, r := range reps {
		res.spans = append(res.spans, r.rec.spans...)
		res.stats.Add(r.th.Thr().Stats)
		res.failed += r.failed
		if res.firstBad == "" {
			res.firstBad = r.firstBad
		}
	}
	res.mainSpans = len(res.spans)

	// The probe tail runs unchecked: DEL and SWAP2 break the value
	// ownership a stable workload's checks rely on.
	tail := newRecorder(origin, 32)
	tailTh := m.NewThread()
	for _, k := range []opKind{opSet, opCAS, opSwap2, opMGet, opScan, opIScan, opDel} {
		if w.mix[k] > 0 {
			continue
		}
		if k == opIScan && !w.index {
			if err := tailTh.CreateIndex(indexName, "value"); err != nil {
				srv.Shutdown()
				return nil, err
			}
		}
		pw := *w
		pw.mix, pw.stable = [numOps]int{}, false
		pw.mix[k] = 100
		newReplayer(&pw, kt, tailTh, newGenerator(&pw, seed, 100+int(k)), tail).run(tailCmds)
	}
	res.spans = append(res.spans, tail.spans...)

	if res.probe, err = probeLayers(m, kt, dir+"/walprobe"); err != nil {
		srv.Shutdown()
		return nil, err
	}
	if err := srv.Shutdown(); err != nil {
		return nil, fmt.Errorf("replay server shutdown: %w", err)
	}
	return res, nil
}

// probeLayers times calls into core (on the replay map's engine, so
// sizing matches the child) and into a wal.Log with the default policy
// and the map's shard count. Calls under a microsecond are timed in
// batches and divided; each metric is the median batch.
func probeLayers(m *shardmap.Map, kt *keyTable, walDir string) (map[string]float64, error) {
	const batches, per = 64, 1024
	out := make(map[string]float64)
	timeBatches := func(f func()) float64 {
		var ns []float64
		for b := 0; b < batches; b++ {
			t0 := time.Now()
			for i := 0; i < per; i++ {
				f()
			}
			ns = append(ns, float64(time.Since(t0))/per)
		}
		return median(ns)
	}

	e := m.Engine()
	t := e.Register()
	a, b, c := e.NewVar(word.FromUint(1)), e.NewVar(word.FromUint(2)), e.NewVar(word.FromUint(3))
	var sink word.Value
	out["core.ro2_ns"] = timeBatches(func() {
		x, y := core.DoRO2(t, a, b)
		sink ^= x ^ y
	})
	out["core.rw2_ns"] = timeBatches(func() {
		core.DoRW2(t, a, b, func(x, y core.Value) (core.Value, core.Value, bool) { return y, x, true })
	})
	out["core.full_ro3_ns"] = timeBatches(func() {
		t.Atomic(func() bool {
			sink ^= t.TxRead(a) ^ t.TxRead(b) ^ t.TxRead(c)
			return true
		})
	})
	_ = sink

	if err := os.RemoveAll(walDir); err != nil {
		return out, err
	}
	l, err := wal.Open(walDir, m.Shards(), wal.Options{})
	if err != nil {
		return out, fmt.Errorf("wal probe: %w", err)
	}
	defer os.RemoveAll(walDir)
	size0 := l.Size()
	n := 0
	out["wal.append_ns"] = timeBatches(func() {
		l.Put(n%m.Shards(), kt.names[n%len(kt.names)], initialValue(n%len(kt.names)))
		n++
	})
	var flushMS []float64
	for round := 0; round < 16; round++ {
		for i := 0; i < per; i++ {
			l.Put(n%m.Shards(), kt.names[n%len(kt.names)], initialValue(n%len(kt.names)))
			n++
		}
		t0 := time.Now()
		if err := l.Flush(); err != nil {
			l.Close()
			return out, fmt.Errorf("wal probe flush: %w", err)
		}
		flushMS = append(flushMS, float64(time.Since(t0))/1e6)
	}
	out["wal.flush_ms"] = median(flushMS)
	out["wal.bytes_per_record"] = float64(l.Size()-size0) / float64(n)
	if err := l.Close(); err != nil {
		return out, fmt.Errorf("wal probe close: %w", err)
	}
	return out, nil
}
