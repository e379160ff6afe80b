package main

import (
	"fmt"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"spectm/internal/proto"
)

const (
	// conns is the number of client connections, one per core of the
	// 2-core machine the benchmark is sized for.
	conns = 2
	// depth is the number of commands each connection keeps in flight.
	depth = 16
	// traceEvery: the traced window records the spans of one pipeline
	// batch in this many, which bounds the spans kept in memory.
	traceEvery = 32
	// slice is the length of the sub-windows throughput is counted in.
	slice = 100 * time.Millisecond
)

// countingConn counts the bytes a connection moves.
type countingConn struct {
	net.Conn
	in, out int64
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	c.in += int64(n)
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	c.out += int64(n)
	return n, err
}

// client is one closed-loop connection with its command stream.
type client struct {
	nc  *countingConn
	wr  *proto.Writer
	rc  replyChecker
	gen *generator
	kt  *keyTable
}

func dial(addr string, w *workload, kt *keyTable, gen *generator) (*client, error) {
	nc, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	cc := &countingConn{Conn: nc}
	return &client{
		nc:  cc,
		wr:  proto.NewWriter(cc),
		rc:  replyChecker{w: w, rd: proto.NewReader(cc)},
		gen: gen,
		kt:  kt,
	}, nil
}

func (c *client) close() { c.nc.Close() }

// do sends one command and returns its reply, for set-up and checks.
func (c *client) do(args ...string) (proto.Reply, error) {
	c.wr.Array(len(args))
	for _, a := range args {
		c.wr.Arg(a)
	}
	if err := c.wr.Flush(); err != nil {
		return proto.Reply{}, err
	}
	var rep proto.Reply
	if err := c.rc.rd.ReadReply(&rep); err != nil {
		return rep, err
	}
	if rep.Kind == proto.KindError {
		return rep, fmt.Errorf("%s: %s", args[0], rep.Str)
	}
	return rep, nil
}

// preload stores every key's initial value, pipelined.
func (c *client) preload(keys int) error {
	const chunk = 512
	var rep proto.Reply
	for base := 0; base < keys; base += chunk {
		n := min(chunk, keys-base)
		for i := base; i < base+n; i++ {
			c.wr.Array(3)
			c.wr.Arg("SET")
			c.wr.Arg(c.kt.names[i])
			c.wr.ArgUint(initialValue(i))
		}
		if err := c.wr.Flush(); err != nil {
			return err
		}
		for i := 0; i < n; i++ {
			if err := c.rc.rd.ReadReply(&rep); err != nil {
				return err
			}
			if rep.Kind != proto.KindSimple {
				return fmt.Errorf("preload SET: reply %q %q", rep.Kind, rep.Str)
			}
		}
	}
	return nil
}

// stats reads the server's STATS counters.
func (c *client) stats() (map[string]float64, error) {
	rep, err := c.do("STATS")
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(rep.Str), "\n") {
		k, v, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if f, err := strconv.ParseFloat(v, 64); err == nil {
			out[k] = f
		}
	}
	return out, nil
}

// fullScan returns every key and value in key order, as one string.
func (c *client) fullScan() (string, error) {
	c.wr.Array(4)
	c.wr.Arg("SCAN")
	c.wr.Arg("")
	c.wr.Arg("")
	c.wr.Arg("0")
	if err := c.wr.Flush(); err != nil {
		return "", err
	}
	rd := c.rc.rd
	var rep proto.Reply
	if err := rd.ReadReply(&rep); err != nil {
		return "", err
	}
	if rep.Kind != proto.KindArray {
		return "", fmt.Errorf("full SCAN: reply %q %q", rep.Kind, rep.Str)
	}
	var b strings.Builder
	for i := int64(0); i < rep.Int; i++ {
		var e proto.Reply
		if err := rd.ReadReply(&e); err != nil {
			return "", err
		}
		if e.Kind == proto.KindInt {
			fmt.Fprintf(&b, "=%d\n", e.Int)
		} else {
			b.Write(e.Str)
		}
	}
	return b.String(), nil
}

// window is what one measured (or warm-up) window of one connection
// produced.
type window struct {
	attempted, failed int64
	lat               []uint32 // per-command latency, ns
	bytesOut, bytesIn int64
	spans             []span
	firstBad          string
	ioErr             error
	// slices[i] counts the commands completed in the i-th slice of the
	// window; a trailing partial slice is not counted.
	slices []int64
}

// batch is one pipeline batch in flight on a connection.
type batch struct {
	cmds                   [depth]command
	start                  time.Time // flush start: latencies run from here
	traced                 bool
	tEnc, tFlush, tFlushed int64
	reads                  [depth][2]int64
}

// send draws, encodes and flushes the next batch. With rec set, one
// batch in traceEvery records its spans: wire.batch (encode start to
// last reply) with children proto.client_encode, server.flush and one
// proto.read_reply per command.
func (c *client) send(wd *window, rec *recorder, no uint64, b *batch) bool {
	for i := range b.cmds {
		b.cmds[i] = c.gen.next()
	}
	b.traced = rec != nil && no%traceEvery == 0
	if b.traced {
		b.tEnc = rec.now()
	}
	for i := range b.cmds {
		encode(c.wr, c.kt, &b.cmds[i])
	}
	if b.traced {
		b.tFlush = rec.now()
	}
	b.start = time.Now()
	err := c.wr.Flush()
	if b.traced {
		b.tFlushed = rec.now()
	}
	wd.attempted += depth
	if err != nil {
		wd.failed += depth
		wd.ioErr = err
		return false
	}
	return true
}

// recv reads and checks the batch's replies. A command's latency runs
// from the flush of its batch to the read of its reply.
func (c *client) recv(wd *window, rec *recorder, no uint64, b *batch) bool {
	for i := range b.cmds {
		if b.traced {
			b.reads[i][0] = rec.now()
		}
		ok, val, bad, err := c.rc.read(&b.cmds[i])
		if err != nil {
			wd.failed += int64(depth - i)
			wd.ioErr = err
			return false
		}
		d := time.Since(b.start)
		if b.traced {
			b.reads[i][1] = rec.now()
		}
		wd.lat = append(wd.lat, uint32(min(d, 1<<32-1)))
		if bad != "" {
			wd.failed++
			if wd.firstBad == "" {
				wd.firstBad = bad
			}
		}
		c.gen.observe(&b.cmds[i], ok, val)
	}
	if b.traced {
		trace := rec.base | no
		root := rec.add(trace, 0, "wire.batch", b.tEnc, b.reads[depth-1][1])
		rec.add(trace, root, "proto.client_encode", b.tEnc, b.tFlush)
		rec.add(trace, root, "server.flush", b.tFlush, b.tFlushed)
		for _, r := range b.reads {
			rec.add(trace, root, "proto.read_reply", r[0], r[1])
		}
	}
	return true
}

// sliceTick counts a finished batch into the window's slices.
func (wd *window) sliceTick(now time.Time, sliceEnd *time.Time, inSlice *int64) {
	*inSlice += depth
	if !now.Before(*sliceEnd) {
		wd.slices = append(wd.slices, *inSlice)
		*sliceEnd, *inSlice = sliceEnd.Add(slice), 0
	}
}

// runWindow drives every client concurrently until deadline, each on
// its own goroutine: closed loop, send a batch, read its replies, repeat.
func runWindow(clients []*client, d time.Duration, traced bool, origin time.Time, latCap int) ([]window, []float64, time.Duration) {
	out := make([]window, len(clients))
	var wg sync.WaitGroup
	start := time.Now()
	deadline := start.Add(d)
	steal := make(chan []float64, 1)
	go func() { steal <- sampleSteal(start, deadline) }()
	for i, c := range clients {
		var rec *recorder
		if traced {
			rec = newRecorder(origin, uint64(i+1))
		}
		wg.Add(1)
		out[i].lat = make([]uint32, 0, latCap)
		go func(wd *window, c *client) {
			defer wg.Done()
			in0, out0 := c.nc.in, c.nc.out
			sliceEnd, inSlice := start.Add(slice), int64(0)
			var b batch
			for no := uint64(1); time.Now().Before(deadline); no++ {
				if !c.send(wd, rec, no, &b) || !c.recv(wd, rec, no, &b) {
					break
				}
				wd.sliceTick(time.Now(), &sliceEnd, &inSlice)
			}
			wd.bytesIn, wd.bytesOut = c.nc.in-in0, c.nc.out-out0
			if rec != nil {
				wd.spans = rec.spans
			}
		}(&out[i], c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	st := <-steal
	for _, wd := range out {
		if wd.ioErr != nil {
			fmt.Fprintf(os.Stderr, "perfbench: connection broken: %v\n", wd.ioErr)
		}
		if wd.firstBad != "" {
			fmt.Fprintf(os.Stderr, "perfbench: reply check failed: %s\n", wd.firstBad)
		}
	}
	return out, st, elapsed
}
