// Command perfbench is the repository's serving benchmark. It runs the
// spectm-server binary as a child process at its default flags, drives
// it with closed-loop pipelined traffic from one process (conns
// connections, depth commands in flight each), checks every reply and
// prints the end-to-end metrics of one workload. With -trace 1 it
// instead prints per-layer metrics: from a traced wire window, from an
// in-process replay of the same command stream, from timed calls into
// core and wal, and from the server's STATS counters.
//
// Usage (from the repository root, after building the server):
//
//	perfbench -server bin/spectm-server -work .bench_build/perfbench \
//	    -workload point-read -seed 1 -seconds 20 -trace 0
//
// The last line of standard output is the result as one JSON object.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// setups is how many times an untraced run sets the server up;
	// setup_s is the least of them, since interference from other
	// tenants of the machine can only add time.
	setups = 5
	// warmup runs the workload unmeasured before the first window.
	warmup = time.Second
	// walWarm is the log size a persistent workload's warm-up reaches:
	// below the server's 128 MiB auto-compaction threshold by less than
	// a measured window writes.
	walWarm = 80 << 20
	// clientProcs is the GOMAXPROCS of the benchmark while it drives the
	// server. The client needs under half a vCPU; with one P its two
	// connection goroutines take turns instead of running two more
	// threads against the server's on a two-vCPU machine. Over 14 pairs
	// of interleaved point-read runs the quartile spread of p99 between
	// runs was 0.07-0.12 of its median with one P and 0.18-0.25 with
	// two, at the same medians.
	clientProcs = 1
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the final line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	w       *workload
	seed    uint64
	seconds int
	trace   bool
	server  string // spectm-server binary
	work    string // scratch directory inside the checkout
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: write-wal or range-scan (or the ungated point-read)")
		seed    = flag.Uint64("seed", 1, "workload seed")
		seconds = flag.Int("seconds", 20, "measured seconds")
		trace   = flag.Int("trace", 0, "1: report per-layer metrics from a traced run")
		srv     = flag.String("server", "", "spectm-server binary")
		work    = flag.String("work", ".bench_build/perfbench", "scratch directory")
	)
	flag.Parse()
	w, err := workloadByName(*name)
	if err == nil && *srv == "" {
		err = errors.New("-server is required")
	}
	if err == nil && (*seconds < 1 || *trace < 0 || *trace > 1) {
		err = fmt.Errorf("bad -seconds %d or -trace %d", *seconds, *trace)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(2)
	}
	opt := options{w: w, seed: *seed, seconds: *seconds, trace: *trace == 1, server: *srv, work: *work}
	res, err := run(opt)
	stopAll()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// bench is one run's state.
type bench struct {
	options
	kt        *keyTable
	dir       string // this run's scratch directory
	args      []string
	srv       *child
	attempted int64
	failed    int64
	bad       []string // failed correctness checks
	origin    time.Time
	procs     int // GOMAXPROCS before the wire phase set clientProcs
}

func (s *bench) serverArgs(dataDir string) []string {
	args := []string{"-addr", "127.0.0.1:0"}
	if s.w.wal {
		args = append(args, "-data-dir", dataDir)
	}
	return args
}

// setUp starts a fresh server and loads the workload's keys (and
// index). It returns the time from process start to loaded.
func (s *bench) setUp(i int) (time.Duration, error) {
	dataDir := filepath.Join(s.dir, fmt.Sprintf("data-%d", i))
	t0 := time.Now()
	c, _, err := startChild(s.server, s.serverArgs(dataDir)...)
	if err != nil {
		return 0, err
	}
	ctl, err := dial(c.cfg.addr, s.w, s.kt, nil)
	if err != nil {
		return 0, err
	}
	defer ctl.close()
	if err := ctl.preload(s.w.keys); err != nil {
		return 0, fmt.Errorf("preload: %w", err)
	}
	if s.w.index {
		if _, err := ctl.do("IDXCREATE", indexName, "value"); err != nil {
			return 0, err
		}
	}
	took := time.Since(t0)
	s.srv, s.args = c, s.serverArgs(dataDir)
	return took, nil
}

// wireRun is the outcome of one measured window over every connection.
type wireRun struct {
	windows []window
	steal   []float64 // the hypervisor's share of CPU time, per slice
	elapsed time.Duration
	done    int64 // commands with a reply
}

// latencies returns every connection's command latencies (ns) in one
// new slice.
func (r *wireRun) latencies() []uint32 {
	var lat []uint32
	for _, wd := range r.windows {
		lat = append(lat, wd.lat...)
	}
	return lat
}

func (r *wireRun) opsPerSec() float64 { return float64(r.done) / r.elapsed.Seconds() }

// nslices is the number of whole slices every connection completed.
func (r *wireRun) nslices() int {
	n := -1
	for _, wd := range r.windows {
		if n < 0 || len(wd.slices) < n {
			n = len(wd.slices)
		}
	}
	return max(n, 0)
}

// calm is the part of a window that counts: its calm slices (see
// calmSlices) pooled over all connections.
type calm struct {
	slices int      // slices kept
	done   int64    // commands completed in them
	lat    []uint32 // their command latencies, ns
}

// rate is the commands per second over the kept slices.
func (c *calm) rate() float64 { return ratio(float64(c.done), float64(c.slices)*slice.Seconds()) }

// calm pools the window's calm slices: their commands over their time
// and their latencies into one sample, so a cost that lands in a few
// slices (a group-commit fsync, a compaction, a GC pause) counts in
// proportion to how often it lands.
func (r *wireRun) calm() *calm {
	n := r.nslices()
	kept := calmSlices(r.steal, n)
	c := &calm{slices: len(kept)}
	offs := make([]int64, len(r.windows))
	for i := 0; i < n; i++ {
		take := len(kept) > 0 && kept[0] == i
		if take {
			kept = kept[1:]
		}
		for w, wd := range r.windows {
			if take {
				c.lat = append(c.lat, wd.lat[offs[w]:offs[w]+wd.slices[i]]...)
				c.done += wd.slices[i]
			}
			offs[w] += wd.slices[i]
		}
	}
	return c
}

func (s *bench) window(clients []*client, d time.Duration, traced bool) *wireRun {
	latCap := int(d.Seconds()*300_000) / len(clients)
	// Collect the previous windows' garbage now, not inside this one.
	runtime.GC()
	wins, steal, elapsed := runWindow(clients, d, traced, s.origin, latCap)
	r := &wireRun{windows: wins, steal: steal, elapsed: elapsed}
	for _, wd := range wins {
		s.attempted += wd.attempted
		s.failed += wd.failed
		if wd.ioErr != nil {
			s.bad = append(s.bad, "connection broken: "+wd.ioErr.Error())
		}
		if wd.firstBad != "" {
			s.bad = append(s.bad, wd.firstBad)
		}
		r.done += int64(len(wd.lat))
	}
	return r
}

// warmUp runs the workload unmeasured for warmup. On a persistent
// workload it goes on until the log holds walWarm bytes, so that
// auto-compaction fires inside every measured window. It returns the
// STATS counters at its end.
func (s *bench) warmUp(clients []*client, ctl *client) (map[string]float64, error) {
	s.window(clients, warmup, false)
	for i := 0; ; i++ {
		st, err := ctl.stats()
		if err != nil || !s.w.wal || st["wal_bytes"] >= walWarm {
			return st, err
		}
		if i == 90 {
			return nil, fmt.Errorf("warm-up: log at %.0f bytes after 90 s", st["wal_bytes"])
		}
		s.window(clients, warmup, false)
	}
}

// restart stops the server, starts it again on the same flags and
// returns the time until it listens. On a persistent workload a full
// SCAN before and after must agree.
func (s *bench) restart() (time.Duration, error) {
	var before string
	if s.w.wal {
		ctl, err := dial(s.srv.cfg.addr, s.w, s.kt, nil)
		if err != nil {
			return 0, err
		}
		before, err = ctl.fullScan()
		ctl.close()
		if err != nil {
			return 0, fmt.Errorf("full SCAN before restart: %w", err)
		}
	}
	if err := s.srv.stop(); err != nil {
		return 0, fmt.Errorf("server exit: %w", err)
	}
	c, took, err := startChild(s.server, s.args...)
	if err != nil {
		return 0, fmt.Errorf("restart: %w", err)
	}
	s.srv = c
	if s.w.wal {
		ctl, err := dial(c.cfg.addr, s.w, s.kt, nil)
		if err != nil {
			return 0, err
		}
		after, err := ctl.fullScan()
		ctl.close()
		if err != nil {
			return 0, fmt.Errorf("full SCAN after restart: %w", err)
		}
		if after != before {
			s.bad = append(s.bad, "restart: full SCAN differs: "+scanDiff(before, after))
		}
	}
	return took, nil
}

// scanDiff describes where two full SCANs (one "key=value" line per
// key) part.
func scanDiff(before, after string) string {
	b, a := strings.Split(before, "\n"), strings.Split(after, "\n")
	for i := 0; i < min(len(a), len(b)); i++ {
		if a[i] != b[i] {
			return fmt.Sprintf("%d keys before, %d after; line %d was %q, is %q", len(b)-1, len(a)-1, i, b[i], a[i])
		}
	}
	return fmt.Sprintf("%d keys before, %d after; one is a prefix of the other", len(b)-1, len(a)-1)
}

func run(opt options) (*result, error) {
	s := &bench{options: opt, kt: newKeyTable(opt.w), origin: time.Now()}
	var err error
	if s.dir, err = filepath.Abs(filepath.Join(opt.work, fmt.Sprintf("%s-%d", opt.w.name, os.Getpid()))); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(s.dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(s.dir)
	s.procs = runtime.GOMAXPROCS(clientProcs)

	n := setups
	if opt.trace {
		n = 1
	}
	var setupS []float64
	for i := 0; i < n; i++ {
		if s.srv != nil {
			if err := s.srv.stop(); err != nil {
				return nil, fmt.Errorf("server exit: %w", err)
			}
			os.RemoveAll(filepath.Join(s.dir, fmt.Sprintf("data-%d", i-1)))
		}
		took, err := s.setUp(i)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, took.Seconds())
	}

	clients := make([]*client, conns)
	for i := range clients {
		if clients[i], err = dial(s.srv.cfg.addr, s.w, s.kt, newGenerator(s.w, s.seed, i)); err != nil {
			return nil, err
		}
	}
	ctl, err := dial(s.srv.cfg.addr, s.w, s.kt, nil)
	if err != nil {
		return nil, err
	}
	before, err := s.warmUp(clients, ctl)
	if err != nil {
		return nil, err
	}
	d := time.Duration(opt.seconds) * time.Second
	if opt.trace {
		d /= 2 // the traced window takes the other half
	}
	cpu0, err := s.cpuTimes()
	if err != nil {
		return nil, err
	}
	plain := s.window(clients, d, false)
	cpu1, err := s.cpuTimes()
	if err != nil {
		return nil, err
	}
	s.printMeta(plain.elapsed, cpu1[0]-cpu0[0], cpu1[1]-cpu0[1])
	after, err := ctl.stats()
	if err != nil {
		return nil, err
	}
	var traced *wireRun
	if opt.trace {
		traced = s.window(clients, d, true)
	}
	rss, err := s.srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	if s.w.wal {
		end, err := ctl.stats()
		if err != nil {
			return nil, err
		}
		fmt.Printf("log bytes: %.0f at window start, %.0f at the end (auto-compaction at 128 MiB empties it)\n",
			before["wal_bytes"], end["wal_bytes"])
	}
	for _, c := range clients {
		c.close()
	}
	ctl.close()

	var recovery time.Duration
	if s.w.wal || opt.trace {
		if recovery, err = s.restart(); err != nil {
			return nil, err
		}
	}
	if err := s.srv.stop(); err != nil {
		return nil, fmt.Errorf("server exit: %w", err)
	}

	res := &result{Metrics: map[string]metric{}}
	if opt.trace {
		// The replay stands in for the server: give it the server's Ps.
		runtime.GOMAXPROCS(s.procs)
		rp, err := replay(s.w, s.kt, s.srv.cfg, s.seed, filepath.Join(s.dir, "replay"), s.origin)
		if err != nil {
			return nil, fmt.Errorf("replay: %w", err)
		}
		if rp.failed > 0 {
			s.failed += int64(rp.failed)
			s.bad = append(s.bad, rp.firstBad)
		}
		if err := s.layerMetrics(res, plain, traced, rp, before, after, recovery); err != nil {
			return nil, err
		}
	} else {
		s.endToEnd(res, plain, setupS, rss)
	}
	for _, b := range s.bad {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", b)
	}
	res.Correct = len(s.bad) == 0 && s.failed == 0
	res.Attempted, res.Failed = s.attempted, s.failed
	if res.Attempted == 0 {
		return nil, errors.New("no commands attempted")
	}
	defs := endToEndDefs
	if opt.trace {
		defs = perLayerDefs
	}
	if err := checkReported(res.Metrics, defs); err != nil {
		return nil, err
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s has no value", name)
		}
	}
	return res, nil
}

func (s *bench) endToEnd(res *result, plain *wireRun, setupS []float64, rss float64) {
	c := plain.calm()
	q, n := quantiles(c.lat, 0.5, 0.99)
	ops, p50, p99 := c.rate(), q[0]/1e3, q[1]/1e3
	setup := slices.Min(setupS)
	res.Metrics["ops_per_s"] = metric{ops, "1/s"}
	res.Metrics["p50_us"] = metric{p50, "us"}
	res.Metrics["p99_us"] = metric{p99, "us"}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["rss_mb"] = metric{rss, "MB"}

	wq, wn := quantiles(plain.latencies(), 0.5, 0.99)
	stolen := 0.0
	for _, st := range plain.steal {
		stolen += st / float64(len(plain.steal))
	}
	fmt.Printf("workload %s seed %d: %d commands in %.3fs, %d failed; %d of %d slices of %v calm (hypervisor steal %.1f%% over the window)\n",
		s.w.name, s.seed, wn, plain.elapsed.Seconds(), s.failed, c.slices, plain.nslices(), slice, 100*stolen)
	fmt.Printf("  ops_per_s %.1f 1/s (calm slices; whole window %.1f)\n", ops, plain.opsPerSec())
	fmt.Printf("  p50_us %.3f us (n=%d over the calm slices; whole window %.3f, n=%d)\n", p50, n, wq[0]/1e3, wn)
	fmt.Printf("  p99_us %.3f us (n=%d, %d beyond; whole window %.3f)\n", p99, n, n-int(math.Ceil(0.99*float64(n))), wq[1]/1e3)
	fmt.Printf("  setup_s %.4f s (least of %d set-ups: %s)\n", setup, len(setupS), fmtSeconds(setupS))
	fmt.Printf("  rss_mb %.2f MB\n", rss)
	fmt.Printf("  error_frac %.6f (%d of %d)\n", ratio(float64(s.failed), float64(s.attempted)), s.failed, s.attempted)
}

func fmtSeconds(v []float64) string {
	f := make([]string, len(v))
	for i, x := range v {
		f[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(f, " ")
}

// cpuTimes returns the CPU seconds this process and the server have
// used so far.
func (s *bench) cpuTimes() ([2]float64, error) {
	self, err := cpuSeconds("self")
	if err != nil {
		return [2]float64{}, err
	}
	srv, err := cpuSeconds(strconv.Itoa(s.srv.cmd.Process.Pid))
	return [2]float64{self, srv}, err
}

// printMeta records what the numbers were measured on, and how the
// CPU time of the untraced window split between the benchmark (client)
// and the server.
func (s *bench) printMeta(window time.Duration, clientCPU, serverCPU float64) {
	fsync := "none (in memory)"
	if s.srv.cfg.fsync != "" {
		fsync = s.srv.cfg.fsync
	}
	meta := map[string]any{
		"workload":      s.w.name,
		"seed":          s.seed,
		"seconds":       s.seconds,
		"trace":         s.trace,
		"commit":        commit(),
		"source_sha256": sourceHash(),
		"go":            runtime.Version(),
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    s.procs, // the server's too: it inherits the environment
		"client_procs":  runtime.GOMAXPROCS(0),
		"fsync":         fsync,
		"startup_line":  s.srv.cfg.line,
		"conns":         conns,
		"depth":         depth,
		"window_s":      window.Seconds(),
		"client_cpu_s":  clientCPU,
		"server_cpu_s":  serverCPU,
	}
	b, _ := json.Marshal(meta)
	fmt.Printf("run %s\n", b)
}

// commit is the git commit of the tree, or "none" outside a git
// checkout (source_sha256 identifies the tree either way).
func commit() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "none"
	}
	return strings.TrimSpace(string(out))
}

// sourceHash hashes the Go sources and module files of the tree the
// benchmark runs in, in path order.
func sourceHash() string {
	var paths []string
	filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && p != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod" || d.Name() == "go.sum") {
			paths = append(paths, p)
		}
		return nil
	})
	sort.Strings(paths)
	h := sha256.New()
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", p)
		io.Copy(h, f)
		f.Close()
	}
	return hex.EncodeToString(h.Sum(nil))
}
