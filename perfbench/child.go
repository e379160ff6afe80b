package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// startupRe matches the server's startup log line.
var startupRe = regexp.MustCompile(`spectm-server: listening on (\S+) \((.*)\)`)

// serverConfig is what the child reports about itself at startup; the
// replay builds its in-process stack from it.
type serverConfig struct {
	line     string // the startup line as logged
	addr     string
	layout   string
	maxConns int
	fsync    string // "" when in memory
}

// parseStartup extracts the configuration from a startup line. The
// replay must match the child, so a line without layout and maxconns
// is an error.
func parseStartup(line string) (serverConfig, error) {
	m := startupRe.FindStringSubmatch(line)
	if m == nil {
		return serverConfig{}, fmt.Errorf("unrecognised startup line %q", line)
	}
	cfg := serverConfig{line: line, addr: m[1]}
	for _, f := range strings.Fields(strings.ReplaceAll(m[2], ",", " ")) {
		k, v, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch k {
		case "layout":
			cfg.layout = v
		case "maxconns":
			n, err := strconv.Atoi(v)
			if err != nil {
				return serverConfig{}, fmt.Errorf("startup line %q: maxconns %q", line, v)
			}
			cfg.maxConns = n
		case "fsync":
			cfg.fsync = v
		}
	}
	if cfg.layout == "" || cfg.maxConns == 0 {
		return serverConfig{}, fmt.Errorf("startup line %q lacks layout= and maxconns=", line)
	}
	return cfg, nil
}

// child is a running spectm-server process.
type child struct {
	cmd    *exec.Cmd
	cfg    serverConfig
	logged chan struct{} // closed once stderr is drained (the process closed it)
	tail   []string      // last stderr lines, for error reports
}

// live holds every started child, so a fatal error can stop them all.
var live = map[*child]struct{}{}

// startChild runs bin with the given flags and waits until it logs
// that it is listening. It returns the time that took.
func startChild(bin string, args ...string) (*child, time.Duration, error) {
	c := &child{cmd: exec.Command(bin, args...), logged: make(chan struct{})}
	c.cmd.Stdout = os.Stderr
	// A benchmark killed mid-run takes its server down with it.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stderr, err := c.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	if err := c.cmd.Start(); err != nil {
		return nil, 0, fmt.Errorf("start %s: %w", bin, err)
	}
	live[c] = struct{}{}
	ready := make(chan string, 1)
	go c.drain(stderr, ready)
	select {
	case line := <-ready:
		took := time.Since(t0)
		if c.cfg, err = parseStartup(line); err != nil {
			c.stop()
			return nil, 0, err
		}
		return c, took, nil
	case <-c.logged:
		err := c.stop()
		return nil, 0, fmt.Errorf("server exited before listening (%v): %s", err, strings.Join(c.tail, " | "))
	case <-time.After(60 * time.Second):
		c.stop()
		return nil, 0, fmt.Errorf("server not listening after 60s: %s", strings.Join(c.tail, " | "))
	}
}

// drain reads the child's log until the child closes it, handing the
// first startup line to ready.
func (c *child) drain(r io.Reader, ready chan<- string) {
	defer close(c.logged)
	sc := bufio.NewScanner(r)
	found := false
	for sc.Scan() {
		line := sc.Text()
		if len(c.tail) == 8 {
			c.tail = c.tail[1:]
		}
		c.tail = append(c.tail, line)
		if !found && strings.Contains(line, "listening on") {
			found = true
			ready <- line
		}
	}
}

// peakRSSMB reads the child's peak resident set (VmHWM) in MB.
func (c *child) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", c.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// cpuSeconds returns the CPU time (user + system) process pid has used,
// from /proc/<pid>/stat; pid "self" is this process.
func cpuSeconds(pid string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/stat")
	if err != nil {
		return 0, err
	}
	// The fields after the parenthesised command name start at the
	// third, the state; utime and stime are the 14th and 15th.
	i := strings.LastIndexByte(string(b), ')')
	f := strings.Fields(string(b[i+1:]))
	if i < 0 || len(f) < 13 {
		return 0, fmt.Errorf("/proc/%s/stat: %q", pid, b)
	}
	var ticks float64
	for _, s := range f[11:13] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, fmt.Errorf("/proc/%s/stat: %w", pid, err)
		}
		ticks += float64(v)
	}
	return ticks / clockTicks, nil
}

// clockTicks is USER_HZ, the unit of /proc CPU times: 100 on every
// Linux architecture Go supports.
const clockTicks = 100

// stop sends SIGTERM (the server drains and flushes its log), waits
// for the exit, and kills the process if it takes over 30 s. It
// returns the exit error, if any.
func (c *child) stop() error {
	if _, ok := live[c]; !ok {
		return nil
	}
	delete(live, c)
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan error, 1)
	go func() {
		<-c.logged
		done <- c.cmd.Wait()
	}()
	select {
	case err := <-done:
		// The server logs its startup line before it installs its
		// SIGTERM handler, so a stop right after a start can end it by
		// the signal's default action. Nothing was written to it yet;
		// on a persistent workload the restart check would catch loss.
		var ee *exec.ExitError
		if errors.As(err, &ee) {
			if ws, ok := ee.Sys().(syscall.WaitStatus); ok && ws.Signaled() && ws.Signal() == syscall.SIGTERM {
				return nil
			}
		}
		return err
	case <-time.After(30 * time.Second):
		c.cmd.Process.Kill()
		<-done
		return errors.New("server did not exit within 30s of SIGTERM; killed")
	}
}

// stopAll stops every live child.
func stopAll() {
	for c := range live {
		c.stop()
	}
}
