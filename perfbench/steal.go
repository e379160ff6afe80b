package main

import (
	"math"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

const (
	// stealMax is the share of CPU time the hypervisor may take from the
	// machine during a slice for the slice to count: none, as far as
	// /proc/stat's 10 ms ticks show. On a shared 2-vCPU VM steal came
	// in bursts of several seconds at up to 40%, and the whole-window
	// figures then moved by 30% between identical runs; a single tick
	// of steal in a 100 ms slice cost it 5-10% of its throughput and
	// 25% on its p99.
	stealMax = 0
	// minKept is the least share of a window's slices that counts: when
	// fewer slices than this are calm, the calmest this share of them
	// count, so a run always measures at least this much of its window.
	// It is small because under heavy steal only the calmest few slices
	// are free of it: over ten range-scan runs of which seven averaged
	// 8-23% steal, the spread of p99 between runs was 0.15 of its median
	// with a floor of 5% of the window and 0.80 with a floor of 25%.
	minKept = 0.05
)

// cpuTimes returns the steal and total jiffies of all CPUs from
// /proc/stat.
func cpuTimes() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, false
	}
	for i, s := range f[1:9] { // user nice system idle iowait irq softirq steal
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total, true
}

// sampleSteal returns the steal share of each slice from start until
// deadline, or nil where /proc/stat cannot be read.
func sampleSteal(start, deadline time.Time) []float64 {
	s0, t0, ok := cpuTimes()
	if !ok {
		return nil
	}
	var out []float64
	for end := start.Add(slice); !end.After(deadline); end = end.Add(slice) {
		time.Sleep(time.Until(end))
		s1, t1, ok := cpuTimes()
		if !ok {
			return nil
		}
		out = append(out, ratio(float64(s1-s0), float64(t1-t0)))
		s0, t0 = s1, t1
	}
	return out
}

// calmSlices returns the indexes, ascending, of the n slices to count.
// A slice's steal is its own share plus its neighbours': steal that
// lands at the end of a slice can be booked in the next tick, and a
// command it holds up completes, with its inflated latency, in the next
// slice. The slices to count are those whose steal is at most
// stealMax, or, when fewer than minKept of the slices are, the minKept
// share with the least steal. Either way the kept slices are those at
// or below one steal threshold, so the set shrinks smoothly as steal
// grows. Without steal samples every slice counts.
func calmSlices(steal []float64, n int) []int {
	if len(steal) == 0 {
		steal = make([]float64, n)
	}
	// A slice the sampler missed counts as fully stolen.
	own := func(i int) float64 {
		switch {
		case i < 0 || i >= n:
			return 0
		case i < len(steal):
			return steal[i]
		}
		return 1
	}
	at := func(i int) float64 { return own(i-1) + own(i) + own(i+1) }
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return at(order[a]) < at(order[b]) })
	keep := int(math.Ceil(minKept * float64(n)))
	for keep < n && at(order[keep]) <= stealMax {
		keep++
	}
	kept := order[:keep]
	sort.Ints(kept)
	return kept
}
