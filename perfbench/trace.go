package main

import (
	"bufio"
	"cmp"
	"fmt"
	"math"
	"os"
	"slices"
	"time"
)

// span is one timed call at a layer boundary. Spans of one command (on
// the wire: of one pipeline batch) share trace; parent is the id of the
// span that caused this one, 0 for a root.
type span struct {
	trace  uint64
	id     uint64
	parent uint64
	name   string
	start  int64 // ns since the run's clock origin
	end    int64
}

// recorder keeps one goroutine's spans in memory; they are written out
// when the run ends. ids are unique across recorders sharing a base.
type recorder struct {
	origin time.Time
	base   uint64
	n      uint64
	spans  []span
}

func newRecorder(origin time.Time, base uint64) *recorder {
	return &recorder{origin: origin, base: base << 40}
}

// now is the recorder's clock, in ns since the run's origin.
func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// add records a finished span and returns its id.
func (r *recorder) add(trace, parent uint64, name string, start, end int64) uint64 {
	r.n++
	id := r.base | r.n
	r.spans = append(r.spans, span{trace: trace, id: id, parent: parent, name: name, start: start, end: end})
	return id
}

// selfTimes returns each span's self time: its duration minus the part
// of its interval covered by its children (overlapping children count
// once; a child's part outside the parent does not count).
func selfTimes(spans []span) []int64 {
	children := make(map[uint64][]int, len(spans)/2)
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	self := make([]int64, len(spans))
	var iv [][2]int64
	for i, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if lo < hi {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		slices.SortFunc(iv, func(a, b [2]int64) int { return cmp.Compare(a[0], b[0]) })
		covered, reach := int64(0), s.start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// selfByName groups self times (ns) by span name.
func selfByName(spans []span) map[string][]float64 {
	self := selfTimes(spans)
	out := make(map[string][]float64)
	for i, s := range spans {
		out[s.name] = append(out[s.name], float64(self[i]))
	}
	return out
}

// writeSpans writes spans and their self times as CSV.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	self := selfTimes(spans)
	bw := bufio.NewWriterSize(f, 1<<20)
	fmt.Fprintln(bw, "trace,span,parent,name,start_ns,end_ns,self_ns")
	for i, s := range spans {
		fmt.Fprintf(bw, "%d,%d,%d,%s,%d,%d,%d\n", s.trace, s.id, s.parent, s.name, s.start, s.end, self[i])
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// quantiles sorts samples in place and returns the nearest-rank value
// at each p in ps together with the sample count. With no samples every
// value is NaN.
func quantiles[T ~int | ~uint32 | ~float64](samples []T, ps ...float64) (vals []float64, n int) {
	slices.Sort(samples)
	n = len(samples)
	vals = make([]float64, len(ps))
	for i, p := range ps {
		if n == 0 {
			vals[i] = math.NaN()
			continue
		}
		r := int(math.Ceil(p*float64(n))) - 1
		vals[i] = float64(samples[min(max(r, 0), n-1)])
	}
	return vals, n
}

// median is the 0.5 quantile of samples (sorted in place).
func median[T ~int | ~uint32 | ~float64](samples []T) float64 {
	v, _ := quantiles(samples, 0.5)
	return v[0]
}

// ratio is a/b, 0 when b is 0 (nothing of that kind happened).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
