package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// Span is one timed call into a layer, recorded by the benchmark around the
// call. Parent is the ID of the enclosing span (-1 at the root); Req ties
// the spans of one request together (-1 outside request handling).
type Span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// Dur is the span's wall-clock duration.
func (s Span) Dur() int64 { return s.End - s.Start }

// Tracer keeps spans in memory until the run ends. A nil *Tracer records
// nothing, so the untraced run executes the same code with tracing off.
type Tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []Span
}

// NewTracer starts an empty trace.
func NewTracer() *Tracer { return &Tracer{t0: time.Now()} }

// Begin opens a span and returns its ID (-1 on a nil tracer).
func (t *Tracer) Begin(name string, parent int32, req int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Req: req, Start: now, End: -1})
	t.mu.Unlock()
	return id
}

// End closes a span opened by Begin.
func (t *Tracer) End(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// Span returns a recorded span by ID.
func (t *Tracer) Span(id int32) Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id]
}

// Durations lists the durations of every closed span with the given name,
// in recording order.
func (t *Tracer) Durations(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []int64
	for _, s := range t.spans {
		if s.Name == name && s.End >= 0 {
			out = append(out, s.Dur())
		}
	}
	return out
}

// Spans lists the closed spans whose name starts with prefix.
func (t *Tracer) Spans(prefix string) []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []Span
	for _, s := range t.spans {
		if strings.HasPrefix(s.Name, prefix) && s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// ChildDur sums the durations of span id's closed children whose name
// starts with prefix.
func (t *Tracer) ChildDur(id int32, prefix string) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var total int64
	for _, s := range t.spans {
		if s.Parent == id && s.End >= 0 && strings.HasPrefix(s.Name, prefix) {
			total += s.Dur()
		}
	}
	return total
}

// SelfTimes lists, for every closed span with the given name, its duration
// minus the part of its interval that its child spans cover.
func (t *Tracer) SelfTimes(name string) []int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][][2]int64)
	for _, s := range t.spans {
		if s.Parent >= 0 && s.End >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	var out []int64
	for _, s := range t.spans {
		if s.Name != name || s.End < 0 {
			continue
		}
		out = append(out, s.Dur()-covered(s.Start, s.End, children[s.ID]))
	}
	return out
}

// covered is the length of [lo,hi] covered by the union of the intervals.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// Summary prints, per span name, the span count and the median duration
// and self time in µs.
func (t *Tracer) Summary(w io.Writer) {
	t.mu.Lock()
	seen := make(map[string]bool)
	var names []string
	for _, s := range t.spans {
		if !seen[s.Name] {
			seen[s.Name] = true
			names = append(names, s.Name)
		}
	}
	t.mu.Unlock()
	sort.Strings(names)
	fmt.Fprintf(w, "%-40s %8s %14s %14s\n", "span", "count", "median_us", "self_us")
	for _, n := range names {
		d := t.Durations(n)
		fmt.Fprintf(w, "%-40s %8d %14.1f %14.1f\n", n, len(d), median(d)/1e3, median(t.SelfTimes(n))/1e3)
	}
}

// WriteFile writes the spans as JSON lines.
func (t *Tracer) WriteFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return fmt.Errorf("writing trace: %w", err)
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing trace: %w", err)
	}
	return f.Close()
}

// median returns the median of xs (0 for none); xs is not modified.
func median(xs []int64) float64 {
	return quantile(xs, 0.5)
}

// quantile returns the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []int64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(q*float64(len(s))+0.5) - 1
	i = max(0, min(i, len(s)-1))
	return float64(s[i])
}

// medianF is median over float64 values.
func medianF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
