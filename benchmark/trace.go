package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one benchmark-side span: a call into a module's public
// surface, recorded from outside the program.
type span struct {
	ID      int     `json:"id"`
	Parent  int     `json:"parent"` // -1 for an op root
	Op      int     `json:"op"`     // spans of one op share this
	Module  string  `json:"module"`
	Name    string  `json:"name"`
	StartUS float64 `json:"start_us"`
	EndUS   float64 `json:"end_us"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span under parent (-1 = root) and returns its id.
func (t *tracer) begin(parent, op int, module, name string) int {
	now := us(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans)
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Module: module, Name: name, StartUS: now, EndUS: now})
	return id
}

func (t *tracer) end(id int) {
	now := us(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].EndUS = now
	t.mu.Unlock()
}

// do records f as a span and returns how long it took.
func (t *tracer) do(parent, op int, module, name string, f func(id int) error) (time.Duration, error) {
	id := t.begin(parent, op, module, name)
	t0 := time.Now()
	err := f(id)
	d := time.Since(t0)
	t.end(id)
	return d, err
}

// selfTimes sums, per module, each span's self time: its duration minus
// the part of it its children cover (the union of their intervals).
// Children that run concurrently jointly cover less wall time than their
// durations add up to; they and their subtrees are scaled down by that
// ratio, so the per-module figures are shares of wall time and sum to
// rootUS, the total of the root spans.
func (t *tracer) selfTimes() (self map[string]float64, rootUS float64) {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = map[string]float64{}
	var walk func(s span, weight float64)
	walk = func(s span, weight float64) {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartUS < kids[j].StartUS })
		covered, summed, edge := 0.0, 0.0, s.StartUS
		for _, c := range kids {
			summed += c.EndUS - c.StartUS
			lo, hi := max(c.StartUS, edge), min(c.EndUS, s.EndUS)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.Module] += weight * (s.EndUS - s.StartUS - covered)
		if summed > covered {
			weight *= covered / summed
		}
		for _, c := range kids {
			walk(c, weight)
		}
	}
	for _, s := range children[-1] {
		rootUS += s.EndUS - s.StartUS
		walk(s, 1)
	}
	return self, rootUS
}

// printSelfTimes writes the per-module self-time table.
func (t *tracer) printSelfTimes(w io.Writer) {
	self, root := t.selfTimes()
	mods := make([]string, 0, len(self))
	sum := 0.0
	for m, v := range self {
		mods = append(mods, m)
		sum += v
	}
	sort.Slice(mods, func(i, j int) bool { return self[mods[i]] > self[mods[j]] })
	fmt.Fprintf(w, "per-module self time over the traced ops (span minus children, as shares of wall time):\n")
	for _, m := range mods {
		fmt.Fprintf(w, "  %-10s %10.3f ms  %5.1f%%\n", m, self[m]/1e3, 100*self[m]/root)
	}
	fmt.Fprintf(w, "  %-10s %10.3f ms  (traced wall %.3f ms)\n", "sum", sum/1e3, root/1e3)
}

// write dumps the spans as JSON.
func (t *tracer) write(path, workload string, seed int64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
