package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"kumquat/internal/synth/cache"
)

// config is what every workload is built from. Load is sized for the
// machine: k = GOMAXPROCS = min(nproc, 4) for data parallelism, at most
// procs client connections and synthesis workers.
type config struct {
	seed    int64
	seconds float64
	scale   float64
	workdir string
	k       int
	procs   int
	setups  int // set-ups per end-to-end run
}

// state is one set-up workload, ready to be measured.
type state interface {
	// run measures for about `seconds` with all tracing off. profile
	// additionally samples allocator activity around every op (the traced
	// run's baseline; never set for end-to-end numbers).
	run(ctx context.Context, seconds float64, profile bool) (*window, error)
	// layers is the traced pass: spans around each public call plus the
	// per-layer measurements, outside any timed window.
	layers(ctx context.Context, tr *tracer, seconds float64) (*layerResult, error)
	close() error
}

// workload couples a declared name to its set-up.
type workload struct {
	name  string
	setup func(ctx context.Context, cfg config) (state, error)
}

var workloads = []workload{
	{"wf-append-rerun", setupWF},
	{"chain-cold-file", setupChain},
	{"plan-cold", setupPlan},
	{"serve-warm-mix", setupServe},
	{"cluster-ship", setupCluster},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// window is what one timed window produced.
type window struct {
	lat       []time.Duration // per-op latency behind op_p50_ms
	attempted int
	failed    int           // errored, refused, or output differs from the reference
	done      int           // ops behind ops_per_s ...
	busy      time.Duration // ... and the wall they took
	bytes     int64         // input bytes of the timed ops
	lines     int64         // input lines of the timed ops
	firstErr  error
	info      []infoLine  // end-to-end numbers printed but not gated
	mem       memDelta    // allocator activity around the ops (profile only)
	cache     cache.Stats // synthesis-cache activity across the window
}

// infoLine is a reported, ungated number.
type infoLine struct {
	name  string
	value float64
	unit  string
}

func (w *window) fail(err error) {
	w.failed++
	if w.firstErr == nil {
		w.firstErr = err
	}
}

// opIO is the input volume of one op.
type opIO struct{ bytes, lines int64 }

// closedLoop drives one client: prepare(i) builds op i's input and
// expected output (untimed), op(i) is timed from input available to
// verified result. Ops run back to back until `seconds` have passed.
func closedLoop(ctx context.Context, seconds float64, profile bool, prepare func(i int) error, op func(i int) (opIO, error)) (*window, error) {
	w := &window{}
	deadline := time.Now().Add(time.Duration(seconds * float64(time.Second)))
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := prepare(i); err != nil {
			return nil, fmt.Errorf("preparing op %d: %w", i, err)
		}
		var before runtime.MemStats
		if profile { // a stop-the-world read: kept out of end-to-end windows
			before = readMem()
		}
		t0 := time.Now()
		io, err := op(i)
		d := time.Since(t0)
		if profile {
			md := memSince(before)
			w.mem.mallocs += md.mallocs
			w.mem.bytes += md.bytes
			w.mem.pause += md.pause
		}
		w.attempted++
		w.lat = append(w.lat, d)
		w.busy += d
		if err != nil {
			w.fail(fmt.Errorf("op %d: %w", i, err))
			continue
		}
		w.done++
		w.bytes += io.bytes
		w.lines += io.lines
	}
	return w, nil
}

// layerResult is what a traced pass produced.
type layerResult struct {
	metrics   map[string]float64
	attempted int
	failed    int
	firstErr  error
}

func newLayerResult() *layerResult { return &layerResult{metrics: map[string]float64{}} }

// absorb folds the untraced baseline window's pass/fail accounting in,
// and reads the process's peak RSS while it still reflects only set-up
// and untraced ops (the replay that follows holds whole streams).
func (r *layerResult) absorb(w *window) {
	r.attempted += w.attempted
	r.failed += w.failed
	if r.firstErr == nil {
		r.firstErr = w.firstErr
	}
	if rss, err := peakRSSMB(); err == nil {
		r.metrics["bench.peak_rss_mb"] = rss
	}
}

// check counts one verified step of the traced pass.
func (r *layerResult) check(err error) {
	r.attempted++
	if err != nil {
		r.failed++
		if r.firstErr == nil {
			r.firstErr = err
		}
	}
}

// setCache reports a window's synthesis-cache deltas.
func (r *layerResult) setCache(st cache.Stats) {
	r.metrics["synth.cache.hits"] = float64(st.Hits)
	r.metrics["synth.cache.misses"] = float64(st.Misses)
	r.metrics["synth.cache.disk_hits"] = float64(st.DiskHits)
	if n := st.Lookups(); n > 0 {
		r.metrics["synth.cache.hit_ratio"] = float64(st.Hits+st.DiskHits) / float64(n)
	}
}

// traceOverhead is the traced op time over the untraced one, in percent.
func traceOverhead(traced, untraced time.Duration) float64 {
	if untraced <= 0 {
		return 0
	}
	return 100 * (float64(traced) - float64(untraced)) / float64(untraced)
}

// mismatch describes an output that differs from its reference.
func mismatch(what, got, want string) error {
	if got == want {
		return nil
	}
	at := 0
	for at < len(got) && at < len(want) && got[at] == want[at] {
		at++
	}
	return fmt.Errorf("%s differs from the reference at byte %d (got %d bytes, want %d): got %q, want %q",
		what, at, len(got), len(want), clip(got, at), clip(want, at))
}

func clip(s string, at int) string {
	lo, hi := max(0, at-20), min(len(s), at+20)
	return s[lo:hi]
}
