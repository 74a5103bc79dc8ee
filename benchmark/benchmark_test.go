package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// TestManifest holds BENCHMARK.json to the tables it is generated from
// and to the limits of the benchmark contract.
func TestManifest(t *testing.T) {
	want, err := manifestJSON()
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with `go run ./benchmark -manifest > BENCHMARK.json`")
	}
	var m manifest
	if err := json.Unmarshal(got, &m); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	use := func(n string) {
		if !name.MatchString(n) {
			t.Errorf("name %q is outside the contract", n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	for _, w := range m.Workloads {
		use(w.Name)
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("why of %s is not one line of at most 200 characters", w.Name)
		}
		if _, ok := findWorkload(w.Name); !ok {
			t.Errorf("declared workload %s has no implementation", w.Name)
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	for _, d := range m.EndToEnd {
		use(d.Name)
		if !unit.MatchString(d.Unit) || d.Bound <= 0 || d.Bound > 0.25 || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("end-to-end metric %+v is outside the contract", d)
		}
	}
	if !seen["setup_s"] {
		t.Error("setup_s is missing")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	for _, d := range m.PerLayer {
		use(d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer metric %+v is outside the contract", d)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
}

// TestCorpusSeeded: the same seed gives the same bytes, another seed
// other bytes, and the generator has not drifted from the pinned digest.
func TestCorpusSeeded(t *testing.T) {
	gen := func(seed int64) string {
		return fmt.Sprintf("%x", sha256.Sum256(genText(nil, workloadRNG(seed, "wf-append-rerun"), 2000)))
	}
	if gen(1) != gen(1) {
		t.Error("same seed, different corpus")
	}
	if gen(1) == gen(2) {
		t.Error("different seeds, same corpus")
	}
	golden, err := os.ReadFile("golden/corpus-seed1.sha256")
	if err != nil {
		t.Fatal(err)
	}
	if got := gen(1); got != strings.TrimSpace(string(golden)) {
		t.Errorf("corpus digest %s differs from golden/corpus-seed1.sha256: the generator changed, so every recorded number is void", got)
	}
}

func TestReferences(t *testing.T) {
	text := []byte("The light, the Light.\nsea of light\nDark sea.\n")
	if got, want := wordFreq(text), "      3 light\n      2 the\n      2 sea\n      1 of\n      1 dark\n"; got != want {
		t.Errorf("wordFreq = %q, want %q", got, want)
	}
	if got := wordFreq([]byte(", a\n")); got != "      1 a\n      1 \n" {
		t.Errorf("wordFreq with a leading non-letter = %q", got)
	}
	if got := chainCount(text); got != "2\n" {
		t.Errorf("chainCount = %q, want 2", got)
	}
	if got, want := lineFreq([]byte("b\nA\na\n")), "      2 a\n      1 b\n"; got != want {
		t.Errorf("lineFreq = %q, want %q", got, want)
	}
	rot := rotate(nil, text, lineStarts(text)[1])
	if string(rot) != "sea of light\nDark sea.\nThe light, the Light.\n" {
		t.Errorf("rotate = %q", rot)
	}
}

// TestQuartiles pins the spread arithmetic to Python's
// statistics.quantiles(values, n=4), which the driver uses.
func TestQuartiles(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{3.1, 1.2, 9.5, 4.4, 7.0, 2.2, 8.1, 5.5, 6.3, 0.9})
	for i, d := range []float64{q1 - 1.95, q2 - 4.95, q3 - 7.275} {
		if math.Abs(d) > 1e-9 {
			t.Errorf("quartile %d is off by %g", i+1, d)
		}
	}
}

// TestSelfTimes: per-module self times are shares of wall time, so they
// sum to the root span even when children overlap.
func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{ID: 0, Parent: -1, Module: "bench", StartUS: 0, EndUS: 100},
		{ID: 1, Parent: 0, Module: "a", StartUS: 10, EndUS: 60},
		{ID: 2, Parent: 0, Module: "b", StartUS: 10, EndUS: 60}, // concurrent with span 1
		{ID: 3, Parent: 1, Module: "c", StartUS: 20, EndUS: 40},
	}
	self, root := tr.selfTimes()
	sum := 0.0
	for _, v := range self {
		sum += v
	}
	if root != 100 || math.Abs(sum-root) > 1e-9 {
		t.Errorf("self times %v sum to %g, root %g", self, sum, root)
	}
	if self["bench"] != 50 || self["b"] != 25 || self["a"] != 15 || self["c"] != 10 {
		t.Errorf("self times %v", self)
	}
}

// TestWorkloads runs every workload at 1/100 scale: an end-to-end run
// and two traced runs. Every declared metric must be emitted exactly
// once with a finite value, every output must match its reference, the
// exact-count metrics must repeat, and every per-layer metric must be
// measured by at least one workload.
func TestWorkloads(t *testing.T) {
	procs := runtime.NumCPU()
	cfg := config{seed: 1, seconds: 0.3, scale: 0.01, k: min(procs, 4), procs: procs, setups: 2}
	exact := regexp.MustCompile(`^(dsl\.space\.|synth\.(combiners_found|rerun_only|no_combiner)$|dataflow\.(fired\.|regions$)|cluster\.(shards|remote)$|pipeline\.chunks$)`)
	ctx := context.Background()
	measured := map[string]bool{}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			cfg := cfg
			cfg.workdir = t.TempDir()
			res, err := runEndToEnd(ctx, io.Discard, w, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("end-to-end run: correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(e2eDefs) {
				t.Errorf("%d end-to-end metrics emitted, %d declared", len(res.Metrics), len(e2eDefs))
			}
			for _, d := range e2eDefs {
				v, ok := res.Metrics[d.Name]
				if !ok || v.Unit != d.Unit || !(v.Value > 0) || math.IsInf(v.Value, 0) {
					t.Errorf("end-to-end metric %s = %+v (emitted %v): want a finite positive value in %s", d.Name, v, ok, d.Unit)
				}
			}
			if testing.Short() {
				return
			}
			var first map[string]value
			for run := 0; run < 2; run++ {
				res, err := runTraced(ctx, io.Discard, w, cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 {
					t.Errorf("traced run %d: correct=%v failed=%d", run, res.Correct, res.Failed)
				}
				if len(res.Metrics) != len(layerDefs) {
					t.Errorf("%d per-layer metrics emitted, %d declared", len(res.Metrics), len(layerDefs))
				}
				nonzero := 0
				for _, d := range layerDefs {
					v, ok := res.Metrics[d.Name]
					if !ok || v.Unit != d.Unit || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
						t.Errorf("per-layer metric %s = %+v (emitted %v)", d.Name, v, ok)
					}
					if v.Value != 0 {
						nonzero++
						measured[d.Name] = true
					}
					if first != nil && exact.MatchString(d.Name) && first[d.Name].Value != v.Value {
						t.Errorf("exact count %s changed between runs: %g then %g", d.Name, first[d.Name].Value, v.Value)
					}
				}
				if nonzero < 8 {
					t.Errorf("only %d per-layer metrics are nonzero", nonzero)
				}
				if _, err := os.Stat(cfg.workdir + "/trace-" + w.name + ".json"); err != nil {
					t.Errorf("no span file: %v", err)
				}
				first = res.Metrics
			}
		})
	}
	if testing.Short() || t.Failed() {
		return
	}
	// Zero is the healthy value of these on a fault-free, warm run (and
	// the scaled-down spec table holds no rerun-only verdict).
	zeroOK := regexp.MustCompile(`^(cluster\.(local_fallbacks|retries|speculations|speculation_wins|ejections)|server\.(rejected_429|queued_peak)|synth\.(cache\.disk_hits|rerun_only)|dataflow\.fired\.(elide-combine|push-sort-merge))$`)
	for _, d := range layerDefs {
		if !measured[d.Name] && !zeroOK.MatchString(d.Name) {
			t.Errorf("no workload measured %s", d.Name)
		}
	}
}

// TestSeedChangesInputs: the program sees only generated bytes, and a
// different seed generates different ones for every data workload.
func TestSeedChangesInputs(t *testing.T) {
	for _, name := range []string{"wf-append-rerun", "chain-cold-file", "serve-warm-mix", "cluster-ship"} {
		a := genText(nil, workloadRNG(1, name), 50)
		b := genText(nil, workloadRNG(1, name), 50)
		c := genText(nil, workloadRNG(2, name), 50)
		if string(a) != string(b) || string(a) == string(c) {
			t.Errorf("%s: seed does not control the corpus", name)
		}
	}
	if workloadRNG(1, "plan-cold").Int63() == rand.New(rand.NewSource(1)).Int63() {
		t.Error("workload streams must not alias the bare seed")
	}
}
