package synth

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/obs"
	"kumquat/internal/shape"
	"kumquat/internal/synth/cache"
	"kumquat/internal/unix"
)

// resultFingerprint compresses everything observable about a synthesis
// result into a comparable form.
func resultFingerprint(t *testing.T, r *Result) string {
	t.Helper()
	fp := r.Spec + "|"
	for _, c := range r.Plausible {
		fp += c.String() + ";"
	}
	fp += "|"
	if r.Combiner != nil {
		fp += r.Combiner.String()
	}
	return fp
}

// TestParallelDeterminism pins the engine's core guarantee: the same seed
// yields byte-identical plausible sets, combiners, round counts and
// observation counts at 1, 4 and GOMAXPROCS workers.
func TestParallelDeterminism(t *testing.T) {
	specs := []string{"wc -l", "uniq -c", "sort -rn", "tail -n 1"}
	workerCounts := []int{1, 4, runtime.GOMAXPROCS(0)}
	for _, spec := range specs {
		var baseline *Result
		var baseFP string
		for _, w := range workerCounts {
			eng := New(unix.DefaultEnv(), Options{Seed: 7, Workers: w})
			res, err := eng.Synthesize(context.Background(), spec)
			if err != nil {
				t.Fatalf("%s workers=%d: %v", spec, w, err)
			}
			if eng.workers != w {
				t.Fatalf("workers=%d: engine resolved %d", w, eng.workers)
			}
			fp := resultFingerprint(t, res)
			if baseline == nil {
				baseline, baseFP = res, fp
				continue
			}
			if fp != baseFP {
				t.Errorf("%s workers=%d: result diverged:\n  got  %s\n  want %s",
					spec, w, fp, baseFP)
			}
			if res.Rounds != baseline.Rounds || res.Observations != baseline.Observations {
				t.Errorf("%s workers=%d: rounds/observations %d/%d, want %d/%d",
					spec, w, res.Rounds, res.Observations,
					baseline.Rounds, baseline.Observations)
			}
			if res.Space != baseline.Space {
				t.Errorf("%s workers=%d: space %+v, want %+v", spec, w, res.Space, baseline.Space)
			}
		}
	}
}

// TestCancellationMidRound cancels synthesis of the 110,444-candidate
// space mid-round and checks that the engine returns promptly with the
// best-so-far verdict, that the result is not cached, and that no worker
// goroutines leak (the test also runs under -race in CI).
func TestCancellationMidRound(t *testing.T) {
	for _, w := range []int{1, 4} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			testCancellationMidRound(t, w)
		})
	}
}

func testCancellationMidRound(t *testing.T, workers int) {
	before := runtime.NumGoroutine()

	eng := New(unix.DefaultEnv(), Options{Seed: 1, Workers: workers})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Long enough to be mid-round on the 110k space, short enough
		// that the test stays fast.
		time.Sleep(5 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	res, err := eng.Synthesize(ctx, `cut -d ',' -f 1,2`)
	wall := time.Since(start)
	cancel()

	if !errors.Is(err, context.Canceled) {
		// The machine may be fast enough to finish inside 5ms; then the
		// run simply succeeded and there is nothing more to assert.
		if err != nil {
			t.Fatalf("unexpected error: %v", err)
		}
		t.Skip("synthesis finished before cancellation")
	}
	if res == nil {
		t.Fatal("cancelled synthesis returned no best-so-far result")
	}
	if !errors.Is(res.Err, context.Canceled) {
		t.Errorf("res.Err = %v, want context.Canceled", res.Err)
	}
	if wall > 3*time.Second {
		t.Errorf("cancellation took %v, want prompt abort", wall)
	}
	// A cancelled result must not poison the caches: a rerun must
	// synthesize from scratch and succeed.
	res2, err := eng.Synthesize(context.Background(), `cut -d ',' -f 1,2`)
	if err != nil || res2.Err != nil {
		t.Fatalf("post-cancel synthesis failed: %v / %v", err, res2)
	}
	if st := eng.Stats(); st.Hits != 0 {
		t.Errorf("post-cancel synthesis hit a cache (%+v); cancelled results must not be cached", st)
	}

	// All pool goroutines must have exited.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutine leak: %d before, %d after", before, n)
	}
}

// TestEngineMemoryCache checks the memory tier's one key, the exact spec
// text: a repeat is served from it, and a whitespace variant of the same
// command is a spec of its own, synthesized and filed under its own text.
func TestEngineMemoryCache(t *testing.T) {
	eng := New(unix.DefaultEnv(), Options{Seed: 1})
	r1, err := eng.Synthesize(context.Background(), "wc -l")
	if err != nil {
		t.Fatal(err)
	}
	st := eng.Stats()
	if st.Misses != 1 || st.Hits != 0 {
		t.Fatalf("cold synthesis stats %+v, want 1 miss", st)
	}
	// Exact repeat → spec-text hit, identical pointer.
	r2, _ := eng.Synthesize(context.Background(), "wc -l")
	if r1 != r2 {
		t.Error("repeated spec did not return the cached result")
	}
	// Whitespace variant → its own miss and its own entry.
	r3, err := eng.Synthesize(context.Background(), "wc  -l")
	if err != nil {
		t.Fatal(err)
	}
	if st := eng.Stats(); st.Misses != 2 || st.Hits != 1 {
		t.Errorf("stats %+v, want 2 misses (one per spelling) and 1 hit", st)
	}
	if r3 == r1 || r3.Spec != "wc  -l" {
		t.Errorf("whitespace variant returned spec %q (shared: %v), want its own result", r3.Spec, r3 == r1)
	}
	if r3.Combiner.String() != r1.Combiner.String() {
		t.Errorf("whitespace variant combiner %s, want %s", r3.Combiner, r1.Combiner)
	}
	if n := eng.lru.Len(); n != 2 {
		t.Errorf("LRU holds %d entries for 2 distinct specs", n)
	}
	if r4, _ := eng.Synthesize(context.Background(), "wc  -l"); r4 != r3 {
		t.Error("repeated variant did not return its cached result")
	}
}

// TestRespelledSpecKeepsItsText: a command asked for in a second
// quoting is answered with a Result for the text asked, never with the
// first spelling's, from memory and from the disk tier alike (which
// still files both under one canonical signature).
func TestRespelledSpecKeepsItsText(t *testing.T) {
	const first, second = `tr -c "[a-z][A-Z]" '\n'`, `tr -c '[a-z][A-Z]' '\n'`
	ctx := context.Background()
	dir := t.TempDir()
	for _, opts := range []Options{{Seed: 1}, {Seed: 1, CacheDir: dir}} {
		eng := New(unix.DefaultEnv(), opts)
		if _, err := eng.Synthesize(ctx, first); err != nil {
			t.Fatal(err)
		}
		r, tier, err := eng.SynthesizeTier(ctx, second)
		if err != nil {
			t.Fatal(err)
		}
		if r.Spec != second {
			t.Errorf("cache dir %q: SynthesizeTier(%s) = Result for %s (tier %v)", opts.CacheDir, second, r.Spec, tier)
		}
		if tier == cache.TierMemory {
			t.Errorf("cache dir %q: the second spelling was served from memory", opts.CacheDir)
		}
		if n := eng.lru.Len(); n != 2 {
			t.Errorf("cache dir %q: LRU holds %d entries for 2 distinct specs", opts.CacheDir, n)
		}
	}
	// A fresh engine over the same store reads the second spelling's
	// verdict from disk, under the text it was asked for.
	eng := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	r, tier, err := eng.SynthesizeTier(ctx, second)
	if err != nil || tier != cache.TierDisk || r.Spec != second {
		t.Errorf("fresh engine: SynthesizeTier(%s) = spec %s, tier %v, err %v; want the text asked, from disk", second, r.Spec, tier, err)
	}
}

// TestEngineMemoryBounded: the LRU is the only in-memory tier, so a
// daemon sent an endless stream of distinct specs (every distinct grep
// pattern is one) retains at most lruSize results — positive verdicts
// and the negative ones that have no canonical-signature entry alike.
func TestEngineMemoryBounded(t *testing.T) {
	const capacity = 8
	b := defaultBudget
	b.lruSize = capacity
	b.maxRounds, b.pairsPerShape, b.mutationIters = 1, 1, 1
	eng := newEngine(unix.DefaultEnv(), Options{Seed: 1}, b)
	ctx := context.Background()
	results := map[string]*Result{}
	for i := 0; i < 2*capacity; i++ {
		for _, spec := range []string{fmt.Sprintf("grep pat%d", i), fmt.Sprintf("ls dir%d", i)} {
			r, _ := eng.Synthesize(ctx, spec)
			if r == nil {
				t.Fatalf("Synthesize(%q) returned no result", spec)
			}
			results[spec] = r
		}
	}
	if got := eng.lru.Len(); got > capacity {
		t.Errorf("engine holds %d cache entries after %d distinct specs, want <= %d", got, len(results), capacity)
	}
	// A result the engine no longer serves from memory is one it no
	// longer retains: a dropped spec re-synthesizes to a fresh pointer.
	held := 0
	for spec, r := range results {
		if again, tier, _ := eng.SynthesizeTier(ctx, spec); tier == cache.TierMemory && again == r {
			held++
		}
	}
	if held > capacity {
		t.Errorf("engine still serves %d of %d results from memory, want <= %d", held, len(results), capacity)
	}
}

// TestEngineDiskCache checks that a second engine resolves a command from
// the on-disk store written by the first, with an identical combiner and
// plausible set.
func TestEngineDiskCache(t *testing.T) {
	dir := t.TempDir()
	a := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	ra, err := a.Synthesize(context.Background(), "uniq -c")
	if err != nil {
		t.Fatal(err)
	}
	b := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	rb, err := b.Synthesize(context.Background(), "uniq -c")
	if err != nil {
		t.Fatal(err)
	}
	st := b.Stats()
	if st.DiskHits != 1 || st.Misses != 0 {
		t.Fatalf("second engine stats %+v, want 1 disk hit and 0 misses", st)
	}
	if resultFingerprint(t, ra) != resultFingerprint(t, rb) {
		t.Errorf("disk round-trip changed the result:\n  a: %s\n  b: %s",
			resultFingerprint(t, ra), resultFingerprint(t, rb))
	}
	if rb.Space != ra.Space || rb.Rounds != ra.Rounds {
		t.Errorf("disk round-trip lost metadata: %+v vs %+v", rb, ra)
	}
	// The rebuilt combiner must be live, not just displayable.
	out, err := rb.Combiner.CombineKTree([]string{"      2 apple\n", "      1 apple\n"}, 1)
	if err != nil || out != "      3 apple\n" {
		t.Errorf("rebuilt combiner CombineKTree = %q, %v", out, err)
	}
	// A different seed must not hit the same entries.
	c := New(unix.DefaultEnv(), Options{Seed: 2, CacheDir: dir})
	if _, err := c.Synthesize(context.Background(), "uniq -c"); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.DiskHits != 0 || st.Misses != 1 {
		t.Errorf("seed-2 engine stats %+v, want a miss", st)
	}
}

// TestDefaultSeed: Seed 0 selects the default seed 1, so the zero
// Options and Options{Seed: 1} give identical verdicts under identical
// cache keys — an entry one writes to disk, the other reads.
func TestDefaultSeed(t *testing.T) {
	dir := t.TempDir()
	zero := New(unix.DefaultEnv(), Options{CacheDir: dir})
	one := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	if zero.Opts.Seed != 1 {
		t.Fatalf("Options{} resolved to seed %d, want 1", zero.Opts.Seed)
	}
	ctx := context.Background()
	for _, spec := range []string{"uniq -c", "sort -rn", "wc -l"} {
		rz, err := zero.Synthesize(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		r1, tier, err := one.SynthesizeTier(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if tier != cache.TierDisk {
			// The store files entries by cache key.
			t.Errorf("%s: the Seed 1 engine missed the zero-Options engine's entry (tier %v)", spec, tier)
		}
		fresh, err := New(unix.DefaultEnv(), Options{Seed: 1}).Synthesize(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range []*Result{rz, r1} {
			if got, want := resultFingerprint(t, r), resultFingerprint(t, fresh); got != want {
				t.Errorf("%s: got %s, a fresh Options{Seed: 1} engine gives %s", spec, got, want)
			}
		}
	}
}

// TestCacheKeyGolden pins the cache key of `wc -l` over the newline
// delimiter under the default budget and seed 1 to the digest earlier
// builds wrote, so on-disk combiner caches they left still hit. The LRU
// size never changes a verdict, so it stays out of the key.
func TestCacheKeyGolden(t *testing.T) {
	argv, delims := []string{"wc", "-l"}, []byte{'\n'}
	const golden = "afe43b7aeaeb0af75cda56d0e43af006c722efd04ce4e8cad5732918bbd48fa0"
	if k := defaultBudget.key(argv, delims, 1); k != golden {
		t.Fatalf("default key = %s, want %s", k, golden)
	}
	b := defaultBudget
	b.lruSize++
	if k := b.key(argv, delims, 1); k != golden {
		t.Errorf("the LRU size changed the key to %s", k)
	}
}

// TestEngineCachesNegativeResults checks that definitive failures
// (ErrNoCombiner) are cached like successes: re-deriving "no combiner
// exists" costs a full search-space elimination, so it is worth storing.
func TestEngineCachesNegativeResults(t *testing.T) {
	dir := t.TempDir()
	a := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	ra, err := a.Synthesize(context.Background(), "sed 1d")
	if !errors.Is(err, ErrNoCombiner) {
		t.Fatalf("sed 1d: err = %v, want ErrNoCombiner (Table 9)", err)
	}
	b := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	rb, err := b.Synthesize(context.Background(), "sed 1d")
	if !errors.Is(err, ErrNoCombiner) {
		t.Fatalf("cached sed 1d: err = %v, want ErrNoCombiner", err)
	}
	if st := b.Stats(); st.DiskHits != 1 {
		t.Errorf("negative result not served from disk: %+v", st)
	}
	if rb.Space != ra.Space {
		t.Errorf("cached negative result lost the space: %+v vs %+v", rb.Space, ra.Space)
	}
}

// TestDiskCacheExcludesEnvReaders checks that commands whose output
// depends on the simulated file system (comm reads its dictionary
// operand during Run) never reach the disk tier: a cached combiner would
// be stale in a process with different registered files.
func TestDiskCacheExcludesEnvReaders(t *testing.T) {
	dir := t.TempDir()
	eng := New(unix.DefaultEnv(), Options{Seed: 1, CacheDir: dir})
	if _, err := eng.Synthesize(context.Background(), "comm -23 - dict.sorted"); err != nil {
		t.Logf("comm synthesis verdict: %v (exclusion applies regardless)", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Errorf("env-reading command was disk-cached: %d entries", len(entries))
	}
}

// TestSharedSpaceMatchesFreshEngines: specs that draw the same candidate
// space from one engine get exactly the verdicts, plausible sets and
// combiners they get from engines of their own, and the engine
// enumerates that space once.
func TestSharedSpaceMatchesFreshEngines(t *testing.T) {
	ctx := context.Background()
	for _, pair := range [][2]string{
		{"wc -l", "grep -c a"},
		{"uniq -c", "sort"},
	} {
		shared := New(unix.DefaultEnv(), Options{Seed: 3})
		var delims string
		for i, spec := range pair {
			got, gotErr := shared.Synthesize(ctx, spec)
			want, wantErr := New(unix.DefaultEnv(), Options{Seed: 3}).Synthesize(ctx, spec)
			if gotErr != wantErr {
				t.Errorf("%s: shared engine err %v, fresh engine %v", spec, gotErr, wantErr)
			}
			if g, w := resultFingerprint(t, got), resultFingerprint(t, want); g != w {
				t.Errorf("%s: shared engine result differs:\n  got  %s\n  want %s", spec, g, w)
			}
			if got.Space != want.Space {
				t.Errorf("%s: space %+v, want %+v", spec, got.Space, want.Space)
			}
			if d := string(delimBytes(got.Delims)); i == 0 {
				delims = d
			} else if d != delims {
				t.Fatalf("%q and %q select delimiters %q and %q; the pair must share a space", pair[0], pair[1], delims, d)
			}
		}
		if n := len(shared.spaces); n != 1 {
			t.Errorf("%v: engine holds %d spaces, want 1", pair, n)
		}
	}
}

// TestPlausibleNeverAliasesSpace: a synthesis that filters nothing (here
// cancelled before its first round) reports the whole space as
// plausible, but as a copy — scribbling over it must not reach the
// engine's shared space or the next spec that draws from it.
func TestPlausibleNeverAliasesSpace(t *testing.T) {
	eng := New(unix.DefaultEnv(), Options{Seed: 1})
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	res, _ := eng.Synthesize(cancelled, "wc -l")
	if res == nil || !errors.Is(res.Err, context.Canceled) || len(res.Plausible) != res.Space.Total() {
		t.Fatalf("pre-cancelled synthesis: want the unfiltered space and context.Canceled, got %+v", res)
	}
	for i := range res.Plausible {
		res.Plausible[i] = dsl.Candidate{Op: dsl.Rerun{}}
	}
	got, err := eng.Synthesize(context.Background(), "grep -c a")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := New(unix.DefaultEnv(), Options{Seed: 1}).Synthesize(context.Background(), "grep -c a")
	if g, w := resultFingerprint(t, got), resultFingerprint(t, want); g != w {
		t.Errorf("result after scribbling over a plausible set:\n  got  %s\n  want %s", g, w)
	}
	if len(eng.spaces) != 1 {
		t.Errorf("engine holds %d spaces, want 1 (wc -l and grep -c a share one)", len(eng.spaces))
	}
}

// TestSynthPhaseSpans: a traced cold synthesis records its phases as
// children of the synth span — enumerate, then observe, gradient and
// filter per round — and a warm hit records none. Each gradient span
// says how large its sample was and how many mutation scorings used
// the domain index, each filter span whether the filter did; uniq -c's
// first round uses the index on its 26 404-candidate space and its
// later rounds, on a few survivors, do not.
func TestSynthPhaseSpans(t *testing.T) {
	tr := obs.NewTracer(1, "test")
	ctx, root := tr.StartTrace(context.Background(), "root")
	eng := New(unix.DefaultEnv(), Options{Seed: 1})
	for i := 0; i < 2; i++ {
		if _, err := eng.Synthesize(ctx, "uniq -c"); err != nil {
			t.Fatal(err)
		}
	}
	root.End()
	td, _ := tr.Trace(root.SpanContext().TraceID)
	var synths []obs.SpanRecord
	children := map[string][]string{}
	for _, s := range td.Spans {
		if s.Name == "synth" {
			synths = append(synths, s)
		}
		children[s.ParentID] = append(children[s.ParentID], s.Name)
	}
	if len(synths) != 2 {
		t.Fatalf("recorded %d synth spans, want 2", len(synths))
	}
	cold, warm := children[synths[0].SpanID], children[synths[1].SpanID]
	count := map[string]int{}
	for _, name := range cold {
		count[name]++
	}
	if count["enumerate"] != 1 {
		t.Errorf("cold synthesis has %d enumerate spans, want 1 (children %v)", count["enumerate"], cold)
	}
	for _, phase := range []string{"observe", "gradient", "filter"} {
		if count[phase] == 0 || count[phase] != count["filter"] {
			t.Errorf("cold synthesis has %d %s spans and %d filter spans, want one per round (children %v)",
				count[phase], phase, count["filter"], cold)
		}
	}
	if len(warm) != 0 {
		t.Errorf("warm hit recorded child spans %v, want none", warm)
	}

	attr := func(s obs.SpanRecord, key string) int {
		for _, a := range s.Attrs {
			if a.Key == key {
				n, err := strconv.Atoi(a.Value)
				if err != nil {
					t.Fatalf("%s span attribute %s = %q", s.Name, key, a.Value)
				}
				return n
			}
		}
		t.Fatalf("%s span has no %s attribute (attrs %v)", s.Name, key, s.Attrs)
		return 0
	}
	scorings := eng.budget.mutationIters * shape.NumMutations
	paths := map[string]int{}
	for _, s := range td.Spans {
		if s.ParentID != synths[0].SpanID {
			continue
		}
		switch s.Name {
		case "gradient":
			sample, indexed := attr(s, "sample"), attr(s, "indexed")
			if sample < sampleIndexCutoff && indexed != 0 || sample >= sampleIndexCutoff && (indexed == 0 || indexed > scorings) {
				t.Errorf("gradient over a %d-candidate sample used the index in %d of %d scorings", sample, indexed, scorings)
			}
			paths[fmt.Sprintf("gradient indexed=%v", indexed > 0)]++
		case "filter":
			cands, indexed := attr(s, "candidates"), attr(s, "indexed")
			if want := cands >= filterIndexCutoff && attr(s, "observations") > 0; (indexed == 1) != want || indexed > 1 {
				t.Errorf("filter over %d candidates: indexed = %d", cands, indexed)
			}
			paths[fmt.Sprintf("filter indexed=%v", indexed == 1)]++
		}
	}
	for _, p := range []string{"gradient indexed=true", "gradient indexed=false", "filter indexed=true", "filter indexed=false"} {
		if paths[p] == 0 {
			t.Errorf("no %s span (spans by path: %v)", p, paths)
		}
	}
}
