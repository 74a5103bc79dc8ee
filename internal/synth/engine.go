package synth

import (
	"context"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/obs"
	"kumquat/internal/par"
	"kumquat/internal/shape"
	"kumquat/internal/synth/cache"
	"kumquat/internal/unix"
)

// Engine is the concurrent, cancellable, cached combiner synthesizer — the
// primary synthesis entry point. Algorithm 1's per-round candidate
// filtering fans out over the engine's workers (the live set is cut into
// contiguous shards, each shard filtered against the observation set,
// and survivors merged in shard order, so results are byte-identical to
// a sequential run at any worker count), and Algorithm 2's gradient
// mutations are scored concurrently. Results are cached in one bounded
// in-memory LRU — under the exact spec text, so a repeat resolves before
// it is even parsed, and under a canonical command signature (normalized
// argv + delimiter set + budget and seed), so quoting variants share a
// result — and, optionally, an on-disk store, so repeated stages and
// repeated invocations resolve without re-running synthesis. Concurrent
// requests for the same uncached spec are single-flighted: one synthesis
// runs, the rest wait and share its verdict. Each candidate space is
// enumerated once per engine and delimiter set, and shared read-only by
// every spec that draws from it (see space).
//
// An Engine is safe for concurrent use.
type Engine struct {
	// Opts are the synthesis options, with the default seed applied.
	Opts Options
	// Env is the command environment specs are parsed against.
	Env *unix.Env

	budget   budget
	workers  int
	counters cache.Counters

	mu       sync.Mutex       // orders spec-text lookups against inflight
	inflight map[string]*call // spec → in-progress synthesis (single-flight)
	// lru maps both specKey(spec text) and the canonical signature to the
	// one *Result.
	lru  *cache.LRU
	disk *cache.Store // nil unless Opts.CacheDir is set

	spaceMu sync.Mutex
	spaces  map[string]*space // delimiter bytes → candidate space
}

// space is one enumerated candidate space, AllCandidates(n) of Algorithm
// 1 for one delimiter set, with its domain index. It is built once and
// never written again. A synthesis holds its live set as indices into
// the space (all is the identity, clipped to its length), so filtering
// copies indices, never candidates; scratch pools the domain index's
// per-goroutine workspaces.
type space struct {
	once sync.Once
	*dsl.Space
	all     []int32
	scratch sync.Pool // *dsl.DomainScratch
}

// space returns the engine's candidate space for a delimiter set,
// enumerating it on first use; concurrent first uses wait for one
// enumeration. The engine's budget (defaultBudget outside tests) fixes
// maxProductions, so the ordered delimiter bytes are the whole key. The
// memo lives as long as the engine and holds one space per delimiter set
// it has seen (≈ 4.7 MB retained for a three-delimiter space,
// DESIGN.md). It reports whether the space was already built or being
// built.
func (e *Engine) space(delims []dsl.Delim) (*space, bool) {
	key := string(delimBytes(delims))
	e.spaceMu.Lock()
	sp, ok := e.spaces[key]
	if !ok {
		if e.spaces == nil {
			e.spaces = map[string]*space{}
		}
		sp = &space{}
		e.spaces[key] = sp
	}
	e.spaceMu.Unlock()
	sp.once.Do(func() {
		sp.Space = dsl.NewSpace(e.budget.maxProductions, delims)
		sp.all = make([]int32, len(sp.Cands))
		for i := range sp.all {
			sp.all[i] = int32(i)
		}
		sp.scratch.New = func() any { return sp.NewScratch() }
	})
	return sp, ok
}

// domain computes the domain index for one observation's operands into
// a pooled scratch; the caller hands it back with release.
func (sp *space) domain(o Observation) *dsl.DomainScratch {
	ws := sp.scratch.Get().(*dsl.DomainScratch)
	sp.Domain(ws, o.Y1, o.Y2)
	return ws
}

func (sp *space) release(ws *dsl.DomainScratch) { sp.scratch.Put(ws) }

// specKey is the LRU key of an exact spec text. The NUL keeps it disjoint
// from canonical signatures (hex digests) whatever the text is.
func specKey(spec string) string { return "spec\x00" + spec }

// call is one in-progress synthesis that concurrent callers of the same
// spec coalesce onto: followers wait on done instead of re-running the
// cold synthesis. ok is true when the leader cached a verdict; false
// (cancellation, parse failure) sends followers back to retry.
type call struct {
	done chan struct{}
	r    *Result
	ok   bool
}

// New returns an Engine over the given command environment (the default
// environment when env is nil). Seed 0 selects the default seed, 1.
func New(env *unix.Env, opts Options) *Engine { return newEngine(env, opts, defaultBudget) }

// newEngine is New with an explicit budget, for in-package tests.
func newEngine(env *unix.Env, opts Options, b budget) *Engine {
	if env == nil {
		env = unix.DefaultEnv()
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	e := &Engine{Opts: opts, Env: env, budget: b, lru: cache.NewLRU(b.lruSize)}
	e.workers = opts.Workers
	if e.workers == 0 {
		e.workers = runtime.GOMAXPROCS(0)
	}
	if e.workers < 1 {
		e.workers = 1
	}
	if opts.CacheDir != "" {
		// Store errors degrade to a memory-only engine: the disk tier is
		// an accelerator, never required for correctness.
		if st, err := cache.NewStore(opts.CacheDir); err == nil {
			e.disk = st
		}
	}
	return e
}

// Synthesize parses a command spec and synthesizes its combiner,
// consulting the in-memory LRU (by spec text, then by canonical
// signature) and the on-disk store before running Algorithms 1–2.
// Cancelling ctx aborts synthesis mid-round; the returned Result then
// carries the best-so-far survivor set with Err set to ctx.Err(), and is
// not cached.
func (e *Engine) Synthesize(ctx context.Context, spec string) (*Result, error) {
	r, _, err := e.SynthesizeTier(ctx, spec)
	return r, err
}

// SynthesizeTier is Synthesize plus an exact attribution of which cache
// tier served the call: cache.TierMemory (the LRU, including waits
// coalesced onto another caller's in-flight synthesis), cache.TierDisk
// (on-disk store) or cache.TierMiss (full synthesis ran). The attribution
// is decided at the lookup site, so unlike a Stats delta it stays exact
// when other calls run concurrently.
//
// Concurrent calls for the same uncached spec are single-flighted: one
// leader runs the synthesis, the rest wait and share its verdict — under
// a many-client daemon a cold spec costs one synthesis, not one per
// request. A follower whose own ctx cancels while waiting returns a
// best-effort Result carrying ctx.Err(); a leader whose ctx cancels
// leaves nothing cached, and its followers retry.
func (e *Engine) SynthesizeTier(ctx context.Context, spec string) (*Result, cache.Tier, error) {
	ctx, span := obs.StartSpan(ctx, "synth")
	if span == nil {
		return e.synthesizeTier(ctx, spec)
	}
	r, tier, err := e.synthesizeTier(ctx, spec)
	span.Attr("spec", spec)
	span.Attr("tier", tier.String())
	if r != nil {
		span.AttrInt("space", int64(r.Space.Total()))
	}
	span.End()
	return r, tier, err
}

// synthesizeTier is SynthesizeTier without the tracing wrapper.
func (e *Engine) synthesizeTier(ctx context.Context, spec string) (*Result, cache.Tier, error) {
	key := specKey(spec)
	for {
		e.mu.Lock()
		if v, ok := e.lru.Get(key); ok {
			e.mu.Unlock()
			e.counters.Hit()
			r := v.(*Result)
			return r, cache.TierMemory, r.Err
		}
		if c, ok := e.inflight[spec]; ok {
			e.mu.Unlock()
			select {
			case <-c.done:
			case <-ctx.Done():
				e.counters.Miss()
				r := &Result{Spec: spec, Err: ctx.Err()}
				return r, cache.TierMiss, r.Err
			}
			if c.ok {
				e.counters.Hit()
				return c.r, cache.TierMemory, c.r.Err
			}
			continue // leader cancelled or failed to parse; try again
		}
		c := &call{done: make(chan struct{})}
		if e.inflight == nil {
			e.inflight = map[string]*call{}
		}
		e.inflight[spec] = c
		e.mu.Unlock()

		cmd, err := unix.Parse(spec, e.Env)
		if err != nil {
			e.mu.Lock()
			delete(e.inflight, spec)
			e.mu.Unlock()
			close(c.done)
			return nil, cache.TierMiss, err
		}
		r, tier := e.synthesizeCommand(ctx, cmd)
		e.mu.Lock()
		if ctx.Err() == nil {
			// Negative verdicts (non-stream, multi-input) are cached here
			// too: they have no canonical-signature entry.
			e.lru.Put(key, r)
			c.r, c.ok = r, true
		}
		delete(e.inflight, spec)
		e.mu.Unlock()
		close(c.done)
		return r, tier, r.Err
	}
}

// Stats returns a snapshot of the engine's cache activity: memory hits
// (the LRU), disk hits, and misses (full synthesis runs).
func (e *Engine) Stats() cache.Stats { return e.counters.Snapshot() }

// synthesizeCommand runs cache lookup and, on a miss, Algorithm 1 for one
// already-parsed black-box command, and names the serving cache tier:
// TierMemory for an LRU hit, TierDisk for an on-disk hit, TierMiss when
// synthesis (or an unsupported-command verdict) ran from scratch.
func (e *Engine) synthesizeCommand(ctx context.Context, cmd unix.Command) (*Result, cache.Tier) {
	start := time.Now()
	res := &Result{Spec: cmd.Spec()}
	if ns, ok := cmd.(interface{ NonStream() bool }); ok && ns.NonStream() {
		res.Err = ErrNonStream
		res.Duration = time.Since(start)
		e.counters.Miss() // cached repeats count as hits; keep stats consistent
		return res, cache.TierMiss
	}
	if mi, ok := cmd.(interface{ MultiInput() bool }); ok && mi.MultiInput() {
		res.Err = ErrMultiInput
		res.Duration = time.Since(start)
		e.counters.Miss()
		return res, cache.TierMiss
	}

	// Deterministic per-command seed.
	rng := rand.New(rand.NewSource(e.Opts.Seed ^ int64(hashSpec(cmd.Spec()))))

	// Preprocessing (§3.2): probes, literal mining, delimiter selection.
	// This is cheap, fixed work (a dozen command runs on tiny probe
	// streams) and yields the delimiter set the cache key needs.
	p := preprocess(cmd, e.Env, rng)

	argv := canonicalArgv(cmd.Spec())
	key := e.budget.key(argv, delimBytes(p.delims), e.Opts.Seed)
	if v, ok := e.lru.Get(key); ok {
		e.counters.Hit()
		return v.(*Result), cache.TierMemory
	}
	// Commands whose behaviour depends on the simulated file system —
	// file-name input mode (xargs-style probes read the FS) or commands
	// that read registered files during Run (cat FILE, comm - FILE) —
	// stay out of the disk tier: their results are not portable across
	// processes with different registered files.
	re, readsEnv := cmd.(interface{ ReadsEnv() bool })
	diskable := e.disk != nil && len(p.fileNames) == 0 &&
		!(readsEnv && re.ReadsEnv())
	if diskable {
		if ent, ok := e.disk.Get(key); ok {
			if r, ok := e.resultFromEntry(ent, cmd); ok {
				e.counters.DiskHit()
				e.lru.Put(key, r)
				return r, cache.TierDisk
			}
		}
	}

	e.counters.Miss()
	res = e.synthesize(ctx, cmd, rng, p, start)
	if ctx.Err() == nil {
		e.lru.Put(key, res)
		if diskable && cacheableErr(res.Err) {
			e.disk.Put(key, e.entryFromResult(res, argv)) //nolint:errcheck // accelerator only
		}
	}
	return res, cache.TierMiss
}

// synthesize is Algorithm 1's round loop: generate effective inputs
// (Algorithm 2), observe the command, and filter the candidate space in
// parallel shards, until the space empties, progress stagnates, or ctx is
// cancelled. Each phase is a child span of the caller's synth span:
// enumerate once, then observe, gradient and filter once per round.
func (e *Engine) synthesize(ctx context.Context, cmd unix.Command, rng *rand.Rand, p prep, start time.Time) *Result {
	b := e.budget
	res := &Result{Spec: cmd.Spec(), Delims: p.delims}

	denv := EvalEnv(cmd, e.Env)

	// C0 ← AllCandidates(n), shared with every spec of this delimiter set.
	_, span := obs.StartSpan(ctx, "enumerate")
	c0, built := e.space(p.delims)
	if span.Enabled() {
		memo := "miss"
		if built {
			memo = "hit"
		}
		span.AttrInt("candidates", int64(len(c0.Cands)))
		span.Attr("memo", memo)
	}
	span.End()
	live := c0.all
	res.Space = c0.Size

	gen := p.generator(rng)
	seeds := p.seedShapes()

	var (
		inBytes, outBytes int
		sawOutput         bool
		stagnant          int
	)
	finish := func(err error) *Result {
		res.Duration = time.Since(start)
		if err != nil {
			res.Err = err
		} else if !sawOutput {
			res.Err = ErrNoOutputs
			return res
		}
		if inBytes > 0 {
			res.ReductionRatio = float64(outBytes) / float64(inBytes)
		}
		res.Plausible = make([]dsl.Candidate, len(live))
		for i, k := range live {
			res.Plausible[i] = c0.Cands[k]
		}
		if sawOutput {
			res.Combiner = buildComposite(cmd.Spec(), denv, res.Plausible)
		}
		return res
	}
	for round := 1; round <= b.maxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		res.Rounds = round
		s0 := seeds[(round-1)%len(seeds)]
		if round > len(seeds) {
			// RandomShape(): perturb a seed with a few random mutations.
			for i := 0; i < 1+rng.Intn(3); i++ {
				s0 = shape.Mutate(s0, rng.Intn(shape.NumMutations))
			}
		}
		inputs, slots := e.effectiveInputs(ctx, cmd, denv, c0, live, gen, s0, rng)
		if err := ctx.Err(); err != nil {
			return finish(err)
		}
		observed := make([]Observation, 0, len(slots))
		for i, s := range slots {
			if !s.ok {
				continue
			}
			observed = append(observed, s.o)
			if s.o.Y12 != "" && s.o.Y12 != "\n" {
				sawOutput = true
			}
			inBytes += len(inputs[i][0]) + len(inputs[i][1])
			outBytes += len(s.o.Y12)
		}
		res.Observations += len(observed)
		before := len(live)
		_, span := obs.StartSpan(ctx, "filter")
		next, indexed, err := e.filterParallel(ctx, denv, c0, live, observed)
		if span.Enabled() {
			span.AttrInt("candidates", int64(before))
			span.AttrInt("observations", int64(len(observed)))
			span.AttrInt("survivors", int64(len(next)))
			span.AttrInt("indexed", b2i(indexed))
		}
		span.End()
		if err != nil {
			// Cancelled mid-filter: the previous round's survivors are the
			// best verified verdict.
			return finish(err)
		}
		live = next
		if len(live) == 0 {
			res.Err = ErrNoCombiner
			res.Duration = time.Since(start)
			return res
		}
		if len(live) == before {
			stagnant++
			if stagnant >= b.stagnationRounds {
				break
			}
		} else {
			stagnant = 0
		}
	}
	return finish(nil)
}

// obsSlot pairs one generated input with its observation; ok is false
// when the command errored on the pair (it fell outside the command's
// domain) or the pair was never run (cancellation).
type obsSlot struct {
	o  Observation
	ok bool
}

// effectiveInputs is Algorithm 2 (GetEffectiveInputs): M gradient steps,
// each trying all twelve mutations of the current shape, generating input
// pairs from every mutation, and stepping to the mutation whose inputs
// eliminated the most sampled candidates. It returns every generated
// pair with its observation slot (aligned by index), so the round filter
// reuses the scoring observations instead of re-running the command.
//
// Input generation stays on the calling goroutine (it consumes the
// deterministic rng); only the pure observe-and-score work per mutation
// runs on the worker pool, so the chosen mutations — and therefore the
// generated inputs and observations — are identical at any worker count.
func (e *Engine) effectiveInputs(ctx context.Context, cmd unix.Command, denv *dsl.Env,
	sp *space, live []int32, gen *shape.Generator, s0 shape.Shape, rng *rand.Rand) ([][2]string, []obsSlot) {

	b := e.budget
	// Seed-shape inputs first: they do the bulk of the cheap elimination.
	all := gen.Pairs(s0, b.pairsPerShape)
	_, span := obs.StartSpan(ctx, "observe")
	slots := e.observeSlots(ctx, cmd, all)
	span.AttrInt("pairs", int64(len(all)))
	span.End()

	// The gradient span covers the mutation steps whole: each observes
	// its mutations' pairs and scores them against the sample.
	_, span = obs.StartSpan(ctx, "gradient")
	cur := s0
	// Score mutations against a bounded sample of live candidates so the
	// gradient stays cheap even on the 110k-candidate spaces.
	sample := sampleCandidates(live, 4096, rng)
	var indexed atomic.Int64
	defer func() {
		if span.Enabled() {
			span.AttrInt("sample", int64(len(sample)))
			span.AttrInt("indexed", indexed.Load())
		}
		span.End()
	}()
	for m := 0; m < b.mutationIters; m++ {
		if ctx.Err() != nil {
			return all, slots
		}
		pairsByMut := make([][][2]string, shape.NumMutations)
		for j := 0; j < shape.NumMutations; j++ {
			pairsByMut[j] = gen.Pairs(shape.Mutate(cur, j), b.pairsPerShape)
		}
		if b.disableGradient {
			// No scoring: observe the mutations' pairs in one parallel
			// pass and take a random step (the ablation baseline).
			for j := range pairsByMut {
				all = append(all, pairsByMut[j]...)
			}
			slots = append(slots, e.observeSlots(ctx, cmd, all[len(slots):])...)
			cur = shape.Mutate(cur, rng.Intn(shape.NumMutations))
			continue
		}
		mutSlots := make([][]obsSlot, shape.NumMutations)
		scores := make([]int, shape.NumMutations)
		par.For(e.workers, shape.NumMutations, func(j int) {
			if ctx.Err() != nil {
				return
			}
			sl := make([]obsSlot, len(pairsByMut[j]))
			for i, p := range pairsByMut[j] {
				o, ok := runPair(cmd, p)
				sl[i] = obsSlot{o, ok}
			}
			mutSlots[j] = sl
			var used bool
			scores[j], used = countEliminated(denv, sp, sample, compactObs(sl))
			if used {
				indexed.Add(1)
			}
		})
		for j := range pairsByMut {
			if mutSlots[j] == nil {
				// Cancelled before this mutation ran; keep inputs and
				// slots aligned by dropping its pairs.
				continue
			}
			all = append(all, pairsByMut[j]...)
			slots = append(slots, mutSlots[j]...)
		}
		if ctx.Err() != nil {
			return all, slots
		}
		best, bestScore := -1, -1
		for j, sc := range scores {
			if sc > bestScore {
				best, bestScore = j, sc
			}
		}
		cur = shape.Mutate(cur, best)
	}
	return all, slots
}

// runPair executes the command on one input pair, producing Definition
// 3.5's ⟨y1, y2, y12⟩ triple; ok is false when the command errored on any
// of the three runs (the pair fell outside the command's domain).
func runPair(cmd unix.Command, p [2]string) (Observation, bool) {
	y1, err1 := cmd.Run(p[0])
	y2, err2 := cmd.Run(p[1])
	y12, err12 := cmd.Run(p[0] + p[1])
	if err1 != nil || err2 != nil || err12 != nil {
		return Observation{}, false
	}
	return Observation{Y1: y1, Y2: y2, Y12: y12}, true
}

// observeSlots executes the command on each input pair concurrently,
// producing Definition 3.5's observations in slots aligned with the
// pairs (pairs on which the command errors get ok=false: the command's
// legal-input constraints are respected by construction for
// sorted/file-name modes; errors elsewhere mean the generated input was
// outside the command's domain). A cancelled ctx leaves the unrun
// pairs' slots ok=false; callers check ctx before trusting the set.
func (e *Engine) observeSlots(ctx context.Context, cmd unix.Command, pairs [][2]string) []obsSlot {
	slots := make([]obsSlot, len(pairs))
	par.For(e.workers, len(pairs), func(i int) {
		if ctx.Err() == nil {
			o, ok := runPair(cmd, pairs[i])
			slots[i] = obsSlot{o, ok}
		}
	})
	return slots
}

// compactObs extracts the successful observations from a slot list, in
// order.
func compactObs(slots []obsSlot) []Observation {
	obs := make([]Observation, 0, len(slots))
	for _, s := range slots {
		if s.ok {
			obs = append(obs, s.o)
		}
	}
	return obs
}

// filterParallel is FilterCandidates over a sharded live set: each
// shard is filtered against the observations on the engine's workers and
// the survivors are concatenated in shard order, reproducing the
// sequential filter exactly. From filterIndexCutoff live candidates up,
// the domain index for the first observation is computed once before the
// fan-out and every shard reads it; indexed reports whether it was.
// Returns ctx.Err() if cancelled before the merge completes, in which
// case the partial survivors are discarded.
func (e *Engine) filterParallel(ctx context.Context, denv *dsl.Env, sp *space,
	live []int32, obs []Observation) (next []int32, indexed bool, err error) {

	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	if len(obs) == 0 || len(live) == 0 {
		return live, false, nil
	}
	var ws *dsl.DomainScratch
	if len(live) >= filterIndexCutoff {
		ws = sp.domain(obs[0])
		defer sp.release(ws)
	}
	// Small sets are one shard, filtered inline. Larger ones are cut so
	// a cancelled ctx is noticed between shards: into 2048-candidate
	// shards on one worker, and into four shards per worker otherwise, so
	// the atomic index balances shards of uneven candidate cost.
	shards := 1
	switch {
	case len(live) < 2048:
	case e.workers <= 1:
		shards = (len(live) + 2047) / 2048
	default:
		shards = e.workers * 4
	}
	size := (len(live) + shards - 1) / shards
	out := make([][]int32, (len(live)+size-1)/size)
	par.For(e.workers, len(out), func(i int) {
		if ctx.Err() == nil {
			lo := i * size
			out[i] = filterCandidates(denv, sp.Space, ws, live[lo:min(lo+size, len(live))], obs, nil)
		}
	})
	if err := ctx.Err(); err != nil {
		return nil, false, err
	}
	return slices.Concat(out...), ws != nil, nil
}

// EvalEnv builds the DSL evaluation environment for one command parsed
// against env: f for rerun, and the merge comparator (the command itself
// when it is a sort, plain sort otherwise).
func EvalEnv(cmd unix.Command, env *unix.Env) *dsl.Env {
	denv := &dsl.Env{RunF: cmd.Run}
	if sc, ok := cmd.(*unix.SortCmd); ok {
		denv.Merge = sc
	} else if def, err := unix.Parse("sort", env); err == nil {
		denv.Merge = def.(*unix.SortCmd)
	}
	return denv
}

// canonicalArgv normalizes a command spec to its shell tokenization, so
// quoting and whitespace variants of the same command share a cache key.
func canonicalArgv(spec string) []string {
	if argv, err := unix.Tokenize(spec); err == nil && len(argv) > 0 {
		return argv
	}
	return []string{spec}
}

// delimBytes converts a delimiter set to raw bytes for key derivation.
func delimBytes(delims []dsl.Delim) []byte {
	out := make([]byte, len(delims))
	for i, d := range delims {
		out[i] = byte(d)
	}
	return out
}

// Error tags used in persisted entries.
const (
	errTagNoCombiner = "no-combiner"
	errTagNoOutputs  = "no-outputs"
)

// cacheableErr reports whether a result's error state may be persisted:
// successful syntheses and the two definitive negative verdicts are;
// transient states (cancellation) are not.
func cacheableErr(err error) bool {
	return err == nil || err == ErrNoCombiner || err == ErrNoOutputs
}

// entryFromResult converts a synthesis result to its persisted form.
func (e *Engine) entryFromResult(r *Result, argv []string) *cache.Entry {
	ent := &cache.Entry{
		Spec:           r.Spec,
		Argv:           argv,
		Delims:         string(delimBytes(r.Delims)),
		SpaceRec:       r.Space.Rec,
		SpaceStruct:    r.Space.Struct,
		SpaceRun:       r.Space.Run,
		Rounds:         r.Rounds,
		Observations:   r.Observations,
		ReductionRatio: r.ReductionRatio,
		DurationNS:     int64(r.Duration),
	}
	switch r.Err {
	case ErrNoCombiner:
		ent.Err = errTagNoCombiner
	case ErrNoOutputs:
		ent.Err = errTagNoOutputs
	}
	for _, c := range r.Plausible {
		ent.Plausible = append(ent.Plausible, c.String())
	}
	return ent
}

// resultFromEntry rebuilds a live result from a persisted entry: the
// plausible set is re-parsed from DSL text and the composite combiner
// rebuilt against the command's evaluation environment. Any decode
// failure reports false and the entry is treated as a miss.
func (e *Engine) resultFromEntry(ent *cache.Entry, cmd unix.Command) (*Result, bool) {
	res := &Result{
		Spec:           ent.Spec,
		Space:          dsl.SpaceSize{Rec: ent.SpaceRec, Struct: ent.SpaceStruct, Run: ent.SpaceRun},
		Rounds:         ent.Rounds,
		Observations:   ent.Observations,
		ReductionRatio: ent.ReductionRatio,
		Duration:       time.Duration(ent.DurationNS),
	}
	for _, b := range []byte(ent.Delims) {
		res.Delims = append(res.Delims, dsl.Delim(b))
	}
	switch ent.Err {
	case "":
	case errTagNoCombiner:
		res.Err = ErrNoCombiner
		return res, true
	case errTagNoOutputs:
		res.Err = ErrNoOutputs
		return res, true
	default:
		return nil, false
	}
	for _, s := range ent.Plausible {
		c, err := dsl.ParseCandidate(s)
		if err != nil {
			return nil, false
		}
		res.Plausible = append(res.Plausible, c)
	}
	res.Combiner = buildComposite(ent.Spec, EvalEnv(cmd, e.Env), res.Plausible)
	if res.Combiner == nil {
		return nil, false
	}
	return res, true
}
