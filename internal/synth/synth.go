// Package synth implements KumQuat's combiner synthesis (§3.2): Algorithm 1
// (round-based filtering of a candidate combiner space against observations
// of the black-box command) and Algorithm 2 (input generation driven by a
// gradient over input-shape mutations, scored by how many candidates each
// mutation's inputs eliminate).
//
// The Engine is the synthesis entry point: candidate filtering and
// gradient scoring fan out over a bounded worker pool, synthesis is
// cancellable mid-round via context, and results are cached by spec text
// in memory and by canonical command signature on disk (see
// internal/synth/cache and DESIGN.md).
package synth

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"kumquat/internal/dsl"
	"kumquat/internal/synth/cache"
)

// Options is what a deployment sets on an Engine: the seed, the worker
// pool and the on-disk cache directory. The zero value selects the
// benchmarks' defaults. The algorithm's effort is not configuration:
// every Engine runs defaultBudget.
type Options struct {
	// Seed makes synthesis deterministic; combined with the command spec.
	// 0 selects the default seed, 1.
	Seed int64
	// Workers bounds the candidate-filtering and gradient-scoring worker
	// pool (0 = GOMAXPROCS, 1 = fully sequential). Synthesis results are
	// identical at every worker count; only wall time changes.
	Workers int
	// CacheDir, when non-empty, enables the on-disk combiner store so
	// synthesis results persist across processes.
	CacheDir string
}

// budget is the synthesis algorithm's effort: how large candidates grow,
// how many inputs a round generates and how many rounds run. It steers
// verdicts, so every value but lruSize is part of the cache key. It is
// not configuration: New runs defaultBudget, and only in-package tests
// run another, through newEngine.
type budget struct {
	// maxProductions bounds candidate AST size.
	maxProductions int
	// pairsPerShape is how many input stream pairs each shape generates.
	pairsPerShape int
	// mutationIters is M in Algorithm 2: gradient steps per round.
	mutationIters int
	// stagnationRounds is how many no-progress rounds end Algorithm 1.
	stagnationRounds int
	// maxRounds caps Algorithm 1's outer loop.
	maxRounds int
	// disableGradient replaces Algorithm 2's best-mutation selection
	// with a uniformly random mutation walk (the ablation baseline).
	disableGradient bool
	// lruSize caps the in-memory combiner LRU in entries, one per spec
	// text. It never changes a verdict, so it stays out of the cache key.
	lruSize int
}

// defaultBudget is the budget every Engine runs; dsl.DefaultMaxProductions
// reproduces the paper's search spaces.
var defaultBudget = budget{
	maxProductions:   dsl.DefaultMaxProductions,
	pairsPerShape:    3,
	mutationIters:    3,
	stagnationRounds: 2,
	maxRounds:        6,
	lruSize:          cache.DefaultCapacity,
}

// key derives the cache key of one synthesis problem under this budget
// and seed. The steering values keep a fixed order, so keys — and the
// on-disk entries filed under them — stay stable across builds that run
// the same budget.
func (b budget) key(argv []string, delims []byte, seed int64) string {
	return cache.Key(argv, delims, b.maxProductions, b.pairsPerShape, b.mutationIters,
		b.stagnationRounds, b.maxRounds, seed, b.disableGradient)
}

// Observation is Definition 3.4's ⟨y1, y2, y12⟩ triple: the command's
// outputs on x1, x2 and x1 ++ x2.
type Observation struct {
	Y1, Y2, Y12 string
}

// Result reports one command's synthesis outcome — a row of Table 10.
type Result struct {
	// Spec is the command text.
	Spec string
	// Space is the initial search-space breakdown (Table 10's third column).
	Space dsl.SpaceSize
	// Delims is the preprocessing-selected delimiter set.
	Delims []dsl.Delim
	// Plausible holds the surviving candidates (Table 10's fifth column).
	Plausible []dsl.Candidate
	// Combiner is the composite combiner built from Plausible; nil when
	// synthesis failed (Err explains why).
	Combiner *Combiner
	// Err is non-nil when no combiner was synthesized: either the candidate
	// set emptied (no correct combiner exists in the space, Table 9's sed/
	// tail rows) or no generated input produced nonempty output (Table 9's
	// equality-gated awk row).
	Err error
	// Rounds is how many Algorithm 1 rounds ran.
	Rounds int
	// Observations is the total number of observation triples used.
	Observations int
	// Duration is the wall-clock synthesis time.
	Duration time.Duration
	// ReductionRatio estimates |f(x)| / |x| over the observations; the
	// planner runs rerun-combined stages sequentially when a command does
	// not significantly reduce its stream (§2's tr -cs decision).
	ReductionRatio float64
}

// ErrNoCombiner indicates the search space emptied: no DSL combiner is
// correct for the command (e.g. sed 1d, tail +2 — Table 9).
var ErrNoCombiner = errors.New("synth: no candidate combiner survived")

// ErrNoOutputs indicates input generation never made the command produce
// nonempty output, so no combiner could be validated (Table 9's awk row).
var ErrNoOutputs = errors.New("synth: no generated inputs produced nonempty outputs")

// ErrMultiInput marks commands that read several input streams (paste,
// diff, two-file comm); the single-stream combiner model does not apply
// (footnote 5).
var ErrMultiInput = errors.New("synth: command reads multiple input streams")

// ErrNonStream marks commands that do not process a data stream at all
// (ls, mkfifo, rm — footnote 5).
var ErrNonStream = errors.New("synth: command does not process an input stream")

// Below these sizes the round filter and Algorithm 2's scoring check
// each candidate directly; from them up they first compute the domain
// index (dsl.Space.Domain) for the observation set's first observation,
// and a candidate whose bit is 0 is eliminated without a call. One
// Domain call costs what the direct check of 35–170 candidates does on
// word lines, and of ≈ 1 300 in the worst case measured, count tables
// on the three-delimiter space (BenchmarkDomainIndex). The cutoffs sit
// at that worst case; lower ones measured within noise on
// BenchmarkColdSynthesis (DESIGN.md, "Where cold synthesis time goes").
const (
	sampleIndexCutoff = 1024
	filterIndexCutoff = 2048
)

// filterCandidates appends to live the candidates of shard plausible for
// every observation (Definition 3.9): FilterCandidates in Algorithm 1.
// ws, when non-nil, holds the domain index for obs[0]; a candidate
// outside it is dropped without a call, and every other candidate runs
// the whole Plausible chain, so the survivors are exact either way.
func filterCandidates(env *dsl.Env, sp *dsl.Space, ws *dsl.DomainScratch, shard []int32, obs []Observation, live []int32) []int32 {
	for _, k := range shard {
		if plausible(env, sp, ws, k, obs) {
			live = append(live, k)
		}
	}
	return live
}

// plausible reports whether candidate k is plausible for every
// observation, consulting the domain index ws for obs[0] first.
func plausible(env *dsl.Env, sp *dsl.Space, ws *dsl.DomainScratch, k int32, obs []Observation) bool {
	if ws != nil && int(k) < sp.Indexed() && !ws.InDomain(int(k)) {
		return false
	}
	c := sp.Cands[k]
	for _, o := range obs {
		if !c.Plausible(env, o.Y1, o.Y2, o.Y12) {
			return false
		}
	}
	return true
}

// countEliminated scores an observation set by how many of the sampled
// candidates it kills (IndexBestMutation's effectiveness measure). From
// sampleIndexCutoff sampled candidates up it computes the domain index
// for obs[0] first, and reports that it did.
func countEliminated(env *dsl.Env, sp *space, sample []int32, obs []Observation) (killed int, indexed bool) {
	if len(obs) == 0 {
		return 0, false
	}
	var ws *dsl.DomainScratch
	if len(sample) >= sampleIndexCutoff {
		ws = sp.domain(obs[0])
		defer sp.release(ws)
	}
	for _, k := range sample {
		if !plausible(env, sp.Space, ws, k, obs) {
			killed++
		}
	}
	return killed, ws != nil
}

// sampleCandidates draws n live candidates with replacement, or returns
// the live set whole when it has at most n.
func sampleCandidates(live []int32, n int, rng *rand.Rand) []int32 {
	if len(live) <= n {
		return live
	}
	out := make([]int32, n)
	for i := range out {
		out[i] = live[rng.Intn(len(live))]
	}
	return out
}

// b2i is 1 for true, 0 for false (span attributes).
func b2i(b bool) int64 {
	if b {
		return 1
	}
	return 0
}

func hashSpec(s string) uint32 {
	var h uint32 = 2166136261
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Combiner is the synthesized composite combiner (§3.2 "Multiple Plausible
// Combiners"): an ordered list of plausible candidates from the preferred
// class (RecOp ⊃ StructOp ⊃ RunOp); Combine dispatches to the first
// candidate whose domain contains the operands.
type Combiner struct {
	Spec       string
	Candidates []dsl.Candidate
	env        *dsl.Env
}

// buildComposite selects the class-preferred subset and orders it with
// universal-domain candidates last, so domain dispatch stays meaningful.
func buildComposite(spec string, env *dsl.Env, plausible []dsl.Candidate) *Combiner {
	if len(plausible) == 0 {
		return nil
	}
	byClass := func(cl dsl.Class) []dsl.Candidate {
		var out []dsl.Candidate
		for _, c := range plausible {
			if c.Class() == cl {
				out = append(out, c)
			}
		}
		return out
	}
	chosen := byClass(dsl.RecOpClass)
	if len(chosen) == 0 {
		chosen = byClass(dsl.StructOpClass)
	}
	if len(chosen) == 0 {
		chosen = byClass(dsl.RunOpClass)
	}
	// Order: smaller (more specific) combiners first; rerun last (its
	// domain is universal, so anything after it would be unreachable).
	// Keys are precomputed once per candidate — a cancellation mid-round
	// can hand this function the entire unfiltered space (110k+
	// candidates), where a comparison-time String() render inside an
	// O(n²) sort is an effective hang.
	type keyed struct {
		rank, size int
		str        string
		c          dsl.Candidate
	}
	keys := make([]keyed, len(chosen))
	for i, c := range chosen {
		keys[i] = keyed{combinerRank(c), c.Size(), c.String(), c}
	}
	sort.SliceStable(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.rank != b.rank {
			return a.rank < b.rank
		}
		if a.size != b.size {
			return a.size < b.size
		}
		return a.str < b.str
	})
	ordered := make([]dsl.Candidate, len(keys))
	for i, k := range keys {
		ordered[i] = k.c
	}
	return &Combiner{Spec: spec, Candidates: ordered, env: env}
}

// combinerRank orders composite members: concat first (universal domain and
// cheapest — and the paper prefers the largest-domain combiner), then other
// RecOps, StructOps, the merges, rerun.
func combinerRank(c dsl.Candidate) int {
	switch c.Op.(type) {
	case dsl.Concat:
		return 0
	case dsl.Merge, dsl.KeyMerge:
		return 3
	case dsl.Rerun:
		return 4
	default:
		if c.Class() == dsl.StructOpClass {
			return 2
		}
		return 1
	}
}

// Primary is the candidate the planner reasons about (concat triggers
// combiner elimination, merge/rerun drive execution strategy).
func (c *Combiner) Primary() dsl.Candidate { return c.Candidates[0] }

// IsConcat reports whether the combiner is plain stream concatenation in
// argument order — the precondition for Theorem 5's intermediate combiner
// elimination.
func (c *Combiner) IsConcat() bool {
	p := c.Primary()
	_, ok := p.Op.(dsl.Concat)
	return ok && !p.Swap
}

// IsRerunOnly reports whether the only surviving combiners re-execute the
// command (the class the planner may choose to run sequentially, §2).
func (c *Combiner) IsRerunOnly() bool {
	for _, cand := range c.Candidates {
		if _, ok := cand.Op.(dsl.Rerun); !ok {
			return false
		}
	}
	return true
}

// CombineKTree merges k parallel outputs through the first candidate
// whose domain contains every nonempty substream, using the k-way
// generalization of §3.5 (dsl.CombineK): concat, merge, the keyed merge
// and rerun combine all substreams at once, every other combiner folds
// left. width bounds
// only the key ranges a merge splits into; the output is byte-identical
// at every width. A merge checks its domain in the walk that merges: an
// unsorted substream fails it with dsl.ErrNotSorted, which skips the
// candidate exactly as a failed InDomain does.
//
// The name predates the single fold; it is kept because the repository
// benchmark calls it.
func (c *Combiner) CombineKTree(outs []string, width int) (string, error) {
	nonEmpty := 0
	for _, o := range outs {
		if o != "" {
			nonEmpty++
		}
	}
	if nonEmpty <= 1 {
		return strings.Join(outs, ""), nil
	}
	var lastErr error
	for _, cand := range c.Candidates {
		ok := true
		switch cand.Op.(type) {
		case dsl.Rerun, dsl.Concat:
			// universal domains
		case dsl.Merge, dsl.KeyMerge:
			ok = c.env != nil && c.env.Merge != nil
		default:
			for _, o := range outs {
				if o != "" && !cand.Op.InDomain(c.env, o) {
					ok = false
					break
				}
			}
		}
		if !ok {
			continue
		}
		v, err := dsl.CombineK(c.env, cand, outs, width)
		if err == nil {
			return v, nil
		}
		if !errors.Is(err, dsl.ErrNotSorted) {
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("synth: no composite member accepts the substreams")
	}
	return "", lastErr
}

// String renders the composite like Table 10's plausible-combiner column.
func (c *Combiner) String() string {
	parts := make([]string, len(c.Candidates))
	for i, cand := range c.Candidates {
		parts[i] = candidateDisplay(c.env, cand)
	}
	return strings.Join(parts, ", ")
}

// candidateDisplay renders one candidate, expanding merge flags as in the
// paper ("merge('-rn') a b"), and a keyed merge's the same way.
func candidateDisplay(env *dsl.Env, c dsl.Candidate) string {
	m, ok := c.Op.(interface{ DisplayString(*dsl.Env) string })
	if !ok {
		return c.String()
	}
	args := "a b"
	if c.Swap {
		args = "b a"
	}
	return "(" + m.DisplayString(env) + " " + args + ")"
}

// DisplayPlausible renders a result's plausible set for Table 10, with
// merge flags expanded (merge('-rn') a b) when a combiner was built.
func (r *Result) DisplayPlausible() []string {
	var env *dsl.Env
	if r.Combiner != nil {
		env = r.Combiner.env
	}
	out := make([]string, len(r.Plausible))
	for i, c := range r.Plausible {
		out[i] = candidateDisplay(env, c)
	}
	return out
}
