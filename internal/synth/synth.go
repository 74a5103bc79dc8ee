// Package synth implements KumQuat's combiner synthesis (§3.2): Algorithm 1
// (round-based filtering of a candidate combiner space against observations
// of the black-box command) and Algorithm 2 (input generation driven by a
// gradient over input-shape mutations, scored by how many candidates each
// mutation's inputs eliminate).
//
// The Engine is the synthesis entry point: candidate filtering and
// gradient scoring fan out over a bounded worker pool, synthesis is
// cancellable mid-round via context, and results are cached by canonical
// command signature (see internal/synth/cache and DESIGN.md).
package synth

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"kumquat/internal/dsl"
)

// Options tunes the synthesis algorithm. The zero value selects the
// defaults used throughout the benchmarks.
type Options struct {
	// MaxProductions bounds candidate AST size (default
	// dsl.DefaultMaxProductions, reproducing the paper's search spaces).
	MaxProductions int
	// PairsPerShape is how many input stream pairs each shape generates.
	PairsPerShape int
	// MutationIters is M in Algorithm 2: gradient steps per round.
	MutationIters int
	// StagnationRounds is how many no-progress rounds end Algorithm 1.
	StagnationRounds int
	// MaxRounds caps Algorithm 1's outer loop.
	MaxRounds int
	// Seed makes synthesis deterministic; combined with the command spec.
	Seed int64
	// DisableGradient replaces Algorithm 2's best-mutation selection with a
	// uniformly random mutation walk (the ablation baseline).
	DisableGradient bool

	// Workers bounds the candidate-filtering and gradient-scoring worker
	// pool (0 = GOMAXPROCS, 1 = fully sequential). Synthesis results are
	// identical at every worker count; only wall time changes.
	Workers int
	// CacheSize caps the in-memory combiner LRU in entries — a spec
	// holds up to two, its exact text and its canonical signature
	// (0 = cache.DefaultCapacity).
	CacheSize int
	// CacheDir, when non-empty, enables the on-disk combiner store so
	// synthesis results persist across processes.
	CacheDir string
}

func (o Options) withDefaults() Options {
	if o.MaxProductions == 0 {
		o.MaxProductions = dsl.DefaultMaxProductions
	}
	if o.PairsPerShape == 0 {
		o.PairsPerShape = 3
	}
	if o.MutationIters == 0 {
		o.MutationIters = 3
	}
	if o.StagnationRounds == 0 {
		o.StagnationRounds = 2
	}
	if o.MaxRounds == 0 {
		o.MaxRounds = 6
	}
	return o
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

// filterCandidates keeps the candidates plausible for every observation
// (Definition 3.9): FilterCandidates in Algorithm 1.
func filterCandidates(env *dsl.Env, cands []dsl.Candidate, obs []Observation) []dsl.Candidate {
	live := cands[:0:0]
	for _, c := range cands {
		ok := true
		for _, o := range obs {
			if !c.Plausible(env, o.Y1, o.Y2, o.Y12) {
				ok = false
				break
			}
		}
		if ok {
			live = append(live, c)
		}
	}
	return live
}

// countEliminated scores an observation set by how many of the sampled
// candidates it kills (IndexBestMutation's effectiveness measure).
func countEliminated(env *dsl.Env, sample []dsl.Candidate, obs []Observation) int {
	killed := 0
	for _, c := range sample {
		for _, o := range obs {
			if !c.Plausible(env, o.Y1, o.Y2, o.Y12) {
				killed++
				break
			}
		}
	}
	return killed
}

func sampleCandidates(cands []dsl.Candidate, n int, rng *rand.Rand) []dsl.Candidate {
	if len(cands) <= n {
		return cands
	}
	out := make([]dsl.Candidate, n)
	for i := range out {
		out[i] = cands[rng.Intn(len(cands))]
	}
	return out
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
// RecOps, StructOps, merge, rerun.
func combinerRank(c dsl.Candidate) int {
	switch c.Op.(type) {
	case dsl.Concat:
		return 0
	case dsl.Merge:
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

// HasMerge reports whether a merge combiner survived (sort-like commands).
func (c *Combiner) HasMerge() bool {
	for _, cand := range c.Candidates {
		if _, ok := cand.Op.(dsl.Merge); ok {
			return true
		}
	}
	return false
}

// Combine merges two parallel outputs, dispatching to the first candidate
// whose domain contains both operands (§3.2's composite semantics).
func (c *Combiner) Combine(y1, y2 string) (string, error) {
	var lastErr error
	for _, cand := range c.Candidates {
		if !cand.InDomain(c.env, y1, y2) {
			continue
		}
		v, err := cand.Eval(c.env, y1, y2)
		if err == nil {
			return v, nil
		}
		lastErr = err
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("synth: no composite member accepts the operands")
	}
	return "", lastErr
}

// CombineK merges k parallel outputs using the k-way generalization of
// §3.5 for the first domain-accepting candidate.
func (c *Combiner) CombineK(outs []string) (string, error) {
	return c.combineK(outs, func(cand dsl.Candidate) (string, error) {
		return dsl.CombineK(c.env, cand, outs)
	})
}

// CombineKTree merges k parallel outputs like CombineK but reduces
// associative pairwise combiners as a balanced binary tree over at most
// workers concurrent evaluations (dsl.CombineKTree) — the parallel
// combine plane. Candidate dispatch, domain checks and the simultaneous
// concat/merge/rerun paths are identical to CombineK's, and the output is
// byte-identical at every worker count.
func (c *Combiner) CombineKTree(outs []string, workers int) (string, error) {
	return c.combineK(outs, func(cand dsl.Candidate) (string, error) {
		return dsl.CombineKTree(c.env, cand, outs, workers)
	})
}

// combineK is the shared k-way dispatch: find the first candidate whose
// domain contains every nonempty substream and combine through it. A
// merge checks its domain in the walk that merges: an unsorted substream
// fails it with dsl.ErrNotSorted, which skips the candidate exactly as a
// failed InDomain does.
func (c *Combiner) combineK(outs []string, combine func(dsl.Candidate) (string, error)) (string, error) {
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
		case dsl.Merge:
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
		v, err := combine(cand)
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
// paper ("merge('-rn') a b").
func candidateDisplay(env *dsl.Env, c dsl.Candidate) string {
	if m, ok := c.Op.(dsl.Merge); ok {
		args := "a b"
		if c.Swap {
			args = "b a"
		}
		return "(" + m.DisplayString(env) + " " + args + ")"
	}
	return c.String()
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
