package dsl

import (
	"strings"
	"sync"
)

// prepareK filters out empty substreams (identity elements for stream
// combination) and applies the candidate's argument order: a swapped
// candidate combines the substreams in reverse, generalizing (g b a) to
// k arguments. Merge is the exception — its output is determined by the
// comparator alone, with ties resolved by stream order, so reversing the
// substreams would only scramble tie stability; Swap is a no-op for it.
func prepareK(c Candidate, outs []string) []string {
	nonEmpty := outs[:0:0]
	for _, o := range outs {
		if o != "" {
			nonEmpty = append(nonEmpty, o)
		}
	}
	if _, isMerge := c.Op.(Merge); c.Swap && !isMerge {
		for i, j := 0, len(nonEmpty)-1; i < j; i, j = i+1, j-1 {
			nonEmpty[i], nonEmpty[j] = nonEmpty[j], nonEmpty[i]
		}
	}
	return nonEmpty
}

// combineSimultaneous handles the three §3.5 combiners that merge all k
// substreams at once rather than pairwise; merge splits its work into up
// to width key ranges and fails with ErrNotSorted when an operand is
// unsorted. handled is false for every other operator.
func combineSimultaneous(env *Env, c Candidate, nonEmpty []string, width int) (v string, handled bool, err error) {
	switch c.Op.(type) {
	case Concat:
		return strings.Join(nonEmpty, ""), true, nil
	case Merge:
		if env == nil || env.Merge == nil {
			return "", true, evalErr(c.Op, "no merge comparator bound in Env")
		}
		v, sorted := env.Merge.MergeStreams(width, nonEmpty...)
		if !sorted {
			return "", true, unsortedErr(c.Op)
		}
		return v, true, nil
	case Rerun:
		if env == nil || env.RunF == nil {
			return "", true, evalErr(c.Op, "no command bound in Env")
		}
		v, err := env.RunF(strings.Join(nonEmpty, ""))
		return v, true, err
	}
	return "", false, nil
}

// treeProfitable reports whether the balanced tree reduces work for an
// associative operator. The tree replaces the fold's O(k·n) accumulator
// copying with O(n·log k), a win for boundary-local operators whose Eval
// cost is the copy (stitch, stitch2, the selection and digit operators).
// Offset is the exception: its Eval re-derives every line of the right
// operand, so upper tree levels repeat per-line rewrites the fold
// performs exactly once — it stays on the fold even though it is
// associative (and so remains eligible for the simultaneous paths).
func treeProfitable(op Op) bool {
	switch o := op.(type) {
	case Offset:
		return false
	case Front:
		return treeProfitable(o.B)
	case Back:
		return treeProfitable(o.B)
	}
	return true
}

// foldPairs left-folds the operator over the substreams — the serial
// §3.5 pairwise combine.
func foldPairs(env *Env, op Op, nonEmpty []string) (string, error) {
	if len(nonEmpty) == 0 {
		return "", nil
	}
	acc := nonEmpty[0]
	for _, next := range nonEmpty[1:] {
		v, err := op.Eval(env, acc, next)
		if err != nil {
			return "", err
		}
		acc = v
	}
	return acc, nil
}

// CombineK merges k parallel output substreams with the synthesized
// combiner, generalizing the binary combiner per §3.5 "Combining Multiple
// Substreams":
//
//   - concat combines all substreams at once ("cat $*"),
//   - merge combines all substreams with one k-way merge
//     ("sort -m <flags> $*"),
//   - rerun concatenates all substreams and re-executes the command once,
//   - every other combiner is applied pairwise, folding left until one
//     substream remains.
//
// Empty substreams (a chunk with no lines, or a command that produced no
// output for its chunk) are identity elements for stream combination and
// are skipped before folding. A swapped candidate folds the substreams in
// reverse order, except for merge, where Swap is a no-op (see prepareK).
func CombineK(env *Env, c Candidate, outs []string) (string, error) {
	nonEmpty := prepareK(c, outs)
	if v, handled, err := combineSimultaneous(env, c, nonEmpty, 1); handled {
		return v, err
	}
	return foldPairs(env, c.Op, nonEmpty)
}

// CombineKTree is CombineK with the pairwise fold replaced by a balanced
// binary tree reduced over at most workers concurrent evaluations — the
// parallel combine plane. Associativity (Op.Associative) licenses the
// re-bracketing: the tree's result is byte-identical to the serial left
// fold for every associative operator, so CombineKTree is a wall-clock
// optimization, never a semantic choice. Non-associative operators and
// tiny substream counts take the serial fold; the simultaneous
// concat/merge/rerun combiners are already k-way and are dispatched
// exactly as CombineK dispatches them, except that merge merges up to
// workers key ranges concurrently (same bytes at every width).
//
// The tree wins twice: the level pairs evaluate concurrently (bounded by
// workers), and the balanced bracketing copies O(n·log k) accumulator
// bytes where the left fold copies O(n·k) — so even workers == 1 (a
// sequential tree) beats the fold on large k.
//
// If any pair evaluation fails mid-tree, the whole combine falls back to
// the serial CombineK so error behaviour (which pair fails first, and
// with what message) is indistinguishable from the fold's.
func CombineKTree(env *Env, c Candidate, outs []string, workers int) (string, error) {
	nonEmpty := prepareK(c, outs)
	if v, handled, err := combineSimultaneous(env, c, nonEmpty, workers); handled {
		return v, err
	}
	if !c.Op.Associative() || !treeProfitable(c.Op) || len(nonEmpty) < 3 {
		return foldPairs(env, c.Op, nonEmpty)
	}
	if workers < 1 {
		workers = 1
	}
	level := append([]string(nil), nonEmpty...)
	next := make([]string, 0, (len(level)+1)/2)
	sem := make(chan struct{}, workers)
	for len(level) > 1 {
		pairs := len(level) / 2
		next = next[:(len(level)+1)/2]
		var failed bool
		if workers == 1 {
			// Sequential tree: the bracketing advantage without
			// goroutine overhead.
			for i := 0; i < pairs && !failed; i++ {
				v, err := c.Op.Eval(env, level[2*i], level[2*i+1])
				if err != nil {
					failed = true
					break
				}
				next[i] = v
			}
		} else {
			var (
				wg sync.WaitGroup
				mu sync.Mutex
			)
			for i := 0; i < pairs; i++ {
				sem <- struct{}{}
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					defer func() { <-sem }()
					v, err := c.Op.Eval(env, level[2*i], level[2*i+1])
					if err != nil {
						mu.Lock()
						failed = true
						mu.Unlock()
						return
					}
					next[i] = v
				}(i)
			}
			wg.Wait()
		}
		if len(level)%2 == 1 {
			next[pairs] = level[len(level)-1]
		}
		if failed {
			// Re-run serially so the caller observes the fold's exact
			// error (the tree may have failed on a later pair first).
			return foldPairs(env, c.Op, nonEmpty)
		}
		level, next = next, level[:0]
	}
	if len(level) == 0 {
		return "", nil
	}
	return level[0], nil
}

// CombineKPairwise is the ablation baseline: always fold pairwise, even for
// concat/merge/rerun where a simultaneous k-way combine is available.
func CombineKPairwise(env *Env, c Candidate, outs []string) (string, error) {
	nonEmpty := prepareK(c, outs)
	return foldPairs(env, c.Op, nonEmpty)
}
