package dsl

import "strings"

// prepareK filters out empty substreams (identity elements for stream
// combination) and applies the candidate's argument order: a swapped
// candidate combines the substreams in reverse, generalizing (g b a) to
// k arguments. Merge and the keyed merge are the exception (orderFree) —
// their output is determined by the comparator alone, with ties resolved
// by stream order, so reversing the substreams would only scramble tie
// stability; Swap is a no-op for them.
// The result is allocated once, at k's size, so its cost does not grow
// with k.
func prepareK(c Candidate, outs []string) []string {
	nonEmpty := make([]string, 0, len(outs))
	for _, o := range outs {
		if o != "" {
			nonEmpty = append(nonEmpty, o)
		}
	}
	if c.Swap && !orderFree(c.Op) {
		for i, j := 0, len(nonEmpty)-1; i < j; i, j = i+1, j-1 {
			nonEmpty[i], nonEmpty[j] = nonEmpty[j], nonEmpty[i]
		}
	}
	return nonEmpty
}

// combineSimultaneous handles the §3.5 combiners that merge all k
// substreams at once rather than pairwise — concat, merge and rerun —
// and the keyed merge, which joins all k at once too; merge splits its
// work into up to width key ranges, and both merges fail with
// ErrNotSorted when an operand is unsorted. handled is false for every
// other operator.
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
	case KeyMerge:
		v, err := c.Op.(KeyMerge).mergeK(env, nonEmpty)
		return v, true, err
	case Rerun:
		if env == nil || env.RunF == nil {
			return "", true, evalErr(c.Op, "no command bound in Env")
		}
		v, err := env.RunF(strings.Join(nonEmpty, ""))
		return v, true, err
	}
	return "", false, nil
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
//     ("sort -m <flags> $*"), split into up to width concurrent key
//     ranges (same bytes at every width),
//   - rerun concatenates all substreams and re-executes the command once,
//   - the keyed merge merges all substreams by key in one walk, joining
//     the lines whose keys tie,
//   - every other combiner is applied pairwise, folding left until one
//     substream remains.
//
// Empty substreams (a chunk with no lines, or a command that produced no
// output for its chunk) are identity elements for stream combination and
// are skipped before folding. A swapped candidate folds the substreams in
// reverse order, except for merge, where Swap is a no-op (see prepareK).
func CombineK(env *Env, c Candidate, outs []string, width int) (string, error) {
	nonEmpty := prepareK(c, outs)
	if v, handled, err := combineSimultaneous(env, c, nonEmpty, width); handled {
		return v, err
	}
	return foldPairs(env, c.Op, nonEmpty)
}

// CombineKPairwise is the ablation baseline: always fold pairwise, even for
// concat/merge/rerun where a simultaneous k-way combine is available.
func CombineKPairwise(env *Env, c Candidate, outs []string) (string, error) {
	nonEmpty := prepareK(c, outs)
	return foldPairs(env, c.Op, nonEmpty)
}
