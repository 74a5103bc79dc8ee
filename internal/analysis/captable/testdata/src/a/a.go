// Package a is the captable fixture: an ad-hoc combiner fold next to
// the binary and routed shapes that must not fire.
package a

import "kumquat/internal/dsl"

// foldByHand folds a k-way combine manually: the accumulator flows
// straight back into Eval every iteration.
func foldByHand(env *dsl.Env, op dsl.Op, outs []string) (string, error) {
	acc := outs[0]
	for _, o := range outs[1:] {
		acc, _ = op.Eval(env, acc, o) // want `ad-hoc combiner fold over Op\.Eval`
	}
	return acc, nil
}

// combineOnce applies a combiner exactly once — a binary combine is not a
// fold, no diagnostic.
func combineOnce(env *dsl.Env, op dsl.Op, y1, y2 string) (string, error) {
	return op.Eval(env, y1, y2)
}

// routed goes through the sanctioned k-way entry point.
func routed(env *dsl.Env, c dsl.Candidate, outs []string) (string, error) {
	return dsl.CombineK(env, c, outs, 4)
}
