package conformance

import (
	"context"
	"slices"
	"strings"

	"kumquat"
	"kumquat/internal/unix"
)

// ShrinkCase minimizes a diverging case: it greedily drops pipeline
// stages, then ddmin-reduces the corpus lines, re-checking after every
// reduction that the case still diverges from the serial oracle under
// cfg. It returns the minimal reproducing case, or nil when the original
// divergence does not reproduce (a flaky failure worth reporting as-is).
func ShrinkCase(ctx context.Context, sys *kumquat.System, c *Case, cfg Config) *Case {
	fails := func(c *Case) bool { return caseDiverges(ctx, sys, c, cfg) }
	if !fails(c) {
		return nil
	}
	cur := *c

	// Pass 1: drop stages, keeping the `cat FILE` source (dropping it
	// would silently change the input plumbing, not the computation).
	stages, _ := unix.SplitMembers(strings.TrimSuffix(cur.Script, "\n"))
	for i := 0; i < len(stages); {
		if cur.Source != "" && i == 0 {
			i++
			continue
		}
		if len(nonSourceStages(stages, cur.Source)) <= 1 {
			break
		}
		candidate, rest := cur, slices.Delete(slices.Clone(stages), i, i+1)
		candidate.Script = joinStages(rest)
		if fails(&candidate) {
			cur, stages = candidate, rest
			continue
		}
		i++
	}

	// Pass 2: ddmin the corpus lines.
	cur.Corpus = shrinkCorpus(cur.Corpus, func(s string) bool {
		candidate := cur
		candidate.Corpus = s
		return fails(&candidate)
	})
	return &cur
}

// shrinkCorpus ddmin-minimizes a corpus under a string-level failure
// predicate, preserving the trailing-newline state (the boundary the
// stitch combiners care about). It is the shared corpus pass behind
// ShrinkCase and the stress shrinker; fails must be true for the input,
// which is returned unchanged when it is not.
func shrinkCorpus(corpus string, fails func(string) bool) string {
	if corpus == "" || !fails(corpus) {
		return corpus
	}
	terminated := strings.HasSuffix(corpus, "\n")
	lines := strings.Split(strings.TrimSuffix(corpus, "\n"), "\n")
	lines = ShrinkLines(lines, func(ls []string) bool {
		return fails(joinLines(ls, terminated))
	})
	return joinLines(lines, terminated)
}

// ShrinkLines is a ddmin-style minimizer: it removes progressively
// smaller chunks of lines while fails keeps reporting the failure, and
// returns a subset from which no single chunk can be removed. fails must
// be true for the input.
func ShrinkLines(lines []string, fails func([]string) bool) []string {
	granularity := 2
	for len(lines) >= 2 {
		chunk := (len(lines) + granularity - 1) / granularity
		reduced := false
		for start := 0; start < len(lines); start += chunk {
			end := start + chunk
			if end > len(lines) {
				end = len(lines)
			}
			candidate := make([]string, 0, len(lines)-(end-start))
			candidate = append(candidate, lines[:start]...)
			candidate = append(candidate, lines[end:]...)
			if fails(candidate) {
				lines = candidate
				if granularity > 2 {
					granularity--
				}
				reduced = true
				break
			}
		}
		if !reduced {
			if granularity >= len(lines) {
				break
			}
			granularity *= 2
			if granularity > len(lines) {
				granularity = len(lines)
			}
		}
	}
	return lines
}

// caseDiverges recompiles and re-runs a candidate case, reporting whether
// it still diverges from the serial oracle under cfg — on either of two
// runs in a row when runCase runs cfg twice, so a divergence of the
// memo's second run shrinks too.
func caseDiverges(ctx context.Context, sys *kumquat.System, c *Case, cfg Config) bool {
	plan, err := compileCase(ctx, sys, c)
	if err != nil {
		return false
	}
	want, _, wantErr := execCase(ctx, plan, c, Config{Mode: kumquat.Serial.String(), K: 1})
	runs := 1
	if memoized(cfg) {
		runs = 2
	}
	for range runs {
		got, _, gotErr := execCase(ctx, plan, c, cfg)
		if _, ok := diverges(want, wantErr, got, gotErr); !ok {
			return true
		}
	}
	return false
}

// joinStages rebuilds the script text from stage specs.
func joinStages(stages []string) string { return strings.Join(stages, " | ") + "\n" }

// nonSourceStages counts the stages that are not the `cat FILE` source.
func nonSourceStages(stages []string, source string) []string {
	if source == "" || len(stages) == 0 {
		return stages
	}
	return stages[1:]
}

// joinLines rebuilds a corpus from lines, restoring the original
// trailing-newline state.
func joinLines(lines []string, terminated bool) string {
	if len(lines) == 0 {
		return ""
	}
	s := strings.Join(lines, "\n")
	if terminated {
		s += "\n"
	}
	return s
}
