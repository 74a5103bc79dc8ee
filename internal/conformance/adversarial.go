package conformance

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"kumquat"
	"kumquat/internal/dsl"
	"kumquat/internal/textio"
	"kumquat/internal/unix"
)

// NamedCorpus is one adversarial input: a name for the report and the
// stream itself.
type NamedCorpus struct {
	// Name identifies the corpus in reports ("empty", "unicode", ...).
	Name string `json:"name"`
	// Corpus is the input stream.
	Corpus string `json:"corpus"`
}

// AdversarialCorpora returns the fixed stress inputs combiner validation
// runs on: the boundary shapes the paper's runtime validation exercises
// plus the ones field experience says break stream code — empty input,
// a missing trailing newline, very long lines, multi-byte content,
// duplicate keys spanning chunk boundaries, pre-/reverse-sorted streams
// (merge's legality boundary), and a 16 KB stream whose every key is
// shared by hundreds of lines, so ties meet across chunks. The corpora
// are immutable fixtures built once per process; repeated stress passes
// over a shared warm engine share them instead of rebuilding the
// multi-KB long-line corpus every call.
func AdversarialCorpora() []NamedCorpus {
	return slices.Clone(adversarialCorpora())
}

// adversarialCorpora constructs the fixture set exactly once.
var adversarialCorpora = sync.OnceValue(func() []NamedCorpus {
	long := strings.Repeat("loquat kumquat medlar ", 400)
	var tied strings.Builder
	for i := 0; tied.Len() <= 16<<10; i++ {
		fmt.Fprintf(&tied, "%d %s\n", i%7, vocab[i%11])
	}
	return []NamedCorpus{
		{"empty", ""},
		{"single-line", "pear\n"},
		{"no-trailing-newline", "pear\napple\nfig"},
		{"blank-lines", "pear\n\n\napple\n\nfig\n"},
		{"long-lines", long + "\n" + long + "end\n"},
		{"unicode", "café\n東京 pear\nнаïve\nλάμδα fig\nпear\n"},
		{"duplicate-keys", strings.Repeat("apple\n", 9) + strings.Repeat("pear\n", 7) + strings.Repeat("apple\n", 5)},
		{"pre-sorted", "a\nb\nc\nd\ne\nf\ng\nh\n"},
		{"reverse-sorted", "h\ng\nf\ne\nd\nc\nb\na\n"},
		{"numbers", "10\n2\n-3\n2\n700\n0\n10\n33\n"},
		{"tied-keys-large", tied.String()},
	}
})

// PathKind selects a recombination strategy for CandidateCheck.
type PathKind string

// The recombination paths a candidate combiner can take.
const (
	// PathFold is dsl.CombineK: the §3.5 k-way combine, folding left
	// for every combiner but concat, merge and rerun.
	PathFold PathKind = "fold"
	// PathPairwise always folds pairwise, even for the simultaneous
	// concat/merge/rerun combiners (dsl.CombineKPairwise).
	PathPairwise PathKind = "pairwise"
)

// CandidateCheck validates a single candidate combiner against the
// serial oracle: split the corpus into K line-aligned chunks, apply the
// command to each, recombine through the selected path, and require the
// result to equal the command's output on the whole corpus byte-for-byte.
type CandidateCheck struct {
	// Env supplies the candidate's RunF and merge comparator.
	Env *dsl.Env
	// Cand is the candidate under test.
	Cand dsl.Candidate
	// Run is the black-box command f.
	Run func(string) (string, error)
	// K is the chunk count.
	K int
	// Path selects the recombination strategy.
	Path PathKind
}

// Check runs the validation on one corpus. It returns nil when the
// recombined output matches the serial oracle, and a descriptive error
// when the combiner is caught producing a divergent stream. Chunk
// outputs outside the candidate's legality domain make the corpus
// inapplicable and also return nil — domain dispatch is the composite's
// job, not the candidate's.
func (cc CandidateCheck) Check(corpus string) error {
	want, err := cc.Run(corpus)
	if err != nil {
		return nil // f rejects the corpus serially; nothing to validate
	}
	outs, applicable := cc.chunkOutputs(corpus)
	if !applicable {
		return nil
	}
	var got string
	if cc.Path == PathPairwise {
		got, err = dsl.CombineKPairwise(cc.Env, cc.Cand, outs)
	} else {
		got, err = dsl.CombineK(cc.Env, cc.Cand, outs)
	}
	if err != nil {
		return fmt.Errorf("conformance: %s %s combine failed: %w", cc.Cand, cc.Path, err)
	}
	if got != want {
		return fmt.Errorf("conformance: %s via %s diverged: %s", cc.Cand, cc.Path, diffSummary(want, got))
	}
	return nil
}

// chunkOutputs applies f to each of the K chunks and reports whether
// every chunk ran and every nonempty output lies in the candidate's
// legality domain (an inapplicable corpus is skipped, not failed).
func (cc CandidateCheck) chunkOutputs(corpus string) (outs []string, applicable bool) {
	k := cc.K
	if k < 2 {
		k = 2
	}
	outs, ok := chunkRuns(cc.Run, corpus, k)
	if !ok {
		return nil, false
	}
	for _, o := range outs {
		if o != "" && !cc.Cand.Op.InDomain(cc.Env, o) {
			return nil, false
		}
	}
	return outs, true
}

// StressSpecs is the command pool combiner stress validation covers —
// the generator's stage templates, so the stress plane and the
// differential plane exercise the same catalog slice.
func StressSpecs() []string { return StageTemplates() }

// StressFailure is one combiner caught diverging from its command.
type StressFailure struct {
	// Spec is the command whose combiner failed.
	Spec string `json:"spec"`
	// Corpus names the adversarial corpus.
	Corpus string `json:"corpus"`
	// K is the chunk count.
	K int `json:"k"`
	// Detail describes the divergence.
	Detail string `json:"detail"`
	// MinimalCorpus is the shrunken reproducing input (set when
	// shrinking ran).
	MinimalCorpus string `json:"minimal_corpus,omitempty"`
}

// StressReport summarizes the combiner stress validation.
type StressReport struct {
	// Specs is the number of commands stressed; Skipped counts the
	// commands with no combiner or a rerun-only combiner (the planner
	// never chunks those, so there is no combine path to validate).
	Specs   int `json:"specs"`
	Skipped int `json:"skipped"`
	// Checks counts individual corpus × k validations.
	Checks int `json:"checks"`
	// Failures lists every caught divergence (empty when all hold).
	Failures []StressFailure `json:"failures"`
}

// stressKs is the chunk-count sweep of the stress plane: a boundary pair
// plus an odd count, a power of two, and one larger than most corpora's
// line counts.
var stressKs = []int{2, 3, 4, 8}

// StressCombiners validates each command's synthesized composite
// combiner on every adversarial corpus and chunk count. The composite
// is exactly the object the executor dispatches through, so a pass here
// certifies the combine plane's inputs, not a simplified model. shrink
// minimizes the corpus of every failure before reporting it.
func StressCombiners(ctx context.Context, sys *kumquat.System, specs []string, shrink bool) (*StressReport, error) {
	rep := &StressReport{Failures: []StressFailure{}}
	corpora := AdversarialCorpora()
	for _, spec := range specs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		res, err := sys.Synthesize(ctx, spec)
		// A cancelled context is an aborted run, not a negative verdict —
		// it must not masquerade as a "no combiner" skip and let a
		// half-validated report read as green.
		if cerr := ctx.Err(); cerr != nil {
			return nil, cerr
		}
		if err != nil || res == nil || res.Err != nil || res.Combiner == nil {
			// err / res.Err are synthesis's negative verdicts (the
			// paper's Table 9 cases: no combiner exists).
			rep.Skipped++
			continue
		}
		if res.Combiner.IsRerunOnly() {
			// The planner runs rerun-only stages sequentially; their
			// combiner is never exercised by any executor.
			rep.Skipped++
			continue
		}
		rep.Specs++
		cmd, err := unix.Parse(spec, unix.DefaultEnv())
		if err != nil {
			return nil, fmt.Errorf("conformance: stress %q: %w", spec, err)
		}
		combine := func(o []string) (string, error) { return res.Combiner.CombineKTree(o, 1) }
		for _, nc := range corpora {
			want, err := cmd.Run(nc.Corpus)
			if err != nil {
				continue // f rejects the corpus serially
			}
			for _, k := range stressKs {
				outs, ok := chunkRuns(cmd.Run, nc.Corpus, k)
				if !ok {
					continue
				}
				rep.Checks++
				got, err := combine(outs)
				detail := ""
				if err != nil {
					detail = fmt.Sprintf("combine failed: %v", err)
				} else if got != want {
					detail = diffSummary(want, got)
				}
				if detail == "" {
					continue
				}
				f := StressFailure{Spec: spec, Corpus: nc.Name, K: k, Detail: detail}
				if shrink {
					f.MinimalCorpus = shrinkStress(cmd, nc.Corpus, k, combine)
				}
				rep.Failures = append(rep.Failures, f)
			}
		}
	}
	return rep, nil
}

// shrinkStress minimizes a corpus on which the composite path diverges.
func shrinkStress(cmd unix.Command, corpus string, k int, combine func([]string) (string, error)) string {
	return shrinkCorpus(corpus, func(s string) bool {
		want, err := cmd.Run(s)
		if err != nil {
			return false
		}
		outs, ok := chunkRuns(cmd.Run, s, k)
		if !ok {
			return false
		}
		got, err := combine(outs)
		return err != nil || got != want
	})
}

// chunkRuns applies run to each of the k line-aligned chunks of corpus,
// reporting ok=false when any chunk is rejected — the shared per-chunk
// execution loop behind both the composite stress and the
// single-candidate checks.
func chunkRuns(run func(string) (string, error), corpus string, k int) ([]string, bool) {
	chunks := textio.ChunkLines(corpus, k)
	outs := make([]string, len(chunks))
	for i, ch := range chunks {
		out, err := run(ch)
		if err != nil {
			return nil, false
		}
		outs[i] = out
	}
	return outs, true
}
