package pipeline

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"kumquat/internal/shape"
	"kumquat/internal/synth"
	"kumquat/internal/unix"
)

func TestParseScriptBasics(t *testing.T) {
	src := `
IN=${IN:-input/books.txt}
# word frequencies
cat $IN | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn
`
	s, err := ParseScript(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pipelines) != 1 {
		t.Fatalf("pipelines = %d", len(s.Pipelines))
	}
	p := s.Pipelines[0]
	if p.InputFile != "input/books.txt" {
		t.Errorf("input = %q", p.InputFile)
	}
	// cat $IN is the source, not a stage (footnote 3).
	if len(p.Stages) != 5 {
		t.Fatalf("stages = %d: %v", len(p.Stages), p.Stages)
	}
	if p.Stages[0] != `tr -cs A-Za-z '\n'` || p.Stages[4] != "sort -rn" {
		t.Errorf("stages = %v", p.Stages)
	}
}

func TestParseScriptPresetOverridesDefault(t *testing.T) {
	src := "IN=${IN:-default.txt}\ncat $IN | sort\n"
	s, err := ParseScript(src, map[string]string{"IN": "override.txt"})
	if err != nil {
		t.Fatal(err)
	}
	if s.Pipelines[0].InputFile != "override.txt" {
		t.Errorf("input = %q", s.Pipelines[0].InputFile)
	}
}

func TestParseScriptRedirectInput(t *testing.T) {
	s, err := ParseScript("sort -n < data.txt\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	p := s.Pipelines[0]
	if p.InputFile != "data.txt" || len(p.Stages) != 1 || p.Stages[0] != "sort -n" {
		t.Errorf("parsed = %+v", p)
	}
}

func TestParseScriptMultiplePipelines(t *testing.T) {
	src := "cat a.txt | sort | uniq\ncat b.txt | wc -l\n"
	s, err := ParseScript(src, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pipelines) != 2 {
		t.Fatalf("pipelines = %d", len(s.Pipelines))
	}
	if len(s.Pipelines[0].Stages) != 2 || len(s.Pipelines[1].Stages) != 1 {
		t.Errorf("stage counts wrong: %+v", s.Pipelines)
	}
}

func TestParseQuotedPipeInCommand(t *testing.T) {
	s, err := ParseScript(`cat x | grep 'a|b' | wc -l`+"\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Pipelines[0].Stages) != 2 {
		t.Fatalf("quoted pipe split wrongly: %v", s.Pipelines[0].Stages)
	}
}

// compilePlan compiles a single-pipeline script with a shared synthesizer.
func compilePlan(t *testing.T, syn *synth.Engine, script string) *Plan {
	t.Helper()
	s, err := ParseScript(script, nil)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := CompileContext(context.Background(), s.Pipelines[0], syn)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

func newSynth() *synth.Engine {
	return synth.New(unix.DefaultEnv(), synth.Options{Seed: 1})
}

// runPlan executes the plan in one mode over string input and output.
func runPlan(p *Plan, env *unix.Env, stdin string, mode Mode, k int) (string, error) {
	var out strings.Builder
	_, err := p.Execute(context.Background(), env, strings.NewReader(stdin), &out, mode, k)
	if err != nil {
		return "", err
	}
	return out.String(), nil
}

func TestCompileWordFrequency(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn,
		`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	par, total, elim := plan.Counts()
	// §2: tr -cs runs sequentially (rerun combiner, no reduction); the
	// other four stages parallelize; tr A-Z a-z's concat combiner is
	// eliminated. Table 3's wf.sh row: 4/5 parallelized, 1 eliminated.
	if total != 5 || par != 4 || elim != 1 {
		t.Errorf("wf plan = %d/%d parallelized, %d eliminated; want 4/5, 1", par, total, elim)
		for _, sp := range plan.Stages {
			t.Logf("  %-24s parallel=%v seq=%v elim=%v", sp.Spec, sp.Parallel, sp.Sequential, sp.Eliminated)
		}
	}
	if !plan.Stages[0].Sequential {
		t.Error("tr -cs should be sequential")
	}
	if !plan.Stages[1].Eliminated {
		t.Error("tr A-Z a-z combiner should be eliminated")
	}
	if plan.Stages[4].Eliminated {
		t.Error("final stage combiner must never be eliminated")
	}
}

// bookInput builds a deterministic multi-line text input.
func bookInput(lines int) string {
	words := []string{"The", "light", "of", "the", "sea", "Wind", "and", "stone", "RIVER", "dark"}
	var b strings.Builder
	for i := 0; i < lines; i++ {
		for j := 0; j < 4+(i%5); j++ {
			b.WriteString(words[(i*7+j*3)%len(words)])
			if j%4 == 3 {
				b.WriteString(", ")
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

func TestExecutorsAgreeOnWordFrequency(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("in.txt", bookInput(200))
	plan := compilePlan(t, syn,
		`cat in.txt | tr -cs A-Za-z '\n' | tr A-Z a-z | sort | uniq -c | sort -rn`+"\n")
	want, err := runPlan(plan, syn.Env, "", ModeSerial, 1)
	if err != nil {
		t.Fatal(err)
	}
	if want == "" || !strings.Contains(want, "the") {
		t.Fatalf("serial output suspicious: %q", want[:min(80, len(want))])
	}
	for _, k := range []int{1, 2, 3, 4, 8, 16} {
		got, err := runPlan(plan, syn.Env, "", ModeUnoptimized, k)
		if err != nil {
			t.Fatalf("u%d: %v", k, err)
		}
		if got != want {
			t.Errorf("u%d output differs from serial", k)
		}
		got, err = runPlan(plan, syn.Env, "", ModeOptimized, k)
		if err != nil {
			t.Fatalf("T%d: %v", k, err)
		}
		if got != want {
			t.Errorf("T%d output differs from serial", k)
		}
	}
	got, err := runPlan(plan, syn.Env, "", ModePipelined, 1)
	if err != nil {
		t.Fatalf("pipelined: %v", err)
	}
	if got != want {
		t.Error("pipelined output differs from serial")
	}
}

func TestExecutorsAgreeAcrossPipelines(t *testing.T) {
	scripts := []string{
		`cat in.txt | grep light | wc -l`,
		`cat in.txt | tr A-Z a-z | sort | uniq`,
		`cat in.txt | cut -c 1-8 | sort -r`,
		`cat in.txt | sed 's/light/dark/' | grep -c dark`,
		`cat in.txt | awk "{print NF}" | sort -n | uniq -c`,
		`cat in.txt | rev | sort`,
		`cat in.txt | fmt -w1 | sort | uniq -c | sort -rn | head -n 5`,
		`cat in.txt | tr -d ',' | sort -u`,
	}
	syn := newSynth()
	syn.Env.FS.Register("in.txt", bookInput(120))
	for _, script := range scripts {
		plan := compilePlan(t, syn, script+"\n")
		want, err := runPlan(plan, syn.Env, "", ModeSerial, 1)
		if err != nil {
			t.Fatalf("%s: serial: %v", script, err)
		}
		for _, k := range []int{2, 5, 16} {
			if got, err := runPlan(plan, syn.Env, "", ModeUnoptimized, k); err != nil || got != want {
				t.Errorf("%s: u%d mismatch (err=%v)", script, k, err)
			}
			if got, err := runPlan(plan, syn.Env, "", ModeOptimized, k); err != nil || got != want {
				t.Errorf("%s: T%d mismatch (err=%v)", script, k, err)
			}
		}
		if got, err := runPlan(plan, syn.Env, "", ModePipelined, 1); err != nil || got != want {
			t.Errorf("%s: pipelined mismatch (err=%v)", script, err)
		}
	}
}

func TestTheorem5Equivalence(t *testing.T) {
	// The optimized pipeline (combiner eliminated between tr and sort)
	// must equal the unoptimized one on random inputs.
	syn := newSynth()
	gen := shape.New(5)
	plan := compilePlan(t, syn, `cat x | tr A-Z a-z | sort | uniq -c`+"\n")
	if !plan.Stages[0].Eliminated {
		t.Fatal("tr stage should have its combiner eliminated")
	}
	for trial := 0; trial < 25; trial++ {
		s := shape.Seed()
		s.Lines = shape.Config{Min: 5, Max: 40, Distinct: 40}
		in := gen.Stream(s)
		syn.Env.FS.Register("x", in)
		u, err := runPlan(plan, syn.Env, "", ModeUnoptimized, 4)
		if err != nil {
			t.Fatal(err)
		}
		o, err := runPlan(plan, syn.Env, "", ModeOptimized, 4)
		if err != nil {
			t.Fatal(err)
		}
		if u != o {
			t.Fatalf("optimized differs from unoptimized on %q", in)
		}
	}
}

func TestTrDNewlineNotEliminated(t *testing.T) {
	// tr -d '\n' violates Theorem 5's precondition (output is not a
	// stream); it still parallelizes with concat but keeps its combiner.
	syn := newSynth()
	plan := compilePlan(t, syn, `cat x | tr -d ',' | tr -d '\n'`+"\n")
	sp := plan.Stages[1]
	if sp.StreamOutput {
		t.Error("tr -d newline should not report stream output")
	}
	if sp.Eliminated {
		t.Error("tr -d newline combiner must not be eliminated")
	}
	if !sp.Parallel {
		t.Error("tr -d newline should still parallelize (concat combiner)")
	}
}

func TestPlanWithUnsupportedStage(t *testing.T) {
	// sed 1d has no combiner: it must run serially and the pipeline must
	// still produce correct output.
	syn := newSynth()
	syn.Env.FS.Register("y", "b\na\nc\na\n")
	plan := compilePlan(t, syn, "cat y | sed 1d | sort\n")
	if plan.Stages[0].Parallel {
		t.Error("sed 1d must not be parallelized")
	}
	par, total, _ := plan.Counts()
	if par != 1 || total != 2 {
		t.Errorf("counts = %d/%d, want 1/2", par, total)
	}
	want, _ := runPlan(plan, syn.Env, "", ModeSerial, 1)
	got, err := runPlan(plan, syn.Env, "", ModeOptimized, 4)
	if err != nil || got != want {
		t.Errorf("optimized with serial stage: %q vs %q (err=%v)", got, want, err)
	}
}

// TestSortNumericUniqueParallel: sort -un keeps one line per numeric
// key, so its chunk outputs merge under the same flags. Synthesized over
// words alone, where every key reads 0, it chose (first a b) and printed
// the first chunk's keys only; at k = 4 it must print serial's output.
func TestSortNumericUniqueParallel(t *testing.T) {
	syn := newSynth()
	words := []string{"apple", "-5", "12", "007", "3.5", "-0", "x1", "42 abc", "  17", "light"}
	var b strings.Builder
	for i := 0; i < 400; i++ {
		switch i % 3 {
		case 0:
			fmt.Fprintf(&b, "%d\n", (i*37)%601-300)
		case 1:
			fmt.Fprintf(&b, "%s\n", words[i%len(words)])
		default:
			fmt.Fprintf(&b, "%d %s\n", (i*53)%1000, words[(i/3)%len(words)])
		}
	}
	syn.Env.FS.Register("n.txt", b.String())
	plan := compilePlan(t, syn, "cat n.txt | sort -un\n")
	want, err := runPlan(plan, syn.Env, "", ModeSerial, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPlan(plan, syn.Env, "", ModeOptimized, 4)
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Errorf("k=4 printed %d lines, serial %d; combiner %v", strings.Count(got, "\n"),
			strings.Count(want, "\n"), plan.Stages[0].Synth.Combiner)
	}
}

func TestStdinPipeline(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "sort -n\n")
	out, err := runPlan(plan, syn.Env, "3\n1\n2\n", ModeUnoptimized, 2)
	if err != nil || out != "1\n2\n3\n" {
		t.Errorf("stdin pipeline = %q, %v", out, err)
	}
}
