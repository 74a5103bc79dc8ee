package pipeline

import (
	"context"
	"strings"
	"testing"

	"kumquat/internal/dataflow"
)

// Failure-injection tests: errors must propagate out of every executor
// rather than corrupting output.

func TestSerialErrorPropagation(t *testing.T) {
	syn := newSynth()
	// xargs cat on a stream of non-file words fails at run time.
	plan := compilePlan(t, syn, "xargs cat\n")
	if _, err := runPlan(plan, syn.Env, "not-a-file\n", ModeSerial, 1); err == nil {
		t.Error("serial executor must surface command errors")
	}
	if _, err := runPlan(plan, syn.Env, "not-a-file\n", ModePipelined, 1); err == nil {
		t.Error("pipelined executor must surface command errors")
	}
}

func TestParallelChunkErrorPropagation(t *testing.T) {
	syn := newSynth()
	// Register some real files, then poison one chunk with a missing one.
	syn.Env.FS.Register("ok1", "x\n")
	syn.Env.FS.Register("ok2", "y\n")
	plan := compilePlan(t, syn, "xargs cat\n")
	input := "ok1\nok2\nmissing-file\nok1\n"
	for _, k := range []int{2, 4} {
		if _, err := runPlan(plan, syn.Env, input, ModeUnoptimized, k); err == nil {
			t.Errorf("u%d must surface chunk errors", k)
		}
		if _, err := runPlan(plan, syn.Env, input, ModeOptimized, k); err == nil {
			t.Errorf("T%d must surface chunk errors", k)
		}
	}
	// And with a clean input, all succeed and agree.
	clean := "ok1\nok2\nok1\n"
	want, err := runPlan(plan, syn.Env, clean, ModeSerial, 1)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runPlan(plan, syn.Env, clean, ModeUnoptimized, 3)
	if err != nil || got != want {
		t.Errorf("clean parallel run = %q, %v", got, err)
	}
}

// TestMalformedProgramRejected: the walker trusts the optimizer's
// legality checks but must fail loudly, naming the offending stage, on a
// program that breaks them.
func TestMalformedProgramRejected(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("in.txt", "b\na\nc\n")
	plan := compilePlan(t, syn, "cat in.txt | tr a-z A-Z | cat\n")
	cases := []struct {
		name    string
		regions []*dataflow.Region
		want    string
	}{
		{
			// A merge-stream exit needs the producing stage's sort
			// comparator; the error must name that stage, not the exit.
			name: "merge-stream exit on a non-sort stage",
			regions: []*dataflow.Region{
				{Nodes: []int{0}, Parallel: true, Exit: dataflow.ExitMerge},
				{Nodes: []int{1}},
			},
			want: `merge-stream exit on non-sort stage "tr a-z A-Z"`,
		},
	}
	for _, tc := range cases {
		plan.Program = &dataflow.Program{Graph: plan.Graph, Regions: tc.regions}
		_, err := runPlan(plan, syn.Env, "", ModeOptimized, 2)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want it to contain %q", tc.name, err, tc.want)
		}
	}
}

func TestMissingInputFile(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "cat never-registered.txt | sort\n")
	if _, err := runPlan(plan, syn.Env, "", ModeSerial, 1); err == nil {
		t.Error("missing input file must error")
	}
}

func TestCompileUnknownCommand(t *testing.T) {
	syn := newSynth()
	s, err := ParseScript("cat x | frobnicate -z\n", nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := CompileContext(context.Background(), s.Pipelines[0], syn); err == nil {
		t.Error("unknown command must fail compilation")
	}
}

func TestParseScriptErrors(t *testing.T) {
	for _, bad := range []string{
		"",                    // no pipelines
		"# only a comment\n",  // no pipelines
		"cat a | | sort\n",    // empty segment
		"IN=${IN:-x}\n",       // assignment only
		"cat 'unterminated\n", // lexical error surfaces at compile, parse keeps raw text
	} {
		s, err := ParseScript(bad, nil)
		if err == nil {
			// The last case parses (tokenization happens later); compile
			// must then fail.
			if len(s.Pipelines) == 0 {
				t.Errorf("ParseScript(%q) returned no pipelines and no error", bad)
				continue
			}
			if _, cerr := CompileContext(context.Background(), s.Pipelines[0], newSynth()); cerr == nil {
				t.Errorf("neither parse nor compile failed for %q", bad)
			}
		}
	}
}

func TestExpandVarsBraces(t *testing.T) {
	vars := map[string]string{"IN": "data.txt", "K": "5"}
	cases := map[string]string{
		"cat $IN":        "cat data.txt",
		"cat ${IN}":      "cat data.txt",
		"head -n $K x":   "head -n 5 x",
		"echo $MISSING":  "echo ",
		"cost $5 dollar": "cost  dollar", // $5 is an (unset) variable
		`awk "\$1 >= 2"`: `awk "\$1 >= 2"`,
		"a$":             "a$",
	}
	for in, want := range cases {
		if got := expandVars(in, vars); got != want {
			t.Errorf("expandVars(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestPipelinedLargeStream(t *testing.T) {
	// The pipelined executor must handle streams much larger than its
	// internal buffers, with stage overlap.
	syn := newSynth()
	var b strings.Builder
	for i := 0; i < 20000; i++ {
		b.WriteString("light word here\n")
		b.WriteString("dark word there\n")
	}
	syn.Env.FS.Register("big.txt", b.String())
	plan := compilePlan(t, syn, "cat big.txt | grep light | cut -c 1-5 | wc -l\n")
	out, err := runPlan(plan, syn.Env, "", ModePipelined, 1)
	if err != nil || out != "20000\n" {
		t.Errorf("pipelined big stream = %q, %v", out, err)
	}
}

func TestOptimizedManyChunksFewLines(t *testing.T) {
	// k far larger than the line count: empty chunks must flow through
	// eliminated-combiner chains without corrupting output.
	syn := newSynth()
	syn.Env.FS.Register("tiny", "B\na\n")
	plan := compilePlan(t, syn, "cat tiny | tr A-Z a-z | sort | uniq -c\n")
	want, _ := runPlan(plan, syn.Env, "", ModeSerial, 1)
	got, err := runPlan(plan, syn.Env, "", ModeOptimized, 64)
	if err != nil || got != want {
		t.Errorf("T64 on 2-line input = %q, %v; want %q", got, err, want)
	}
}
