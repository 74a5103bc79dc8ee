package bench

import (
	"context"
	"regexp"
	"strings"
	"testing"

	"kumquat"
	"kumquat/internal/pipeline"
)

func TestCatalogSize(t *testing.T) {
	cat := Catalog()
	if len(cat) != 70 {
		t.Fatalf("catalog has %d scripts, want 70", len(cat))
	}
	bySuite := map[string]int{}
	for _, s := range cat {
		bySuite[s.Suite]++
	}
	want := map[string]int{"analytics-mts": 4, "oneliners": 10, "poets": 22, "unix50": 34}
	for suite, n := range want {
		if bySuite[suite] != n {
			t.Errorf("suite %s has %d scripts, want %d", suite, bySuite[suite], n)
		}
	}
}

// TestCatalogStageCountsMatchTable3 checks the reconstruction invariant:
// every script parses, and its stage count equals Table 3's n. The total
// must be the paper's 427.
func TestCatalogStageCountsMatchTable3(t *testing.T) {
	total := 0
	for _, spec := range Catalog() {
		script, err := pipeline.ParseScript(spec.Source, nil)
		if err != nil {
			t.Errorf("%s/%s: parse: %v", spec.Suite, spec.Name, err)
			continue
		}
		stages := 0
		for _, p := range script.Pipelines {
			stages += len(p.Stages)
		}
		if stages != spec.PaperStages {
			t.Errorf("%s/%s: %d stages, Table 3 says %d", spec.Suite, spec.Name, stages, spec.PaperStages)
		}
		total += stages
	}
	if total != 427 {
		t.Errorf("total stages = %d, paper says 427", total)
	}
}

func TestCatalogPaperTotals(t *testing.T) {
	par, elim := 0, 0
	for _, spec := range Catalog() {
		par += spec.PaperParallelized
		elim += spec.PaperEliminated
	}
	// The paper's headline numbers: 325/427 parallelized, 144 eliminated.
	if par != 325 {
		t.Errorf("catalog paper-parallelized total = %d, want 325", par)
	}
	if elim != 144 {
		t.Errorf("catalog paper-eliminated total = %d, want 144", elim)
	}
}

func TestInputsAllKinds(t *testing.T) {
	kinds := map[string]bool{}
	for _, s := range Catalog() {
		kinds[s.Input] = true
	}
	for kind := range kinds {
		if files, err := Inputs(kind, 200); err != nil || len(files) == 0 {
			t.Errorf("Inputs(%s): %d files, %v", kind, len(files), err)
		}
	}
	if _, err := Inputs("nope", 10); err == nil {
		t.Error("unknown input kind should error")
	}
}

// TestTimedRunIsFirstRun checks that a table cell is never a memo hit:
// two runs of one script through the harness's per-run helper each
// report no memo hits and no memo misses, as an Env's first run of a
// script does (a re-run in the same Env would consult the memo).
func TestTimedRunIsFirstRun(t *testing.T) {
	h := NewHarness(400, nil)
	spec := Catalog()[0]
	_, files, err := h.planScript(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		rep, err := h.run(context.Background(), spec, files, kumquat.Optimized, 4)
		if err != nil {
			t.Fatal(err)
		}
		for j, st := range rep.Stages {
			if st.MemoHits != 0 || st.MemoMisses != 0 {
				t.Errorf("run %d stage %d (%s): memo hits %d misses %d, want none",
					i, j, st.Spec, st.MemoHits, st.MemoMisses)
			}
		}
	}
}

// TestScriptsExecuteCorrectly runs a representative subset of the catalog
// end-to-end: parallel and optimized outputs must equal the serial output.
// The full catalog runs in TestFullCatalog (guarded by -short).
func TestScriptsExecuteCorrectly(t *testing.T) {
	subset := map[string]bool{
		"1.sh": true, "wf.sh": true, "top-n.sh": true, "spell.sh": true,
		"1_1.sh": true, "4_3.sh": true, "8.2_2.sh": true, "8.3_3.sh": true,
		"10.sh": true, "16.sh": true, "23.sh": true, "shortest-scripts.sh": true,
		"diff.sh": true, "set-diff.sh": true, "bi-grams.sh": true,
	}
	h := NewHarness(400, []int{1, 4, 16})
	for _, spec := range Catalog() {
		if !subset[spec.Name] {
			continue
		}
		r, err := h.RunScript(context.Background(), spec)
		if err != nil {
			t.Errorf("%s/%s: %v", spec.Suite, spec.Name, err)
			continue
		}
		if !r.Agree {
			t.Errorf("%s/%s: modes disagree: %v", spec.Suite, spec.Name, r.Errors)
		}
		if r.Total != spec.PaperStages {
			t.Errorf("%s/%s: total stages %d != %d", spec.Suite, spec.Name, r.Total, spec.PaperStages)
		}
	}
}

// table3Divergences are the three scripts whose planning counts differ
// from the paper's published Table 3, pinned at the counts this planner
// gives them (parallelized/total, eliminated) so a move is caught. The
// first two differences come from how the script was reconstructed
// (catalog.go: Table 10 pins some stages verbatim; the rest follow the
// cited public sources under Table 3's stage counts), the third from
// planning a script before running it; none is a planner bug:
//
//   - spell.sh plans 7/8 parallel, 3 eliminated; the paper has 6/8, 3.
//     Only `tr -cs A-Za-z '\n'` is rerun-only (kept sequential) here;
//     iconv, col -bx, the other two trs, sort, uniq and comm -23 all
//     synthesize a parallel combiner in this substrate. The paper's 6/8
//     implies a second stage without one, and we keep the reconstruction
//     rather than forcing a stage serial to match.
//   - 3_3.sh plans 7/9 parallel like the paper, but eliminates 3
//     combiners to the paper's 2. In the reconstructed `rev | sort | rev
//     | uniq -c` tail both revs have concat combiners and feed a parallel
//     stage, so Theorem 5 removes both: one concat adjacency more than
//     the paper's script has.
//   - 8.3_3.sh plans 5/10 parallel to the paper's 6/10, and eliminates 1
//     like the paper. Planning precedes running: the whole script is
//     compiled before any of it runs, so its last pipeline's `comm -23 -
//     tmp.ex.types` is synthesized before the pipeline that writes
//     tmp.ex.types has run. Its generated inputs then never produce
//     output and comm stays serial, as `kumquat plan` shows.
var table3Divergences = map[string]struct{ parallelized, total, eliminated int }{
	"spell.sh": {7, 8, 3},
	"3_3.sh":   {7, 9, 3},
	"8.3_3.sh": {5, 10, 1},
}

// TestTable3PerScriptExact pins every script's planning counts: a
// divergent script's to table3Divergences, every other to the paper's
// published values — the tight regression net over the planner and
// synthesizer.
func TestTable3PerScriptExact(t *testing.T) {
	if testing.Short() {
		t.Skip("full planning pass skipped in -short mode")
	}
	h := NewHarness(400, []int{1})
	results, err := h.PlanOnly(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range results {
		want, pinned := table3Divergences[r.Spec.Name]
		source := "pinned"
		if !pinned {
			want.parallelized, want.total, want.eliminated = r.Spec.PaperParallelized, r.Spec.PaperStages, r.Spec.PaperEliminated
			source = "paper"
		}
		if r.Parallelized != want.parallelized || r.Total != want.total || r.Eliminated != want.eliminated {
			t.Errorf("%s/%s: %d/%d elim %d; %s %d/%d elim %d",
				r.Spec.Suite, r.Spec.Name, r.Parallelized, r.Total, r.Eliminated,
				source, want.parallelized, want.total, want.eliminated)
		}
	}
}

// TestFullCatalog executes every script in every mode. Skipped with -short.
func TestFullCatalog(t *testing.T) {
	if testing.Short() {
		t.Skip("full catalog run skipped in -short mode")
	}
	h := NewHarness(300, []int{1, 4, 16})
	results, err := h.RunAll(context.Background())
	if err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	if len(results) != 70 {
		t.Fatalf("got %d results", len(results))
	}
	totalPar, totalElim := 0, 0
	for _, r := range results {
		if !r.Agree {
			t.Errorf("%s/%s: modes disagree: %v", r.Spec.Suite, r.Spec.Name, r.Errors)
		}
		totalPar += r.Parallelized
		totalElim += r.Eliminated
	}
	// The paper parallelizes 325/427 stages and eliminates 144 combiners.
	// Our planner's totals must land in the same regime (the few
	// reconstructed stages and planner-policy edges account for the slack).
	if totalPar < 290 || totalPar > 360 {
		t.Errorf("parallelized total = %d, paper 325 (allowed 290..360)", totalPar)
	}
	if totalElim < 115 || totalElim > 175 {
		t.Errorf("eliminated total = %d, paper 144 (allowed 115..175)", totalElim)
	}
	t.Logf("parallelized %d/427 (paper 325), eliminated %d (paper 144)", totalPar, totalElim)
}

func TestTableWriters(t *testing.T) {
	h := NewHarness(150, []int{1, 2})
	var results []*ScriptResult
	for _, spec := range Catalog()[:4] { // analytics-mts suite
		r, err := h.RunScript(context.Background(), spec)
		if err != nil {
			t.Fatalf("%s: %v", spec.Name, err)
		}
		results = append(results, r)
	}
	var b strings.Builder
	WriteTable3(&b, results)
	WriteTable4(&b, results, 2)
	WriteSweep(&b, results, []int{1, 2}, false)
	WriteSweep(&b, results, []int{1, 2}, true)
	WriteTable7(&b, results, []int{1, 2}, 0)
	WriteTable1(&b, results, 2)
	out := b.String()
	for _, want := range []string{"Table 3", "Table 4", "T_orig vs u1: median u1/T_orig", "Table 5", "Table 6", "Table 7", "Table 1", "analytics-mts"} {
		if !strings.Contains(out, want) {
			t.Errorf("table output missing %q", want)
		}
	}
}

func TestUniqueCommands(t *testing.T) {
	cmds := UniqueCommands()
	// The paper reports 133 unique command/flag combinations; our
	// reconstruction should be in the same neighbourhood.
	if len(cmds) < 90 || len(cmds) > 160 {
		t.Errorf("unique commands = %d, expected near the paper's 133", len(cmds))
	}
	seen := map[string]bool{}
	for _, c := range cmds {
		if seen[c] {
			t.Errorf("duplicate unique command %q", c)
		}
		seen[c] = true
	}
}

func TestTable8Histogram(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis over all unique commands skipped in -short mode")
	}
	h := NewHarness(100, []int{1})
	rows := Table8(context.Background(), h.System)
	if len(rows) == 0 {
		t.Fatal("empty Table 8")
	}
	byLabel := map[string]int{}
	for _, r := range rows {
		byLabel[r.Label] += r.Count
	}
	// The paper's buckets must all be populated: concat, rerun (both
	// orders), merge(*), and (back '\n' add). Concat and rerun dominate.
	// Counts follow Table 10's convention: a command adds one to the bucket
	// of every plausible candidate it keeps (sort counts toward merge(*) a
	// b, merge(*) b a, rerun a b and rerun b a), not one per command. That
	// convention does not reproduce the totals printed in the paper's
	// Table 8, so the test pins which buckets are populated and which one
	// dominates, not the per-bucket counts.
	for _, label := range []string{
		"(concat a b)", "(rerun a b)", "(rerun b a)",
		"(merge(*) a b)", "(merge(*) b a)", `(back '\n' add a b)`, `(back '\n' add b a)`,
	} {
		if byLabel[label] == 0 {
			t.Errorf("missing expected bucket %s: %v", label, byLabel)
		}
	}
	if byLabel["(concat a b)"] < 40 {
		t.Errorf("concat bucket suspiciously small: %d", byLabel["(concat a b)"])
	}
	if rows[0].Label != "(concat a b)" && rows[0].Label != "(rerun a b)" {
		t.Errorf("dominant bucket = %s, expected concat or rerun", rows[0].Label)
	}
	t.Logf("Table 8 top buckets: %v", rows[:min(6, len(rows))])
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func TestTable9Unsupported(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis over all unique commands skipped in -short mode")
	}
	h := NewHarness(100, []int{1})
	var b strings.Builder
	WriteTable9(context.Background(), &b, h.System)
	out := b.String()
	// Table 9's rows that appear in our catalog: tail +2, tail +3, the
	// equality-gated awk. (sed 1d / 2d appear inside unix50 scripts.)
	for _, want := range []string{"tail +2", "tail +3", "$1 == 2", "sed 1d", "sed 2d"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 9 missing %q:\n%s", want, out)
		}
	}
}

// table10Time matches Table 10's time column: a right-aligned rounded
// duration and the two spaces that end the column.
var table10Time = regexp.MustCompile(` +\d[\d.hmµn]*s  `)

// TestSynthesisTablesIgnorePlanning checks that Tables 8, 9 and 10 (less
// Table 10's time column) read the same whether or not a planning pass
// ran first: planning a script writes none of its temp files into the
// synthesizer's environment, so `comm -23 - tmp.ex.types` is synthesized
// against the same files either way.
func TestSynthesisTablesIgnorePlanning(t *testing.T) {
	if testing.Short() {
		t.Skip("synthesis over all unique commands skipped in -short mode")
	}
	ctx := context.Background()
	tables := func(planFirst bool) string {
		h := NewHarness(100, []int{1})
		if planFirst {
			if _, err := h.PlanOnly(ctx); err != nil {
				t.Fatal(err)
			}
		}
		var b strings.Builder
		WriteTable8(ctx, &b, h.System)
		WriteTable9(ctx, &b, h.System)
		WriteTable10(ctx, &b, h.System)
		return table10Time.ReplaceAllString(b.String(), " -  ")
	}
	fresh, planned := tables(false), tables(true)
	if fresh == planned {
		return
	}
	fl, pl := strings.Split(fresh, "\n"), strings.Split(planned, "\n")
	for i := range min(len(fl), len(pl)) {
		if fl[i] != pl[i] {
			t.Errorf("line %d differs after planning:\n fresh:   %s\n planned: %s", i, fl[i], pl[i])
		}
	}
	if len(fl) != len(pl) {
		t.Errorf("fresh tables have %d lines, after planning %d", len(fl), len(pl))
	}
}
