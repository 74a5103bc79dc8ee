package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kumquat/internal/analysis"
	"kumquat/internal/analysis/kqvet"
)

// wantSmoke is the exact diagnostic set the known-bad fixture module must
// produce: one finding per analyzer the fixture can trigger without
// importing kumquat/internal packages (captable keys on those types, so a
// separate module cannot violate it).
var wantSmoke = map[string]string{
	"ctxflow":  "bad.go",
	"docs":     "bad.go",
	"goroleak": "bad.go",
	"hotalloc": "bad.go",
}

// TestSmokeBadModule runs the whole multichecker in-process over the
// testdata/badmod fixture module and asserts the exit code and the
// analyzer->file diagnostic set.
func TestSmokeBadModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	jsonOut := filepath.Join(t.TempDir(), "kqvet.json")
	code := kqvet.Main(kqvet.Options{
		Dir:      "testdata/badmod",
		Patterns: []string{"./..."},
		JSONOut:  jsonOut,
	}, &stdout, &stderr)
	if code != kqvet.ExitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, kqvet.ExitFindings, stderr.String())
	}

	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatalf("reading JSON report: %v", err)
	}
	var rep kqvet.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatalf("decoding JSON report: %v", err)
	}
	got := map[string]string{}
	for _, f := range rep.Findings {
		if f.Baselined {
			t.Errorf("finding unexpectedly baselined: %s", f)
		}
		got[f.Analyzer] = f.File
	}
	for a, file := range wantSmoke {
		if got[a] != file {
			t.Errorf("analyzer %s: diagnostic in %q, want %q", a, got[a], file)
		}
	}
	for a := range got {
		if _, ok := wantSmoke[a]; !ok {
			t.Errorf("unexpected analyzer fired: %s", a)
		}
	}
	if rep.Unbaselined != len(rep.Findings) {
		t.Errorf("unbaselined = %d, want all %d", rep.Unbaselined, len(rep.Findings))
	}
	if !strings.Contains(stderr.String(), "ctxflow") {
		t.Errorf("stderr missing human-readable findings: %q", stderr.String())
	}
}

// TestSmokeBaseline pins every fixture finding with a justification and
// asserts the run turns clean — and that dropping a justification or
// pinning a finding that no longer occurs fails again.
func TestSmokeBaseline(t *testing.T) {
	run := func(baseline string) (int, string) {
		var stdout, stderr bytes.Buffer
		code := kqvet.Main(kqvet.Options{
			Dir:      "testdata/badmod",
			Patterns: []string{"./..."},
			Baseline: baseline,
		}, &stdout, &stderr)
		return code, stderr.String()
	}

	// Harvest the current findings into a fully justified baseline.
	var out bytes.Buffer
	jsonOut := filepath.Join(t.TempDir(), "kqvet.json")
	if code := kqvet.Main(kqvet.Options{
		Dir: "testdata/badmod", Patterns: []string{"./..."}, JSONOut: jsonOut,
	}, &out, &out); code != kqvet.ExitFindings {
		t.Fatalf("harvest run exit = %d, want %d", code, kqvet.ExitFindings)
	}
	data, err := os.ReadFile(jsonOut)
	if err != nil {
		t.Fatal(err)
	}
	var rep kqvet.Report
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	var entries []analysis.BaselineEntry
	for _, f := range rep.Findings {
		entries = append(entries, analysis.BaselineEntry{
			Analyzer:      f.Analyzer,
			File:          f.File,
			Message:       f.Message,
			Justification: "smoke fixture: intentionally violating for the test",
		})
	}

	dir := t.TempDir()
	justified := filepath.Join(dir, "justified.json")
	if err := analysis.WriteBaseline(justified, entries); err != nil {
		t.Fatal(err)
	}
	if code, errs := run(justified); code != kqvet.ExitClean {
		t.Errorf("justified baseline: exit = %d, want %d (stderr: %s)", code, kqvet.ExitClean, errs)
	}

	// An unjustified pin is a failure, not a suppression.
	bare := append([]analysis.BaselineEntry(nil), entries...)
	bare[0].Justification = ""
	unjustified := filepath.Join(dir, "unjustified.json")
	if err := analysis.WriteBaseline(unjustified, bare); err != nil {
		t.Fatal(err)
	}
	code, errs := run(unjustified)
	if code != kqvet.ExitFindings {
		t.Errorf("unjustified pin: exit = %d, want %d", code, kqvet.ExitFindings)
	}
	if !strings.Contains(errs, "baselined without justification") {
		t.Errorf("unjustified pin: stderr %q missing justification complaint", errs)
	}

	// A pin whose finding no longer occurs is stale and fails the run.
	withStale := append(append([]analysis.BaselineEntry(nil), entries...), analysis.BaselineEntry{
		Analyzer:      "ctxflow",
		File:          "gone.go",
		Message:       "context.Background in library code severs cancellation; thread the caller's ctx instead",
		Justification: "pinned against a file that does not exist",
	})
	stale := filepath.Join(dir, "stale.json")
	if err := analysis.WriteBaseline(stale, withStale); err != nil {
		t.Fatal(err)
	}
	code, errs = run(stale)
	if code != kqvet.ExitFindings {
		t.Errorf("stale pin: exit = %d, want %d", code, kqvet.ExitFindings)
	}
	if !strings.Contains(errs, "stale baseline entry") {
		t.Errorf("stale pin: stderr %q missing staleness complaint", errs)
	}
}

// TestRepoClean asserts the committed baseline keeps the repository's own
// kqvet run green — the CI gate in miniature. Every committed pin must
// carry a justification by construction, or this fails.
func TestRepoClean(t *testing.T) {
	root := analysis.ModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found")
	}
	var stdout, stderr bytes.Buffer
	code := kqvet.Main(kqvet.Options{
		Dir:      root,
		Patterns: []string{"./..."},
		Baseline: filepath.Join(root, ".kqvet.json"),
	}, &stdout, &stderr)
	if code != kqvet.ExitClean {
		t.Errorf("repository kqvet run exit = %d, want %d\n%s", code, kqvet.ExitClean, stderr.String())
	}
	if !strings.Contains(stdout.String(), fmt.Sprintf("%d analyzers", len(kqvet.All()))) {
		t.Errorf("summary %q missing analyzer count", stdout.String())
	}
}
