package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"kumquat/internal/analysis"
	"kumquat/internal/analysis/kqvet"
)

// wantSmoke is the exact diagnostic set the known-bad fixture module must
// produce: one finding per analyzer, each in bad.go.
var wantSmoke = map[string]string{
	"ctxflow":  "bad.go",
	"docs":     "bad.go",
	"goroleak": "bad.go",
}

// TestSmokeBadModule runs the whole multichecker in-process over the
// testdata/badmod fixture module and asserts the exit code and the
// analyzer->file diagnostic set read back from the vet-style lines on
// stderr ("file:line:col: analyzer: message").
func TestSmokeBadModule(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := kqvet.Main("testdata/badmod", []string{"./..."}, &stdout, &stderr)
	if code != kqvet.ExitFindings {
		t.Fatalf("exit code = %d, want %d (stderr: %s)", code, kqvet.ExitFindings, stderr.String())
	}
	got := map[string]string{}
	lines := strings.Split(strings.TrimSpace(stderr.String()), "\n")
	for _, line := range lines {
		parts := strings.SplitN(line, ": ", 3)
		if len(parts) != 3 {
			t.Fatalf("stderr line %q is not file:line:col: analyzer: message", line)
		}
		file, _, _ := strings.Cut(parts[0], ":")
		got[parts[1]] = file
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
	if want := fmt.Sprintf("%d findings", len(lines)); !strings.Contains(stdout.String(), want) {
		t.Errorf("summary %q, want it to report %s", stdout.String(), want)
	}
}

// TestRepoClean asserts the repository's own kqvet run reports no
// finding — the CI gate in miniature.
func TestRepoClean(t *testing.T) {
	root := analysis.ModuleRoot(".")
	if root == "" {
		t.Fatal("module root not found")
	}
	var stdout, stderr bytes.Buffer
	code := kqvet.Main(root, []string{"./..."}, &stdout, &stderr)
	if code != kqvet.ExitClean {
		t.Errorf("repository kqvet run exit = %d, want %d\n%s", code, kqvet.ExitClean, stderr.String())
	}
	if !strings.Contains(stdout.String(), fmt.Sprintf("%d analyzers", len(kqvet.All()))) {
		t.Errorf("summary %q missing analyzer count", stdout.String())
	}
}
