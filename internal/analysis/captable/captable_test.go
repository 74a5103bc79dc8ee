package captable_test

import (
	"testing"

	"kumquat/internal/analysis/analysistest"
	"kumquat/internal/analysis/captable"
)

// TestCaptable proves the analyzer fires on ad-hoc Op.Eval folds and
// stays silent on binary combines and k-way combines routed through
// dsl.CombineK.
func TestCaptable(t *testing.T) {
	analysistest.Run(t, captable.Analyzer, "testdata/src/a")
}
