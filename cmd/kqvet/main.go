// Command kqvet is the repository's invariant multichecker: custom
// static analyzers encoding the invariants the paper's guarantees rest
// on but the compiler cannot see — context propagation (ctxflow),
// allocation-lean hot paths (hotalloc), bounded goroutines (goroleak),
// k-way combines routed through dsl.CombineK (captable), and godoc
// coverage (docs).
//
// Usage:
//
//	go run ./cmd/kqvet ./...                  # check everything
//	go run ./cmd/kqvet -analyzers ctxflow ./...
//	go run ./cmd/kqvet -json KQVET.json ./... # CI artifact
//	go run ./cmd/kqvet -write-baseline ./...  # pin current findings
//
// Findings already pinned in the baseline file (default .kqvet.json)
// are reported but do not fail the run — provided each pin carries a
// justification. Unjustified pins and stale pins fail, so the baseline
// stays an honest, explained record rather than a mute suppression list.
// Exit codes: 0 clean, 1 findings, 2 internal error.
package main

import (
	"flag"
	"os"
	"strings"

	"kumquat/internal/analysis/kqvet"
)

func main() {
	baseline := flag.String("baseline", ".kqvet.json", "baseline file pinning accepted findings (empty to disable)")
	writeBaseline := flag.Bool("write-baseline", false, "regenerate the baseline from current findings and exit")
	jsonOut := flag.String("json", "", "write the full findings report (baselined included) to this JSON file")
	analyzers := flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
	dir := flag.String("C", ".", "working directory for package resolution")
	flag.Parse()

	opts := kqvet.Options{
		Dir:           *dir,
		Patterns:      flag.Args(),
		Baseline:      *baseline,
		WriteBaseline: *writeBaseline,
		JSONOut:       *jsonOut,
	}
	if *analyzers != "" {
		opts.Analyzers = strings.Split(*analyzers, ",")
	}
	os.Exit(kqvet.Main(opts, os.Stdout, os.Stderr))
}
