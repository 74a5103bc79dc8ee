// Command kqvet is the repository's invariant multichecker: custom
// static analyzers encoding the invariants the paper's guarantees rest
// on but the compiler cannot see — context propagation (ctxflow),
// bounded goroutines (goroleak) and godoc coverage (docs).
//
// Usage:
//
//	go run ./cmd/kqvet ./...                  # check everything
//	go run ./cmd/kqvet ./internal/pipeline    # check one package
//
// Every finding fails the run. Exit codes: 0 clean, 1 findings, 2 internal error.
package main

import (
	"flag"
	"os"

	"kumquat/internal/analysis/kqvet"
)

func main() {
	flag.Parse()
	os.Exit(kqvet.Main(".", flag.Args(), os.Stdout, os.Stderr))
}
