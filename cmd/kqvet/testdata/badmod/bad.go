//kqvet:hotpath
//kqvet:docs

// Package badmod is the kqvet smoke fixture: a stdlib-only module whose
// single package violates one invariant per comment-directive-gated or
// always-on analyzer, so the smoke test can assert the multichecker's
// exit code and diagnostic set end to end. It lives in its own module
// (testdata is invisible to the parent module's go list) and must not
// import kumquat packages — the internal-import restriction blocks a
// separate module from reaching them, which is also why the captable
// analyzer (keyed to kumquat/internal types) stays silent here.
package badmod

import (
	"context"
	"fmt"
)

// Lookup severs cancellation: ctxflow must flag the fresh root.
func Lookup(key string) string {
	ctx := context.Background()
	_ = ctx
	return key
}

// Render allocates per iteration: hotalloc must flag the Sprintf (the
// package opts into the hot-path bar via the kqvet:hotpath directive).
func Render(keys []string) []string {
	out := make([]string, 0, len(keys))
	for i, k := range keys {
		out = append(out, fmt.Sprintf("%d=%s", i, k))
	}
	return out
}

// Fire leaks: goroleak must flag the unbounded goroutine.
func Fire(work func()) {
	go work()
}

func Undocumented() {}
