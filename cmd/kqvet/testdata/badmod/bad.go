//kqvet:docs

// Package badmod is the kqvet smoke fixture: a stdlib-only module whose
// single package violates one invariant per analyzer, so the smoke test
// can assert the multichecker's exit code and diagnostic set end to
// end. It lives in its own module (testdata is invisible to the parent
// module's go list) and must not import kumquat packages — the
// internal-import restriction blocks a separate module from reaching
// them.
package badmod

import "context"

// Lookup severs cancellation: ctxflow must flag the fresh root.
func Lookup(key string) string {
	ctx := context.Background()
	_ = ctx
	return key
}

// Fire leaks: goroleak must flag the unbounded goroutine.
func Fire(work func()) {
	go work()
}

func Undocumented() {}
