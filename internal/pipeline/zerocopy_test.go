package pipeline

import (
	"context"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"kumquat/internal/textio"
)

// TestDrainHonorsCancellation: the up-front materialization of an
// in-memory stdin must observe the run context. Regression test for the
// drain reading the whole body before anything checked ctx — with the
// context already cancelled, Execute must fail without consuming a byte.
func TestDrainHonorsCancellation(t *testing.T) {
	syn := newSynth()
	plan := compilePlan(t, syn, "sort | uniq -c\n")
	input := strings.Repeat("light word\n", 10000)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, fuse := range []bool{true, false} {
		r := strings.NewReader(input)
		_, err := plan.Execute(ctx, syn.Env, r, io.Discard, ModeOptimized, 2, WithFuse(fuse))
		if !errors.Is(err, context.Canceled) {
			t.Errorf("fuse=%v: err = %v, want context.Canceled", fuse, err)
		}
		if r.Len() != len(input) {
			t.Errorf("fuse=%v: drain consumed %d bytes after cancellation", fuse, len(input)-r.Len())
		}
	}
}

// TestIngestAllocatesPerChunk: reading a freshly registered file and
// splitting it k ways costs O(k) heap bytes — k substring headers over
// the registered string — not O(lines): no per-line structure stands
// between the file and its first parallel region.
func TestIngestAllocatesPerChunk(t *testing.T) {
	const lines, k = 200_000, 4
	corpus := strings.Repeat("light word here\n", lines)
	syn := newSynth()
	syn.Env.FS.Register("in.txt", corpus)
	plan := compilePlan(t, syn, "cat in.txt | wc -l\n")
	if got, err := runPlan(plan, syn.Env, "", ModeOptimized, k); err != nil || got != "200000\n" {
		t.Fatalf("wc -l = %q, %v", got, err)
	}
	best := uint64(math.MaxUint64)
	var before, after runtime.MemStats
	for round := 0; round < 3; round++ {
		// A fresh registration each round: the file is new to the FS, as
		// it is on every request of a daemon.
		syn.Env.FS.Register("in.txt", corpus)
		runtime.ReadMemStats(&before)
		if _, err := plan.Execute(context.Background(), syn.Env, nil, io.Discard, ModeOptimized, k); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if d := after.TotalAlloc - before.TotalAlloc; d < best {
			best = d
		}
	}
	// One byte per line is far above the O(k) cost and far below any
	// per-line index (8 B/line for an offset table).
	if best > lines {
		t.Errorf("Execute over a fresh %d-line file allocated %d bytes (%.1f B/line), want O(k)", lines, best, float64(best)/lines)
	}
	t.Logf("ingest+run allocated %d bytes", best)
}

// TestMappedInputMatchesRegistered: a pipeline over an mmap-backed input
// file must produce byte-identical output to the same corpus registered
// as an in-memory string, across every mode — the mmap-vs-fallback
// equivalence gate of the zero-copy data plane.
func TestMappedInputMatchesRegistered(t *testing.T) {
	corpus := strings.Repeat("Some Light text\nmore WORDS here\nlight Again\n", 700) + "no newline tail"
	path := filepath.Join(t.TempDir(), "in.txt")
	if err := os.WriteFile(path, []byte(corpus), 0o644); err != nil {
		t.Fatal(err)
	}

	ref := newSynth()
	ref.Env.FS.Register("in.txt", corpus)
	refPlan := compilePlan(t, ref, "cat in.txt | tr A-Z a-z | sort | uniq -c\n")
	want, err := runPlan(refPlan, ref.Env, "", ModeSerial, 1)
	if err != nil {
		t.Fatal(err)
	}

	syn := newSynth()
	m, err := textio.MapFile(path)
	if err != nil {
		t.Fatal(err)
	}
	syn.Env.FS.RegisterMapping("in.txt", m)
	defer syn.Env.FS.Close()
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | sort | uniq -c\n")
	for _, mode := range allModes {
		for _, k := range []int{1, 3} {
			var out strings.Builder
			if _, err := plan.Execute(context.Background(), syn.Env, nil, &out, mode, k); err != nil {
				t.Errorf("%v k=%d: %v", mode, k, err)
				continue
			}
			if out.String() != want {
				t.Errorf("%v k=%d diverged from registered-string run", mode, k)
			}
		}
	}
}
