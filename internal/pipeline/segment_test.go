package pipeline

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// recordLeaves wraps the local runner and records the script of every
// segment it is handed.
func recordLeaves(scripts *[]string) ExecOpt {
	var mu sync.Mutex
	return WithLeaves(func(local Leaves) Leaves {
		return func(ctx context.Context, seg *Segment, chunks []string) ([]string, [][]int64, error) {
			mu.Lock()
			*scripts = append(*scripts, seg.Script)
			mu.Unlock()
			return local(ctx, seg, chunks)
		}
	})
}

// TestSegmentRunsInOneLeafCall: a fused region whose split exit feeds
// sort is one segment — one leaf call whose script lists the member
// stages, not fused(…) — while Unoptimized mode, which has no split
// exits, makes one call per parallel stage. Both match the oracle.
func TestSegmentRunsInOneLeafCall(t *testing.T) {
	syn := newSynth()
	input := strings.Repeat("Pear\napple\nFIG\nbanana\nKiwi\n", 50)
	syn.Env.FS.Register("in.txt", input)
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | grep a | sort\n")
	want := reference(t, plan, input)
	for _, tc := range []struct {
		mode Mode
		want []string
	}{
		{ModeOptimized, []string{"tr A-Z a-z | grep a | sort"}},
		{ModeUnoptimized, []string{"tr A-Z a-z", "grep a", "sort"}},
	} {
		var scripts []string
		var out strings.Builder
		if _, err := plan.Execute(context.Background(), syn.Env, nil, &out, tc.mode, 3, recordLeaves(&scripts)); err != nil {
			t.Fatalf("%v: %v", tc.mode, err)
		}
		if out.String() != want {
			t.Errorf("%v: output diverges from the oracle", tc.mode)
		}
		if strings.Join(scripts, ";") != strings.Join(tc.want, ";") {
			t.Errorf("%v: leaf calls %q, want %q", tc.mode, scripts, tc.want)
		}
	}
}

// TestSegmentFailureNamesMember: a failing second member of a segment is
// reported as that stage and chunk, exactly as a one-stage leaf failure
// is, never as the segment's joined script.
func TestSegmentFailureNamesMember(t *testing.T) {
	syn := newSynth()
	syn.Env.FS.Register("ok1", "x\n")
	syn.Env.FS.Register("in.txt", "OK1\nMISSING-FILE\nOK1\n")
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | xargs cat\n")
	var scripts []string
	_, err := plan.Execute(context.Background(), syn.Env, nil, io.Discard, ModeOptimized, 2, recordLeaves(&scripts))
	if len(scripts) != 1 || scripts[0] != "tr A-Z a-z | xargs cat" {
		t.Fatalf("leaf calls %q, want one two-stage segment", scripts)
	}
	if err == nil {
		t.Fatal("failing member produced no error")
	}
	if msg := err.Error(); !strings.HasPrefix(msg, `pipeline: stage "xargs cat" chunk `) || strings.Contains(msg, "tr A-Z a-z") {
		t.Errorf("error = %v, want it to name the failing member and its chunk", err)
	}
}

// declaredReader is an external source (not one of the in-memory reader
// types) that declares its remaining length, like a server's request
// body.
type declaredReader struct{ *bytes.Reader }

// TestDrainAllocatesOnce: draining an N-byte body whose length is known
// allocates one buffer of about N bytes — not io.ReadAll's doubling
// series, nor the async helper's 32 KiB copies plus a growing buffer —
// and an in-memory buffer is taken without a copy.
func TestDrainAllocatesOnce(t *testing.T) {
	const n = 1 << 20
	data := bytes.Repeat([]byte("light word here\n"), n/16)
	ctx := context.Background()
	for _, tc := range []struct {
		name string
		src  func() io.Reader
		max  uint64
	}{
		{"in-memory reader", func() io.Reader { return bytes.NewReader(data) }, n + n/16},
		{"external body", func() io.Reader { return newAsyncReader(ctx, declaredReader{bytes.NewReader(data)}) }, n + n/16},
		{"in-memory buffer", func() io.Reader { return bytes.NewBuffer(data) }, n / 16},
	} {
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			src := tc.src()
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := drain(ctx, src)
			runtime.ReadMemStats(&after)
			if err != nil || len(got) != n {
				t.Fatalf("%s: drained %d bytes, %v", tc.name, len(got), err)
			}
			if d := after.TotalAlloc - before.TotalAlloc; d < best {
				best = d
			}
		}
		if best > tc.max {
			t.Errorf("%s: draining %d bytes allocated %d, want ≤ %d", tc.name, n, best, tc.max)
		}
	}
}
