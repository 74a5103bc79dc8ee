package pipeline

import (
	"bytes"
	"context"
	"io"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"kumquat/internal/unix"
)

// recordLeaves wraps the local runner and records the script of every
// segment it is handed.
func recordLeaves(scripts *[]string) ExecOpt {
	var mu sync.Mutex
	return WithLeaves(func(local Leaves) Leaves {
		return func(ctx context.Context, seg *Segment, chunks []string) ([]string, [][]int64, error) {
			mu.Lock()
			*scripts = append(*scripts, seg.Chain.Spec())
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

// countingCmd wraps a segment member and records the most of its runs
// ever in flight at once.
type countingCmd struct {
	unix.Command
	inflight, peak *atomic.Int32
}

func (c countingCmd) Run(in string) (string, error) {
	cur := c.inflight.Add(1)
	defer c.inflight.Add(-1)
	for p := c.peak.Load(); cur > p && !c.peak.CompareAndSwap(p, cur); p = c.peak.Load() {
	}
	// Hold the run in flight, so that runs an unbounded fan-out started
	// together would overlap.
	time.Sleep(time.Millisecond)
	return c.Command.Run(in)
}

// TestChunkRunsBounded: at k = 64 the executor runs all 64 chunks but
// never more than min(k, GOMAXPROCS) of them at once, and the output is
// the oracle's.
func TestChunkRunsBounded(t *testing.T) {
	const k = 64
	syn := newSynth()
	input := strings.Repeat("Pear\napple\nFIG\nbanana\n", 2*k)
	syn.Env.FS.Register("in.txt", input)
	plan := compilePlan(t, syn, "cat in.txt | tr A-Z a-z | grep a\n")
	want := reference(t, plan, input)
	var inflight, peak atomic.Int32
	chunks := 0
	count := WithLeaves(func(local Leaves) Leaves {
		return func(ctx context.Context, seg *Segment, cs []string) ([]string, [][]int64, error) {
			chunks += len(cs)
			counted := *seg
			members := unix.Members(seg.Chain)
			counted.Chain = unix.NewChain(append([]unix.Command{countingCmd{members[0], &inflight, &peak}}, members[1:]...)...)
			return local(ctx, &counted, cs)
		}
	})
	var out strings.Builder
	if _, err := plan.Execute(context.Background(), syn.Env, nil, &out, ModeOptimized, k, count); err != nil {
		t.Fatal(err)
	}
	if out.String() != want {
		t.Error("output diverges from the oracle")
	}
	bound := min(k, runtime.GOMAXPROCS(0))
	if got := peak.Load(); chunks != k || got < 1 || int(got) > bound {
		t.Errorf("%d chunks ran with %d in flight at peak; want %d chunks, at most %d at once", chunks, got, k, bound)
	}
}

// declaredReader is an external source (not one of the in-memory reader
// types) that declares its remaining length, like a server's request
// body.
type declaredReader struct{ *bytes.Reader }

// TestDrainAllocatesOnce: draining an N-byte body whose length is known
// allocates one buffer of about N bytes — not io.ReadAll's doubling
// series, nor the pump's blocks plus their join — and an in-memory buffer
// is taken without a copy.
func TestDrainAllocatesOnce(t *testing.T) {
	const n = 1 << 20
	data := bytes.Repeat([]byte("light word here\n"), n/16)
	ctx := context.Background()
	for _, tc := range []struct {
		name  string
		drain func() (string, error)
		max   uint64
	}{
		{"in-memory reader", func() (string, error) { return materialize(ctx, bytes.NewReader(data)) }, n + n/16},
		{"external body", func() (string, error) {
			return unix.JoinBlocks(pump(ctx, declaredReader{bytes.NewReader(data)}, false).next)
		}, n + n/16},
		{"in-memory buffer", func() (string, error) { return materialize(ctx, bytes.NewBuffer(data)) }, n / 16},
	} {
		best := ^uint64(0)
		for round := 0; round < 3; round++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := tc.drain()
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
