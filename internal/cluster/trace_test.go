package cluster

import (
	"context"
	"errors"
	"testing"
	"time"

	"kumquat/internal/obs"
)

// tracedExecute runs Coordinator.Execute under a root span and returns the
// recorded trace, so tests can assert on the dispatch events the
// cluster plane annotates its shard spans with.
func tracedExecute(t *testing.T, co *Coordinator, script, corpus string) *obs.TraceData {
	t.Helper()
	trc := obs.NewTracer(1, "test")
	ctx, root := trc.StartTrace(context.Background(), "run")
	plan := compilePlan(t, script)
	out, _, _, err := executePlan(ctx, co, plan, corpus)
	root.End()
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, corpus); out != want {
		t.Fatalf("traced run diverges: %q != %q", out, want)
	}
	td, ok := trc.Trace(root.SpanContext().TraceID)
	if !ok {
		t.Fatal("trace not recorded")
	}
	return td
}

// countEvents tallies span-event names across a trace, and spanNames the
// span names.
func countEvents(td *obs.TraceData) (events, spans map[string]int) {
	events, spans = map[string]int{}, map[string]int{}
	for _, sp := range td.Spans {
		spans[sp.Name]++
		for _, ev := range sp.Events {
			events[ev.Name]++
		}
	}
	return events, spans
}

// TestTraceRetryEvents: a worker failing every call forces re-dispatch,
// and each retry lands as a "retry" event on the owning shard span —
// alongside one "dispatch" event per attempt naming the worker tried.
func TestTraceRetryEvents(t *testing.T) {
	boom := errors.New("boom")
	runners := map[string]*fakeRunner{
		"bad":  {addr: "bad", fail: func(int) error { return boom }},
		"good": {addr: "good"},
	}
	co := New(testConfig(runners, "bad", "good"))

	td := tracedExecute(t, co, "sort", testCorpus)
	events, spans := countEvents(td)
	if spans["cluster-segment"] == 0 || spans["shard"] == 0 {
		t.Fatalf("traced dispatch recorded no segment/shard spans: %v", spans)
	}
	if events["retry"] == 0 {
		t.Fatalf("failing worker left no retry events: %v", events)
	}
	if events["dispatch"] <= events["retry"] {
		t.Fatalf("dispatch events (%d) must outnumber retries (%d): every attempt dispatches",
			events["dispatch"], events["retry"])
	}
}

// TestTraceSpeculationEvents: a stalling worker's shard speculates, and
// both the launch and the duplicate's win land as span events.
func TestTraceSpeculationEvents(t *testing.T) {
	runners := map[string]*fakeRunner{
		"slow": {addr: "slow", delay: 2 * time.Second},
		"b":    {addr: "b"}, "c": {addr: "c"},
	}
	cfg := testConfig(runners, "slow", "b", "c")
	cfg.SpeculateAfter = 20 * time.Millisecond
	co := New(cfg)

	td := tracedExecute(t, co, "sort", testCorpus)
	events, _ := countEvents(td)
	if events["speculate"] == 0 {
		t.Fatalf("stalled shard left no speculate events: %v", events)
	}
	if events["speculation-win"] == 0 {
		t.Fatalf("winning duplicate left no speculation-win event: %v", events)
	}
}

// TestTraceFallbackAndEjectionEvents: with every worker dead, shard
// spans carry local-fallback events and the health plane's ejections
// surface as eject-worker events.
func TestTraceFallbackAndEjectionEvents(t *testing.T) {
	boom := errors.New("down")
	fail := func(int) error { return boom }
	runners := map[string]*fakeRunner{
		"a": {addr: "a", fail: fail, probeErr: boom},
		"b": {addr: "b", fail: fail, probeErr: boom},
	}
	co := New(testConfig(runners, "a", "b"))

	td := tracedExecute(t, co, "sort | uniq -c", testCorpus)
	events, _ := countEvents(td)
	if events["local-fallback"] == 0 {
		t.Fatalf("dead cluster left no local-fallback events: %v", events)
	}
	if events["eject-worker"] == 0 {
		t.Fatalf("dead workers left no eject-worker events: %v", events)
	}
}
