package conformance

import (
	"context"
	"testing"
)

// TestReplayClusterHandcrafted drives handcrafted cases through the full
// chaos topology — 3 workers behind fault-injecting proxies, a worker
// kill partway through — and requires byte-identity with the serial
// oracle on every case.
func TestReplayClusterHandcrafted(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos topology boot is too heavy for -short")
	}
	cases := []*Case{
		{Script: "sort | uniq -c | sort -rn\n", Corpus: "b\na\nb\nc\na\nb\n", Profile: "hand"},
		{Script: "grep -c a\n", Corpus: "apple\nfig\npear\nbanana\n", Profile: "hand"},
		{Script: "tr a-z A-Z | sort\n", Corpus: "pear\napple\nfig\n", Profile: "hand"},
		{Script: "wc -l\n", Corpus: "", Profile: "hand-empty"},
		{Script: "sort -u\n", Corpus: "c\na\nc\nb\na\n", Profile: "hand"},
	}
	rep, err := ReplayCluster(context.Background(), cases, ClusterOptions{Seed: 7}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Divergences) != 0 {
		t.Fatalf("cluster divergences under chaos: %+v", rep.Divergences)
	}
	if rep.Cases != len(cases) {
		t.Fatalf("replay covered %d of %d cases", rep.Cases, len(cases))
	}
	if rep.Workers != 3 || rep.Shards == 0 {
		t.Fatalf("topology accounting wrong: %+v", rep)
	}
	// The kill schedule guarantees degradation for the suite's tail.
	if rep.WorkerKilledAt < 0 || rep.ClusterKilledAt <= rep.WorkerKilledAt {
		t.Fatalf("kill schedule not recorded: %+v", rep)
	}
	if rep.LocalRuns == 0 {
		t.Fatalf("killing every worker produced no local fallback: %+v", rep)
	}
	// Every case ran traced, so the replay must have sampled one stitched
	// trace: coordinator + worker spans in a single tree, with the chaos
	// plane's recoveries visible as span events whenever the sampled run
	// actually retried or speculated.
	if rep.TraceSample == nil {
		t.Fatal("chaos replay captured no trace sample")
	}
	if rep.TraceSpans < 2 {
		t.Fatalf("trace sample has %d spans, want a real tree", rep.TraceSpans)
	}
	if rep.TraceProcs < 2 {
		// Only an all-local run (possible on a tiny suite with early
		// kills) can legitimately collapse to one process; this suite's
		// kill schedule leaves healthy cases before the kills.
		t.Fatalf("trace sample covers %d processes, want coordinator+worker stitching: %+v",
			rep.TraceProcs, rep.TraceSample)
	}
	ids := map[string]bool{}
	for _, sp := range rep.TraceSample.Spans {
		ids[sp.TraceID] = true
	}
	if len(ids) != 1 {
		t.Fatalf("trace sample mixes %d trace ids, want exactly one", len(ids))
	}
	if rep.Retries > 0 && rep.Speculations > 0 &&
		rep.TraceRetryEvents == 0 && rep.TraceSpeculationEvents == 0 {
		t.Fatalf("suite retried (%d) and speculated (%d) but the sampled trace shows neither",
			rep.Retries, rep.Speculations)
	}
}
