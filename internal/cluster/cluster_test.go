package cluster

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"kumquat"
	"kumquat/internal/pipeline"
	"kumquat/internal/server/api"
	"kumquat/internal/unix"
)

// fakeRunner executes segment scripts in-process through the unix
// substrate, with scripted failures, latency and probe outcomes — a
// worker daemon without the HTTP. It records every script it was sent.
type fakeRunner struct {
	addr  string
	delay time.Duration
	// fail decides whether call number n (1-based, per runner) fails;
	// nil means every call succeeds.
	fail func(n int) error
	// probeErr is returned by Probe.
	probeErr error

	mu      sync.Mutex
	calls   int
	scripts []string
}

func (f *fakeRunner) Run(ctx context.Context, script, input string) (string, []int64, error) {
	f.mu.Lock()
	f.calls++
	n := f.calls
	f.scripts = append(f.scripts, script)
	f.mu.Unlock()
	if f.fail != nil {
		if err := f.fail(n); err != nil {
			return "", nil, err
		}
	}
	if f.delay > 0 {
		t := time.NewTimer(f.delay)
		defer t.Stop()
		select {
		case <-t.C:
		case <-ctx.Done():
			return "", nil, ctx.Err()
		}
	}
	parsed, err := pipeline.ParseScript(script+"\n", nil)
	if err != nil {
		return "", nil, err
	}
	var stageBytes []int64
	for _, spec := range parsed.Pipelines[0].Stages {
		cmd, err := unix.Parse(strings.TrimSpace(spec), unix.DefaultEnv())
		if err != nil {
			return "", nil, err
		}
		if input, err = cmd.Run(input); err != nil {
			return "", nil, err
		}
		stageBytes = append(stageBytes, int64(len(input)))
	}
	return input, stageBytes, nil
}

func (f *fakeRunner) Probe(ctx context.Context) error { return f.probeErr }

func (f *fakeRunner) callCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.calls
}

// compilePlan builds one compiled plan through the real synthesis engine
// (cached across tests via the shared system).
var (
	testSysOnce sync.Once
	testSys     *kumquat.System
)

func compilePlan(t *testing.T, script string) *kumquat.Plan {
	t.Helper()
	testSysOnce.Do(func() {
		testSys = kumquat.New(kumquat.NewEnv())
	})
	plan, err := testSys.Parallelize(context.Background(), script+"\n")
	if err != nil {
		t.Fatalf("parallelize %q: %v", script, err)
	}
	return plan
}

// executePlan runs Coordinator.Execute over an in-memory corpus on stdin
// and returns the collected output stream, the per-stage reports and the
// run's dispatch accounting.
func executePlan(ctx context.Context, co *Coordinator, plan *kumquat.Plan, corpus string) (string, []kumquat.StageReport, api.ClusterReport, error) {
	rep, cr, err := co.Execute(ctx, plan, kumquat.WithStdin(strings.NewReader(corpus)))
	if err != nil {
		return "", nil, cr, err
	}
	return rep.Output, rep.Stages, cr, nil
}

// serialRun computes the oracle: every stage to completion, in order.
func serialRun(t *testing.T, plan *kumquat.Plan, corpus string) string {
	t.Helper()
	data := corpus
	for _, st := range plan.Stages() {
		cmd, err := unix.Parse(st.Spec, unix.DefaultEnv())
		if err != nil {
			t.Fatalf("serial stage %q: %v", st.Spec, err)
		}
		if data, err = cmd.Run(data); err != nil {
			t.Fatalf("serial stage %q: %v", st.Spec, err)
		}
	}
	return data
}

// testConfig returns a Config with fake runners and the recovery policy
// at test scale: millisecond backoffs, ejection after two failures, and a
// cooldown that outlasts any test.
func testConfig(runners map[string]*fakeRunner, addrs ...string) Config {
	rec := defaultRecovery
	rec.retryBase, rec.retryCap = time.Millisecond, 5*time.Millisecond
	rec.ejectAfter, rec.ejectCooldown = 2, time.Minute
	return Config{
		Workers:        addrs,
		NewRunner:      func(addr string) Runner { return runners[addr] },
		Shards:         3,
		ShardTimeout:   5 * time.Second,
		SpeculateAfter: -1, // individual tests opt in
		recovery:       rec,
	}
}

const testCorpus = "pear\napple\npear\nfig\napple\npear\nkiwi\nfig\n"

// TestExecuteMatchesSerial: healthy cluster, parallel stages shard
// to the workers and the combined output is byte-identical to the
// serial run.
func TestExecuteMatchesSerial(t *testing.T) {
	runners := map[string]*fakeRunner{
		"a": {addr: "a"}, "b": {addr: "b"}, "c": {addr: "c"},
	}
	co := New(testConfig(runners, "a", "b", "c"))
	plan := compilePlan(t, "sort | uniq -c")

	out, stages, snap, err := executePlan(context.Background(), co, plan, testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, testCorpus); out != want {
		t.Fatalf("cluster output diverges:\n%q\nwant\n%q", out, want)
	}
	if snap.RemoteRuns == 0 || snap.LocalRuns != 0 {
		t.Fatalf("healthy cluster ran remote=%d local=%d", snap.RemoteRuns, snap.LocalRuns)
	}
	sharded := 0
	for _, sg := range stages {
		if sg.Parallel {
			sharded++
			if sg.Chunks != 3 {
				t.Fatalf("stage %q sharded %d ways, want 3", sg.Spec, sg.Chunks)
			}
		}
	}
	if sharded == 0 {
		t.Fatal("no stage was sharded")
	}
	if snap.Workers != 3 || snap.Healthy != 3 {
		t.Fatalf("worker accounting wrong: %+v", snap)
	}
}

// TestRetryFailover: a worker that always fails is routed around — the
// shard retries on another worker, the run succeeds, and the retry is
// counted.
func TestRetryFailover(t *testing.T) {
	boom := errors.New("boom")
	runners := map[string]*fakeRunner{
		"bad":  {addr: "bad", fail: func(int) error { return boom }},
		"good": {addr: "good"},
	}
	co := New(testConfig(runners, "bad", "good"))
	plan := compilePlan(t, "sort")

	out, _, snap, err := executePlan(context.Background(), co, plan, testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, testCorpus); out != want {
		t.Fatalf("failover output diverges: %q != %q", out, want)
	}
	if snap.Retries == 0 {
		t.Fatal("failing worker produced no retries")
	}
	if snap.LocalRuns != 0 {
		t.Fatalf("failover degraded to local (%d runs) despite a healthy worker", snap.LocalRuns)
	}
	if runners["good"].callCount() == 0 {
		t.Fatal("healthy worker was never tried")
	}
}

// TestLocalFallback: with every worker dead the coordinator degrades to
// in-process execution — correct output, every shard counted local, and
// the dead workers ejected.
func TestLocalFallback(t *testing.T) {
	boom := errors.New("down")
	fail := func(int) error { return boom }
	runners := map[string]*fakeRunner{
		"a": {addr: "a", fail: fail, probeErr: boom},
		"b": {addr: "b", fail: fail, probeErr: boom},
	}
	co := New(testConfig(runners, "a", "b"))
	plan := compilePlan(t, "sort | uniq -c")

	out, _, snap, err := executePlan(context.Background(), co, plan, testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, testCorpus); out != want {
		t.Fatalf("fallback output diverges:\n%q\nwant\n%q", out, want)
	}
	if snap.LocalRuns == 0 {
		t.Fatal("dead cluster produced no local runs")
	}
	if snap.RemoteRuns != 0 {
		t.Fatalf("dead cluster reported %d remote runs", snap.RemoteRuns)
	}
	if snap.Ejections == 0 {
		t.Fatal("dead workers were never ejected")
	}
	if snap.Healthy != 0 {
		t.Fatalf("Healthy = %d with every worker dead", snap.Healthy)
	}
}

// TestSpeculationWins: a stalling worker's shard gets a speculative
// duplicate on a healthy worker, the duplicate's result wins, and the
// output stays byte-identical.
func TestSpeculationWins(t *testing.T) {
	runners := map[string]*fakeRunner{
		"slow": {addr: "slow", delay: 2 * time.Second},
		"b":    {addr: "b"}, "c": {addr: "c"},
	}
	cfg := testConfig(runners, "slow", "b", "c")
	cfg.SpeculateAfter = 20 * time.Millisecond
	co := New(cfg)
	plan := compilePlan(t, "sort")

	out, _, snap, err := executePlan(context.Background(), co, plan, testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, testCorpus); out != want {
		t.Fatalf("speculated output diverges: %q != %q", out, want)
	}
	if snap.Speculations == 0 {
		t.Fatal("stalled shard never speculated")
	}
	if snap.SpeculationWins == 0 {
		t.Fatal("speculative duplicate never won against a 2s straggler")
	}
}

// TestEjectionReadmission: an ejected worker whose cooldown expired is
// probed and readmitted once the rotation is otherwise empty.
func TestEjectionReadmission(t *testing.T) {
	flaky := &fakeRunner{addr: "w"}
	calls := 0
	var mu sync.Mutex
	flaky.fail = func(int) error {
		mu.Lock()
		defer mu.Unlock()
		calls++
		if calls <= 2 {
			return errors.New("warming up")
		}
		return nil
	}
	cfg := testConfig(map[string]*fakeRunner{"w": flaky}, "w")
	cfg.Shards = 2
	cfg.recovery.ejectCooldown = time.Millisecond
	cfg.recovery.retryMax = 4
	cfg.recovery.retryBase = 5 * time.Millisecond
	co := New(cfg)
	plan := compilePlan(t, "sort")

	out, _, snap, err := executePlan(context.Background(), co, plan, testCorpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, testCorpus); out != want {
		t.Fatalf("readmission output diverges: %q != %q", out, want)
	}
	if snap.Ejections == 0 || snap.Readmissions == 0 {
		t.Fatalf("eject/readmit cycle not observed: %+v", snap)
	}
	if snap.LocalRuns != 0 {
		t.Fatalf("run degraded locally (%d) instead of readmitting", snap.LocalRuns)
	}
}

// TestDispatchGuards: sharding is refused for scripts that would not
// round-trip as standalone scripts, and for degenerate shard counts.
func TestDispatchGuards(t *testing.T) {
	runners := map[string]*fakeRunner{"a": {addr: "a"}, "b": {addr: "b"}}
	co := New(testConfig(runners, "a", "b"))
	if !scriptRoundTrips("sort", []string{"sort"}) || !scriptRoundTrips("uniq -c", []string{"uniq -c"}) {
		t.Fatal("plain stage specs must round-trip")
	}
	if !scriptRoundTrips("tr A-Z a-z | sort", []string{"tr A-Z a-z", "sort"}) {
		t.Fatal("a multi-stage segment script must round-trip")
	}
	if scriptRoundTrips("tr A-Z a-z | sort", []string{"tr A-Z a-z | sort"}) {
		t.Fatal("a script must parse back to exactly the segment's stages")
	}
	// A leading `cat FILE` re-parses as an input source, not a stage, on
	// the worker; dispatching it would execute nothing.
	if scriptRoundTrips("cat data.txt", []string{"cat data.txt"}) {
		t.Fatal("cat FILE must not round-trip as a dispatchable stage")
	}
	one := New(Config{Workers: []string{"a"}, Shards: 1,
		NewRunner: func(addr string) Runner { return runners["a"] }})
	for _, script := range []string{"sort", "uniq -c", "tr A-Z a-z | sort"} {
		seg := &pipeline.Segment{Stages: strings.Split(script, " | "), Script: script}
		if !co.dispatchable(seg) {
			t.Fatalf("parallel segment %q unexpectedly not dispatchable", script)
		}
		if one.dispatchable(seg) {
			t.Fatalf("segment %q dispatchable with a single shard", script)
		}
	}
}

// TestSegmentShipsOnce: a split exit joins `tr A-Z a-z` and `sort` into
// one segment, so each of the 3 shards crosses to a worker once, as the
// two-stage script — not once per stage — and the run still reports
// every member's chunks and byte volumes from the workers' per-stage
// figures, as a local Optimized run measures them.
func TestSegmentShipsOnce(t *testing.T) {
	rec := &fakeRunner{addr: "a"}
	co := New(testConfig(map[string]*fakeRunner{"a": rec}, "a"))
	plan := compilePlan(t, "tr A-Z a-z | sort")
	corpus := "Pear\napple\nPEAR\nfig\nApple\nkiwi\n"

	rep, snap, err := co.Execute(context.Background(), plan, kumquat.WithStdin(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, corpus); rep.Output != want {
		t.Fatalf("segment output diverges: %q != %q", rep.Output, want)
	}
	if len(rec.scripts) != 3 || snap.Shards != 3 || snap.RemoteRuns != 3 {
		t.Fatalf("runner saw %d calls %q (shards %d, remote %d), want 3 remote shards",
			len(rec.scripts), rec.scripts, snap.Shards, snap.RemoteRuns)
	}
	for _, script := range rec.scripts {
		if script != "tr A-Z a-z | sort" {
			t.Fatalf("shard shipped script %q, want the two-stage segment", script)
		}
	}
	local, err := plan.Execute(context.Background(), kumquat.WithParallelism(3),
		kumquat.WithStdin(strings.NewReader(corpus)))
	if err != nil {
		t.Fatal(err)
	}
	for i, sg := range rep.Stages {
		want := local.Stages[i]
		if sg.Chunks != 3 || sg.Chunks != want.Chunks || sg.BytesIn != want.BytesIn || sg.BytesOut != want.BytesOut {
			t.Errorf("stage %q: chunks %d, bytes %d→%d; local %d, %d→%d",
				sg.Spec, sg.Chunks, sg.BytesIn, sg.BytesOut, want.Chunks, want.BytesIn, want.BytesOut)
		}
	}
}

// TestSegmentFallbackNamesMember: when the workers are gone and the
// local fallback fails inside a segment, the error names the member
// stage that failed and its chunk, not the segment's joined script.
func TestSegmentFallbackNamesMember(t *testing.T) {
	boom := errors.New("down")
	fail := func(int) error { return boom }
	runners := map[string]*fakeRunner{"a": {addr: "a", fail: fail, probeErr: boom}}
	co := New(testConfig(runners, "a"))
	plan := compilePlan(t, "tr A-Z a-z | xargs cat")

	_, _, err := co.Execute(context.Background(), plan, kumquat.WithStdin(strings.NewReader("Missing-File\n")))
	if err == nil {
		t.Fatal("failing member produced no error")
	}
	msg := err.Error()
	if !strings.Contains(msg, `stage "xargs cat" chunk 0`) || !strings.Contains(msg, "local fallback") {
		t.Errorf("fallback error does not name the member stage: %v", err)
	}
	if strings.Contains(msg, "tr A-Z a-z | xargs cat") {
		t.Errorf("fallback error names the joined script: %v", err)
	}
	if sent := runners["a"].scripts; len(sent) == 0 || sent[0] != "tr A-Z a-z | xargs cat" {
		t.Errorf("worker was sent %q, want the two-stage segment", sent)
	}
}

// TestEmptyShardsStillRun: chunking pads with empty shards; they must
// still execute (wc -l turns "" into "0\n" — dropping the shard would
// corrupt the combine).
func TestEmptyShardsStillRun(t *testing.T) {
	runners := map[string]*fakeRunner{
		"a": {addr: "a"}, "b": {addr: "b"}, "c": {addr: "c"},
	}
	cfg := testConfig(runners, "a", "b", "c")
	cfg.Shards = 4 // more shards than the corpus has lines below
	co := New(cfg)
	plan := compilePlan(t, "wc -l")
	corpus := "x\ny\n"
	out, _, snap, err := executePlan(context.Background(), co, plan, corpus)
	if err != nil {
		t.Fatal(err)
	}
	if want := serialRun(t, plan, corpus); out != want {
		t.Fatalf("padded-shard output = %q, want %q", out, want)
	}
	if got := snap.Shards; got != 4 {
		t.Fatalf("dispatched %d shards, want 4 (empty shards must run)", got)
	}
}
