package obs

import (
	"context"
	"encoding/json"
	"testing"
)

// parseChromeTrace decodes an exported Chrome trace-event document.
func parseChromeTrace(t *testing.T, data []byte) *ChromeFile {
	t.Helper()
	var f ChromeFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatalf("parsing chrome trace: %v", err)
	}
	return &f
}

func TestChromeTraceRoundTrip(t *testing.T) {
	tr := NewTracer(4, "coordinator")
	ctx, root := tr.StartTrace(context.Background(), "execute")
	root.Attr("mode", "optimized")
	cctx, stage := StartSpan(ctx, "stage")
	stage.EventAttr("dispatch", "worker", "w1")
	_, comb := StartSpan(cctx, "combine")
	comb.End()
	stage.End()
	root.End()

	td, ok := tr.Trace(root.SpanContext().TraceID)
	if !ok {
		t.Fatal("trace not retrievable")
	}
	data, err := td.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	f := parseChromeTrace(t, data)
	if f.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", f.DisplayTimeUnit)
	}

	var metas, spans, instants int
	byName := map[string]ChromeEvent{}
	for _, ev := range f.TraceEvents {
		switch ev.Ph {
		case "M":
			metas++
			if ev.Name != "process_name" || ev.Args["name"] != "coordinator" {
				t.Errorf("bad metadata event %+v", ev)
			}
		case "X":
			spans++
			byName[ev.Name] = ev
		case "i":
			instants++
			if ev.S != "t" || ev.Args["worker"] != "w1" {
				t.Errorf("bad instant event %+v", ev)
			}
		default:
			t.Errorf("unexpected phase %q", ev.Ph)
		}
	}
	if metas != 1 || spans != 3 || instants != 1 {
		t.Fatalf("got %d metadata / %d span / %d instant events, want 1/3/1", metas, spans, instants)
	}
	rootEv, stageEv, combEv := byName["execute"], byName["stage"], byName["combine"]
	if rootEv.Args["mode"] != "optimized" {
		t.Errorf("root args missing mode: %+v", rootEv.Args)
	}
	if stageEv.Args["parent_id"] != rootEv.Args["span_id"] {
		t.Errorf("stage parent %q != root span %q", stageEv.Args["parent_id"], rootEv.Args["span_id"])
	}
	// All three spans nest by containment, so they share one lane.
	if rootEv.Tid != stageEv.Tid || stageEv.Tid != combEv.Tid {
		t.Errorf("nested spans split across lanes: %d/%d/%d", rootEv.Tid, stageEv.Tid, combEv.Tid)
	}
	if combEv.Ts < stageEv.Ts || stageEv.Ts < rootEv.Ts {
		t.Errorf("span starts out of order: %d/%d/%d", rootEv.Ts, stageEv.Ts, combEv.Ts)
	}
}

func TestChromeTraceLanesForOverlap(t *testing.T) {
	// Two sibling spans that overlap in time cannot share a lane; a
	// third that nests inside the first can.
	td := &TraceData{
		TraceID: "t",
		Spans: []SpanRecord{
			{TraceID: "t", SpanID: "a", Name: "shard-0", Proc: "coord", StartUS: 0, DurUS: 100},
			{TraceID: "t", SpanID: "b", Name: "shard-1", Proc: "coord", StartUS: 50, DurUS: 100},
			{TraceID: "t", SpanID: "c", Name: "rpc", ParentID: "a", Proc: "coord", StartUS: 10, DurUS: 20},
		},
	}
	data, err := td.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	f := parseChromeTrace(t, data)
	tids := map[string]int{}
	for _, ev := range f.TraceEvents {
		if ev.Ph == "X" {
			tids[ev.Name] = ev.Tid
		}
	}
	if tids["shard-0"] == tids["shard-1"] {
		t.Errorf("overlapping siblings share lane %d", tids["shard-0"])
	}
	if tids["rpc"] != tids["shard-0"] {
		t.Errorf("nested span on lane %d, parent on %d", tids["rpc"], tids["shard-0"])
	}
}

func TestChromeTraceEmptyProcDefaultsName(t *testing.T) {
	td := &TraceData{TraceID: "t", Spans: []SpanRecord{{TraceID: "t", SpanID: "a", Name: "run", StartUS: 0, DurUS: 1}}}
	data, err := td.ChromeTrace()
	if err != nil {
		t.Fatalf("ChromeTrace: %v", err)
	}
	f := parseChromeTrace(t, data)
	var found bool
	for _, ev := range f.TraceEvents {
		if ev.Ph == "M" && ev.Args["name"] == "kumquat" {
			found = true
		}
	}
	if !found {
		t.Error("empty proc did not default to kumquat process name")
	}
}
