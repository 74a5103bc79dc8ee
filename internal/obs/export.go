package obs

import (
	"encoding/json"
	"sort"
)

// ChromeEvent is one entry of the Chrome trace-event JSON format (the
// format chrome://tracing and Perfetto open directly). Spans export as
// "X" complete events, span events as "i" instants, and process labels
// as "M" metadata events.
type ChromeEvent struct {
	// Name labels the event; Ph is the event phase ("X", "i", "M").
	Name string `json:"name"`
	Ph   string `json:"ph"`
	// Ts is the event start in microseconds; Dur the duration of "X"
	// events in microseconds.
	Ts  int64 `json:"ts"`
	Dur int64 `json:"dur,omitempty"`
	// Pid and Tid place the event: one pid per process label, one tid
	// per nesting lane within it.
	Pid int `json:"pid"`
	Tid int `json:"tid"`
	// Cat is the event category; S is the instant-event scope ("t").
	Cat string `json:"cat,omitempty"`
	S   string `json:"s,omitempty"`
	// Args carries the span/event annotations.
	Args map[string]string `json:"args,omitempty"`
}

// ChromeFile is the top-level Chrome trace-event JSON document.
type ChromeFile struct {
	// TraceEvents holds the flattened event list.
	TraceEvents []ChromeEvent `json:"traceEvents"`
	// DisplayTimeUnit selects the viewer's time unit.
	DisplayTimeUnit string `json:"displayTimeUnit"`
}

// ChromeTrace exports the trace in the Chrome trace-event JSON format.
// Each distinct span Proc becomes one process (with a process_name
// metadata event); within a process, spans are laid out greedily onto
// nesting lanes (tids) so that every lane's events either nest by time
// containment or are disjoint — the invariant the viewer's flame
// rendering needs. Span events export as thread-scoped instants on the
// owning span's lane.
func (td *TraceData) ChromeTrace() ([]byte, error) {
	f := &ChromeFile{DisplayTimeUnit: "ms", TraceEvents: []ChromeEvent{}}

	// Assign pids per process label, in first-appearance order.
	pids := map[string]int{}
	var procs []string
	for _, sp := range td.Spans {
		if _, ok := pids[sp.Proc]; !ok {
			pids[sp.Proc] = len(pids) + 1
			procs = append(procs, sp.Proc)
		}
	}
	for _, proc := range procs {
		name := proc
		if name == "" {
			name = "kumquat"
		}
		f.TraceEvents = append(f.TraceEvents, ChromeEvent{
			Name: "process_name", Ph: "M", Pid: pids[proc], Tid: 0,
			Args: map[string]string{"name": name},
		})
	}

	// Lay spans onto lanes per process: sorted by start (longer first on
	// ties), a span joins the first lane whose open-interval stack it
	// nests into (or that has fully drained), else opens a new lane.
	type lane struct{ ends []int64 } // stack of open end times, innermost last
	lanes := map[string][]*lane{}
	laneOf := make(map[string]int, len(td.Spans)) // span id → tid
	order := make([]int, len(td.Spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		sa, sb := td.Spans[order[a]], td.Spans[order[b]]
		if sa.StartUS != sb.StartUS {
			return sa.StartUS < sb.StartUS
		}
		return sa.DurUS > sb.DurUS
	})
	for _, i := range order {
		sp := td.Spans[i]
		end := sp.StartUS + sp.DurUS
		ls := lanes[sp.Proc]
		tid := -1
		for li, l := range ls {
			for len(l.ends) > 0 && l.ends[len(l.ends)-1] <= sp.StartUS {
				l.ends = l.ends[:len(l.ends)-1]
			}
			if len(l.ends) == 0 || end <= l.ends[len(l.ends)-1] {
				l.ends = append(l.ends, end)
				tid = li + 1
				break
			}
		}
		if tid < 0 {
			lanes[sp.Proc] = append(ls, &lane{ends: []int64{end}})
			tid = len(lanes[sp.Proc])
		}
		laneOf[sp.SpanID] = tid
	}

	for _, sp := range td.Spans {
		ev := ChromeEvent{
			Name: sp.Name, Ph: "X", Cat: "kumquat",
			Ts: sp.StartUS, Dur: sp.DurUS,
			Pid: pids[sp.Proc], Tid: laneOf[sp.SpanID],
		}
		if len(sp.Attrs) > 0 || sp.ParentID != "" {
			ev.Args = map[string]string{}
			for _, a := range sp.Attrs {
				ev.Args[a.Key] = a.Value
			}
			ev.Args["span_id"] = sp.SpanID
			if sp.ParentID != "" {
				ev.Args["parent_id"] = sp.ParentID
			}
		}
		f.TraceEvents = append(f.TraceEvents, ev)
		for _, e := range sp.Events {
			ie := ChromeEvent{
				Name: e.Name, Ph: "i", Cat: "kumquat", S: "t",
				Ts: e.AtUS, Pid: pids[sp.Proc], Tid: laneOf[sp.SpanID],
			}
			if len(e.Attrs) > 0 {
				ie.Args = map[string]string{}
				for _, a := range e.Attrs {
					ie.Args[a.Key] = a.Value
				}
			}
			f.TraceEvents = append(f.TraceEvents, ie)
		}
	}
	return json.Marshal(f)
}
