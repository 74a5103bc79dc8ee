// Package obs is kumquat's observability plane: a zero-dependency,
// context-carried span tracer with W3C-style cross-process propagation
// and a Chrome trace-event exporter, so one slow request can be read as
// a causally-linked timeline across synth → plan → exec → combine →
// shard dispatch, stitched across coordinator and workers.
//
// The design axis is a strictly zero-overhead disabled path: every Span
// method is safe on a nil receiver and returns before any formatting or
// locking, StartSpan on an untraced context allocates nothing, and the
// instrumentation sites in the executors' hot loops guard any
// attribute-value construction behind Span.Enabled. A build without a
// Tracer in the context pays one pointer-typed context lookup per
// instrumented call and nothing else — pinned by
// TestTraceDisabledAllocations.
//
// Traces live in a bounded in-memory ring on the Tracer; a finished
// trace is retrievable until ring churn evicts it. Cross-process
// stitching works record-wise: a worker serving a traceparent-carrying
// request records its spans under the remote trace ID and ships them
// back as SpanRecords; the caller merges them into its own trace object
// (Tracer.Merge), deduplicated by span ID.
package obs

import (
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"
	"time"
)

// TraceID identifies one end-to-end trace (16 random bytes, rendered as
// 32 lowercase hex digits — the W3C trace-context width).
type TraceID [16]byte

// String renders the trace ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// ParseTraceID parses a 32-hex-digit trace ID.
func ParseTraceID(s string) (TraceID, error) {
	var t TraceID
	if len(s) != 32 {
		return t, fmt.Errorf("obs: trace id %q: want 32 hex digits", s)
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return t, fmt.Errorf("obs: trace id %q: %v", s, err)
	}
	if t.IsZero() {
		return t, fmt.Errorf("obs: trace id %q: all-zero ids are invalid", s)
	}
	return t, nil
}

// SpanID identifies one span within a trace (8 random bytes, 16 hex
// digits).
type SpanID [8]byte

// String renders the span ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// SpanContext is the propagated slice of a span: its trace and its own
// ID — what crosses a process boundary in a traceparent header.
type SpanContext struct {
	// TraceID is the end-to-end trace the span belongs to.
	TraceID TraceID
	// SpanID is the span's own ID (the parent of whatever the remote
	// side starts).
	SpanID SpanID
}

// Traceparent renders the context in the W3C trace-context header form
// ("00-<trace-id>-<span-id>-01").
func (sc SpanContext) Traceparent() string {
	return "00-" + sc.TraceID.String() + "-" + sc.SpanID.String() + "-01"
}

// ParseTraceparent parses a W3C traceparent header. Only version 00 is
// accepted; the sampled flag is ignored (kumquat traces whenever the
// header is present). Reports ok=false on any malformed input — a bad
// header disables stitching for the request, it never fails it.
func ParseTraceparent(h string) (SpanContext, bool) {
	var sc SpanContext
	// 2 (version) + 1 + 32 (trace id) + 1 + 16 (span id) + 1 + 2 (flags)
	if len(h) != 55 || h[:3] != "00-" || h[35] != '-' || h[52] != '-' {
		return sc, false
	}
	tid, err := ParseTraceID(h[3:35])
	if err != nil {
		return sc, false
	}
	if _, err := hex.Decode(sc.SpanID[:], []byte(h[36:52])); err != nil || sc.SpanID.IsZero() {
		return sc, false
	}
	sc.TraceID = tid
	return sc, true
}

// Attr is one key/value annotation on a span or event. Values are
// strings; AttrInt/EventInt format integers at record time so disabled
// call sites never pay for the conversion.
type Attr struct {
	// Key names the annotation.
	Key string `json:"key"`
	// Value is the annotation's rendered value.
	Value string `json:"value"`
}

// EventRecord is one point-in-time annotation inside a span — the wire
// and storage form of Span.Event.
type EventRecord struct {
	// Name labels the event (e.g. "retry", "speculate").
	Name string `json:"name"`
	// AtUS is the event time in microseconds since the Unix epoch.
	AtUS int64 `json:"at_us"`
	// Attrs carries the event's annotations, if any.
	Attrs []Attr `json:"attrs,omitempty"`
}

// SpanRecord is one finished span's wire and storage form: what a trace
// object holds, what a worker ships back in the trace trailer, and what
// GET /v1/traces/{id}?format=raw returns.
type SpanRecord struct {
	// TraceID and SpanID identify the span; ParentID is the parent
	// span's ID ("" for a local root).
	TraceID  string `json:"trace_id"`
	SpanID   string `json:"span_id"`
	ParentID string `json:"parent_id,omitempty"`
	// Name is the span's operation name.
	Name string `json:"name"`
	// Proc labels the recording process (e.g. "kumquatd@:9917"), so
	// stitched traces keep coordinator and worker spans apart.
	Proc string `json:"proc,omitempty"`
	// StartUS is the span start in microseconds since the Unix epoch;
	// DurUS is the span duration in microseconds.
	StartUS int64 `json:"start_us"`
	DurUS   int64 `json:"dur_us"`
	// Attrs carries the span's annotations.
	Attrs []Attr `json:"attrs,omitempty"`
	// Events carries the span's point-in-time annotations.
	Events []EventRecord `json:"events,omitempty"`
}

// TraceData is one trace's retrievable snapshot: every recorded span,
// local and merged-remote, sorted by start time.
type TraceData struct {
	// TraceID identifies the trace; Name is its root span's name.
	TraceID string `json:"trace_id"`
	Name    string `json:"name"`
	// Spans holds the recorded spans sorted by start time.
	Spans []SpanRecord `json:"spans"`
}

// trace is one trace's mutable record store. Spans append their record
// on End; remote records merge in deduplicated by span ID.
type trace struct {
	id   TraceID
	name string

	mu   sync.Mutex
	recs []SpanRecord
	seen map[string]bool // span IDs already recorded (dedup for Merge)
}

// add appends one finished span's record (first writer wins per span ID).
func (t *trace) add(rec SpanRecord) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.seen[rec.SpanID] {
		return
	}
	t.seen[rec.SpanID] = true
	t.recs = append(t.recs, rec)
}

// snapshot copies the trace into its retrievable form.
func (t *trace) snapshot() *TraceData {
	t.mu.Lock()
	spans := make([]SpanRecord, len(t.recs))
	copy(spans, t.recs)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].StartUS < spans[j].StartUS })
	return &TraceData{TraceID: t.id.String(), Name: t.name, Spans: spans}
}

// Tracer owns a bounded ring of recent traces. It is safe for
// concurrent use; a nil *Tracer is a valid disabled tracer (StartTrace
// and StartRemote return a nil span, Merge and Trace are no-ops).
type Tracer struct {
	proc string
	capn int

	mu     sync.Mutex
	traces []*trace // insertion order; oldest evicted past capn
	rng    *rand.Rand
}

// NewTracer builds a tracer that retains up to capacity recent traces
// (minimum 1), labeling every recorded span with proc so stitched
// traces keep processes apart.
func NewTracer(capacity int, proc string) *Tracer {
	if capacity < 1 {
		capacity = 1
	}
	return &Tracer{
		capn: capacity,
		proc: proc,
		rng:  rand.New(rand.NewSource(time.Now().UnixNano())),
	}
}

// randTraceID draws a fresh random trace ID; callers hold t.mu.
func (t *Tracer) randTraceID() TraceID {
	var id TraceID
	for id.IsZero() {
		t.rng.Read(id[:]) //nolint:errcheck // math/rand never fails
	}
	return id
}

// randSpanID draws a fresh random span ID; callers hold t.mu.
func (t *Tracer) randSpanID() SpanID {
	var id SpanID
	for id.IsZero() {
		t.rng.Read(id[:]) //nolint:errcheck // math/rand never fails
	}
	return id
}

// insert registers a new trace object, evicting the oldest past capacity.
func (t *Tracer) insert(tr *trace) {
	t.traces = append(t.traces, tr)
	if n := len(t.traces) - t.capn; n > 0 {
		copy(t.traces, t.traces[n:])
		t.traces = t.traces[:t.capn]
	}
}

// find returns the newest trace object with the given ID, or nil.
// Callers hold t.mu.
func (t *Tracer) find(id TraceID) *trace {
	for i := len(t.traces) - 1; i >= 0; i-- {
		if t.traces[i].id == id {
			return t.traces[i]
		}
	}
	return nil
}

// StartTrace begins a new trace rooted at a span named name and returns
// the derived context carrying the root span. On a nil tracer it
// returns ctx unchanged and a nil (disabled) span.
func (t *Tracer) StartTrace(ctx context.Context, name string) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	t.mu.Lock()
	tr := &trace{id: t.randTraceID(), name: name, seen: map[string]bool{}}
	sid := t.randSpanID()
	t.insert(tr)
	t.mu.Unlock()
	sp := &Span{tracer: t, tr: tr, name: name, sc: SpanContext{TraceID: tr.id, SpanID: sid}, start: time.Now()}
	return contextWithSpan(ctx, sp), sp
}

// StartRemote joins a trace propagated from another process: the new
// span records under the remote trace ID with the remote span as its
// parent, in a private trace object (concurrent requests of the same
// remote trace never see each other's spans — each ships back exactly
// its own). On a nil tracer it returns ctx unchanged and a nil span.
func (t *Tracer) StartRemote(ctx context.Context, name string, sc SpanContext) (context.Context, *Span) {
	if t == nil || sc.TraceID.IsZero() {
		return ctx, nil
	}
	t.mu.Lock()
	tr := &trace{id: sc.TraceID, name: name, seen: map[string]bool{}}
	sid := t.randSpanID()
	t.insert(tr)
	t.mu.Unlock()
	sp := &Span{
		tracer: t, tr: tr, name: name,
		sc:     SpanContext{TraceID: sc.TraceID, SpanID: sid},
		parent: sc.SpanID,
		start:  time.Now(),
	}
	return contextWithSpan(ctx, sp), sp
}

// Merge stitches remotely recorded span records into the newest local
// trace object with a matching trace ID, deduplicated by span ID.
// Records for unknown traces are dropped (the trace was evicted or the
// records are stale).
func (t *Tracer) Merge(recs []SpanRecord) {
	if t == nil || len(recs) == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, rec := range recs {
		id, err := ParseTraceID(rec.TraceID)
		if err != nil {
			continue
		}
		if tr := t.find(id); tr != nil {
			tr.add(rec)
		}
	}
}

// Trace snapshots the newest retained trace with the given ID.
func (t *Tracer) Trace(id TraceID) (*TraceData, bool) {
	if t == nil {
		return nil, false
	}
	t.mu.Lock()
	tr := t.find(id)
	t.mu.Unlock()
	if tr == nil {
		return nil, false
	}
	return tr.snapshot(), true
}

// Span is one timed operation in a trace. A nil *Span is the disabled
// span: every method returns immediately, so instrumentation sites need
// no nil checks — only attribute values whose construction itself costs
// (string joins, error rendering) should hide behind Enabled.
type Span struct {
	tracer *Tracer
	tr     *trace
	name   string
	sc     SpanContext
	parent SpanID
	start  time.Time

	mu     sync.Mutex
	attrs  []Attr
	events []EventRecord
	ended  bool
}

// Enabled reports whether the span records anything — the guard for
// call sites whose attribute values are costly to build.
func (s *Span) Enabled() bool { return s != nil }

// SpanContext returns the span's propagation context (zero on a
// disabled span).
func (s *Span) SpanContext() SpanContext {
	if s == nil {
		return SpanContext{}
	}
	return s.sc
}

// Tracer returns the tracer that owns the span (nil on a disabled span).
func (s *Span) Tracer() *Tracer {
	if s == nil {
		return nil
	}
	return s.tracer
}

// Attr annotates the span with a key/value pair.
func (s *Span) Attr(key, value string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, Attr{Key: key, Value: value})
	s.mu.Unlock()
}

// AttrInt annotates the span with an integer value, formatted only when
// the span is enabled.
func (s *Span) AttrInt(key string, v int64) {
	if s == nil {
		return
	}
	s.Attr(key, strconv.FormatInt(v, 10))
}

// Event records a point-in-time annotation (e.g. "retry").
func (s *Span) Event(name string) {
	if s == nil {
		return
	}
	s.event(EventRecord{Name: name, AtUS: time.Now().UnixMicro()})
}

// EventAttr records an event carrying one key/value annotation.
func (s *Span) EventAttr(name, key, value string) {
	if s == nil {
		return
	}
	s.event(EventRecord{Name: name, AtUS: time.Now().UnixMicro(), Attrs: []Attr{{Key: key, Value: value}}})
}

// EventInt records an event carrying one integer annotation, formatted
// only when the span is enabled.
func (s *Span) EventInt(name, key string, v int64) {
	if s == nil {
		return
	}
	s.EventAttr(name, key, strconv.FormatInt(v, 10))
}

// event appends under the span lock (shard spans take events from
// concurrent attempt goroutines).
func (s *Span) event(e EventRecord) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

// startChild begins a child span of s. Most call sites use the
// package-level StartSpan, which threads the parent through the context.
func (s *Span) startChild(name string) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	sid := t.randSpanID()
	t.mu.Unlock()
	return &Span{
		tracer: t, tr: s.tr, name: name,
		sc:     SpanContext{TraceID: s.sc.TraceID, SpanID: sid},
		parent: s.sc.SpanID,
		start:  time.Now(),
	}
}

// End finishes the span and appends its record to the owning trace.
// Idempotent; a second End is a no-op.
func (s *Span) End() {
	if s == nil {
		return
	}
	end := time.Now()
	s.mu.Lock()
	if s.ended {
		s.mu.Unlock()
		return
	}
	s.ended = true
	rec := SpanRecord{
		TraceID: s.sc.TraceID.String(),
		SpanID:  s.sc.SpanID.String(),
		Name:    s.name,
		Proc:    s.tracer.proc,
		StartUS: s.start.UnixMicro(),
		DurUS:   end.Sub(s.start).Microseconds(),
		Attrs:   s.attrs,
		Events:  s.events,
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.mu.Unlock()
	s.tr.add(rec)
}

// Records snapshots every span recorded so far in the span's trace
// object — what a worker ships back in the trace trailer after ending
// its root span. Nil on a disabled span.
func (s *Span) Records() []SpanRecord {
	if s == nil {
		return nil
	}
	s.tr.mu.Lock()
	defer s.tr.mu.Unlock()
	out := make([]SpanRecord, len(s.tr.recs))
	copy(out, s.tr.recs)
	return out
}

// spanKey is the context key carrying the current span. An empty struct
// boxes without allocating, which keeps the disabled FromContext path
// allocation-free.
type spanKey struct{}

// contextWithSpan returns a context carrying sp as the current span. A
// nil span returns ctx unchanged.
func contextWithSpan(ctx context.Context, sp *Span) context.Context {
	if sp == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, sp)
}

// FromContext returns the context's current span, or nil (the disabled
// span) when the context carries none. Allocation-free either way.
func FromContext(ctx context.Context) *Span {
	sp, _ := ctx.Value(spanKey{}).(*Span)
	return sp
}

// StartSpan begins a child of the context's current span and returns
// the derived context carrying it. On an untraced context it returns
// ctx unchanged and a nil span without allocating — the zero-overhead
// disabled path every instrumentation site rides.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	parent := FromContext(ctx)
	if parent == nil {
		return ctx, nil
	}
	sp := parent.startChild(name)
	return contextWithSpan(ctx, sp), sp
}
