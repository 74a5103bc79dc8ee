package faultinject

import (
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"
)

// backend returns an httptest server streaming a fixed body with a
// report trailer — the shape of a kumquatd execute response.
func backend(t *testing.T, body, report string) *httptest.Server {
	t.Helper()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Kumquat-Report")
		w.WriteHeader(http.StatusOK)
		io.WriteString(w, body) //nolint:errcheck
		if f, ok := w.(http.Flusher); ok {
			f.Flush()
		}
		w.Header().Set("X-Kumquat-Report", report)
	}))
	t.Cleanup(hs.Close)
	return hs
}

// proxyFor boots a proxy in front of a backend that deals only on every
// request, or walks the cycle from seed when only is empty.
func proxyFor(t *testing.T, target string, seed int64, only Fault) (*Proxy, *httptest.Server) {
	t.Helper()
	p, err := New(target, seed)
	if err != nil {
		t.Fatal(err)
	}
	p.only = only
	hs := httptest.NewServer(p)
	t.Cleanup(hs.Close)
	return p, hs
}

// longTrailerClient reads responses through a 64 KiB buffer, as the
// typed client does, so a trailer past Go's 4 KiB default still decodes.
var longTrailerClient = func() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.ReadBufferSize = 64 << 10
	return &http.Client{Transport: t}
}()

// TestPassThrough: with no fault dealt, body and trailers survive the
// proxy byte-for-byte.
func TestPassThrough(t *testing.T) {
	bs := backend(t, "hello\nworld\n", `{"ok":true}`)
	p, hs := proxyFor(t, bs.URL, 0, FaultNone)

	resp, err := http.Get(hs.URL + "/v1/execute?script=sort")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "hello\nworld\n" {
		t.Fatalf("body through proxy = %q", body)
	}
	if got := resp.Trailer.Get("X-Kumquat-Report"); got != `{"ok":true}` {
		t.Fatalf("trailer through proxy = %q", got)
	}
	if c := p.Counts(); len(c) != 1 || c[FaultNone] != 1 {
		t.Fatalf("pass-through counted as %v", c)
	}
}

// TestPassThroughLongTrailer: a report trailer longer than Go's default
// 4 KiB read buffer — a traced cold worker's span records ride beside
// it — crosses the proxy whole.
func TestPassThroughLongTrailer(t *testing.T) {
	report := `{"stages":[` + strings.Repeat(`{"spec":"sort","wall_ns":900000},`, 300) + `{}]}`
	if len(report) < 8<<10 {
		t.Fatalf("report of %d bytes does not pass the default trailer buffer", len(report))
	}
	bs := backend(t, "body\n", report)
	_, hs := proxyFor(t, bs.URL, 0, FaultNone)

	resp, err := longTrailerClient.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "body\n" {
		t.Fatalf("body through proxy = %q", body)
	}
	if got := resp.Trailer.Get("X-Kumquat-Report"); got != report {
		t.Fatalf("long trailer through proxy: got %d bytes, want %d", len(got), len(report))
	}
}

// TestUpstreamAbort: an upstream that dies mid-body reaches the client
// as a read error, not as a clean end of a shorter body.
func TestUpstreamAbort(t *testing.T) {
	bs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Trailer", "X-Kumquat-Report")
		io.WriteString(w, "partial\n") //nolint:errcheck
		w.(http.Flusher).Flush()
		panic(http.ErrAbortHandler)
	}))
	t.Cleanup(bs.Close)
	_, hs := proxyFor(t, bs.URL, 0, FaultNone)

	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if body, err := io.ReadAll(resp.Body); err == nil {
		t.Fatalf("aborted upstream read cleanly to EOF: %q", body)
	}
}

// TestReset: the connection dies before any response bytes.
func TestReset(t *testing.T) {
	bs := backend(t, "data\n", "{}")
	p, hs := proxyFor(t, bs.URL, 0, FaultReset)
	resp, err := http.Get(hs.URL)
	if err == nil {
		resp.Body.Close()
		t.Fatalf("reset fault produced a response: %v", resp.Status)
	}
	if p.Counts()[FaultReset] != 1 {
		t.Fatalf("reset not counted: %v", p.Counts())
	}
}

// TestTruncate: some body bytes arrive, then the stream dies mid-chunk.
func TestTruncate(t *testing.T) {
	bs := backend(t, strings.Repeat("x", 1000)+"\n", "{}")
	p, hs := proxyFor(t, bs.URL, 0, FaultTruncate)
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if _, err := io.ReadAll(resp.Body); err == nil {
		t.Fatal("truncated body read cleanly to EOF")
	}
	if p.Counts()[FaultTruncate] != 1 {
		t.Fatalf("truncate not counted: %v", p.Counts())
	}
}

// TestDropTrailer: the body completes but the report trailer is gone.
func TestDropTrailer(t *testing.T) {
	bs := backend(t, "done\n", `{"ok":true}`)
	p, hs := proxyFor(t, bs.URL, 0, FaultDropTrailer)
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "done\n" {
		t.Fatalf("body = %q", body)
	}
	if len(resp.Trailer) != 0 {
		t.Fatalf("trailers survived a drop-trailer fault: %v", resp.Trailer)
	}
	if p.Counts()[FaultDropTrailer] != 1 {
		t.Fatalf("drop-trailer not counted: %v", p.Counts())
	}
}

// TestErrorsAndBursts: 503s answer immediately; a proxy started at the
// cycle's 429 pair answers two requests in a row with 429 and a
// Retry-After hint.
func TestErrorsAndBursts(t *testing.T) {
	bs := backend(t, "x\n", "{}")
	_, hs503 := proxyFor(t, bs.URL, 0, FaultError503)
	resp, err := http.Get(hs503.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("503 fault answered %d", resp.StatusCode)
	}

	// A seed one cycle below the pair's entry starts the proxy there too.
	pair := slices.Index(cycle, FaultBusy429)
	p, hs429 := proxyFor(t, bs.URL, int64(pair-len(cycle)), "")
	for i := 0; i < 2; i++ {
		resp, err := http.Get(hs429.URL)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("request %d of the pair answered %d", i, resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Fatalf("429 without Retry-After on request %d", i)
		}
	}
	if got := p.Counts()[FaultBusy429]; got != 2 {
		t.Fatalf("429 pair counted %d", got)
	}
}

// TestStallCompletes: a stalled response is late but intact — the
// straggler shape that must trigger speculation, not failure.
func TestStallCompletes(t *testing.T) {
	bs := backend(t, "slow\n", `{"ok":true}`)
	p, hs := proxyFor(t, bs.URL, 0, FaultStall)
	start := time.Now()
	resp, err := http.Get(hs.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "slow\n" {
		t.Fatalf("stalled body = %q", body)
	}
	if got := resp.Trailer.Get("X-Kumquat-Report"); got != `{"ok":true}` {
		t.Fatalf("stalled trailer = %q", got)
	}
	if elapsed := time.Since(start); elapsed < stallFor {
		t.Fatalf("stall finished in %v, want at least %v", elapsed, stallFor)
	}
	if p.Counts()[FaultStall] != 1 {
		t.Fatalf("stall not counted: %v", p.Counts())
	}
}

// TestCycleInvariants pins what the chaos gate relies on: every fault
// kind fires, at least a fifth of requests meet a fault, the 429s come
// as one pair, and no four consecutive requests — wrapping around —
// meet three faults (a stall counts: its attempt loses to a duplicate),
// so the cycle alone never ejects a worker.
func TestCycleInvariants(t *testing.T) {
	kinds := []Fault{FaultReset, FaultStall, FaultTruncate, FaultDropTrailer, FaultError503, FaultBusy429}
	faults := 0
	for _, f := range cycle {
		if f != FaultNone {
			faults++
		}
	}
	for _, k := range kinds {
		if !slices.Contains(cycle, k) {
			t.Errorf("cycle never deals %s", k)
		}
	}
	if density := float64(faults) / float64(len(cycle)); density < 0.20 {
		t.Errorf("fault density %.2f, want at least 0.20", density)
	}
	n := len(cycle)
	var busy []int
	for i, f := range cycle {
		if f == FaultBusy429 {
			busy = append(busy, i)
		}
	}
	if len(busy) != 2 || ((busy[0]+1)%n != busy[1] && (busy[1]+1)%n != busy[0]) {
		t.Errorf("429s at entries %v, want one adjacent pair", busy)
	}
	for i := range cycle {
		hits := 0
		for j := 0; j < 4; j++ {
			if cycle[(i+j)%n] != FaultNone {
				hits++
			}
		}
		if hits >= 3 {
			t.Errorf("entries %d..%d (mod %d) deal %d faults", i, i+3, n, hits)
		}
	}
}
