package server_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"

	"kumquat"
	"kumquat/internal/cluster"
	"kumquat/internal/server"
	"kumquat/internal/server/api"
)

// rawExecute posts script to /v1/execute over a raw connection that
// declares contentLength but sends only body, then half-closes. It
// returns the status and the bytes the process allocated until the
// response headers arrived — the server's handling included, since it
// runs in this process.
func rawExecute(t *testing.T, addr, script string, contentLength int64, body string) (int, uint64) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fmt.Fprintf(conn, "POST /v1/execute?%s HTTP/1.1\r\nHost: kumquat\r\nContent-Length: %d\r\n\r\n%s",
		url.Values{"script": {script}}.Encode(), contentLength, body)
	conn.(*net.TCPConn).CloseWrite() //nolint:errcheck // a failed half-close shows as a stalled read
	resp, err := http.ReadResponse(bufio.NewReader(conn), nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	io.Copy(io.Discard, resp.Body) //nolint:errcheck // only the status matters
	resp.Body.Close()
	return resp.StatusCode, after.TotalAlloc - before.TotalAlloc
}

// TestBodyPresizeBounds pins what a declared Content-Length may cost
// before the body arrives: over MaxBodyBytes it is a 413 with no buffer
// allocated (even for a stdin-bound body, which otherwise streams); within
// the limit the up-front buffer is at most the declared length; with no
// limit configured a huge declared length reserves a bounded buffer; and
// a body shorter than it declared fails the read as a 400.
func TestBodyPresizeBounds(t *testing.T) {
	const slack = 512 << 10 // planning and HTTP handling of one request
	for _, tc := range []struct {
		name     string
		maxBody  int64
		script   string
		declared int64
		want     int
		maxAlloc uint64
	}{
		{"declared over the limit", 1 << 20, "sort", 64 << 20, http.StatusRequestEntityTooLarge, slack},
		{"short body within the limit", 8 << 20, "cat in.txt | sort", 2 << 20, http.StatusBadRequest, 2<<20 + slack},
		{"no limit, huge declared length", -1, "cat in.txt | sort", 1 << 40, http.StatusBadRequest, 64<<20 + slack},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}, MaxBodyBytes: tc.maxBody})
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			addr := ts.Listener.Addr().String()
			// Warm the script's plan so the measured request only parses.
			if code, _ := rawExecute(t, addr, tc.script, 4, "b\na\n"); code != http.StatusOK {
				t.Fatalf("warm-up status %d", code)
			}
			code, alloc := rawExecute(t, addr, tc.script, tc.declared, "b\na\n")
			if code != tc.want {
				t.Fatalf("status %d, want %d", code, tc.want)
			}
			if alloc > tc.maxAlloc {
				t.Errorf("declared %d bytes: allocated %d, want ≤ %d", tc.declared, alloc, tc.maxAlloc)
			}
		})
	}
}

// lockedBuffer is a bytes.Buffer safe for the server's concurrent
// ErrorLog writes.
type lockedBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (l *lockedBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.Write(p)
}

func (l *lockedBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.b.String()
}

// chunked hides a body's length, so the client sends it chunked and the
// server learns it is over the limit only by reading it.
func chunked(s string) io.Reader { return io.MultiReader(strings.NewReader(s)) }

// TestStreamedBodyOverLimit: a stdin body that runs past MaxBodyBytes
// while it streams fails the run with an error trailer, and the server
// learns that the limit tripped. It must neither read the body from two
// goroutines (net/http panics "invalid concurrent Body.Read call") nor
// keep a connection alive whose unread body it has lost track of: the
// client's next request must still be served.
func TestStreamedBodyOverLimit(t *testing.T) {
	var errLog lockedBuffer
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}, MaxBodyBytes: 64})
	ts := httptest.NewUnstartedServer(srv.Handler())
	ts.Config.ErrorLog = log.New(&errLog, "", 0)
	ts.Start()
	defer ts.Close()
	hc := ts.Client()
	post := func(script string, body io.Reader) (*http.Response, string) {
		t.Helper()
		resp, err := hc.Post(ts.URL+"/v1/execute?"+url.Values{"script": {script}}.Encode(), "text/plain", body)
		if err != nil {
			t.Fatalf("%q: %v", script, err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%q: reading response: %v", script, err)
		}
		return resp, string(out)
	}
	for _, script := range []string{"sort", "tr a-z A-Z"} {
		resp, _ := post(script, chunked(strings.Repeat("x", 399)))
		if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Trailer.Get(api.ErrorTrailer), "too large") {
			t.Errorf("%q over the limit: status %d, error trailer %q; want 200 and the limit error",
				script, resp.StatusCode, resp.Trailer.Get(api.ErrorTrailer))
		}
		if resp, out := post("sort", strings.NewReader("b\na\n")); resp.StatusCode != http.StatusOK || out != "a\nb\n" {
			t.Errorf("request after %q's over-limit body: status %d, output %q", script, resp.StatusCode, out)
		}
	}
	ts.Close()
	if strings.Contains(errLog.String(), "panic") {
		t.Errorf("server error log:\n%s", errLog.String())
	}
}

// TestBodyLimit pins Config.MaxBodyBytes on every binding of a request
// body. A JSON body past the limit answers 413. An execute body binds one
// of four ways: streamed into stdin; read whole into a `cat FILE` source;
// read whole for the cluster; read whole because the writer cannot go
// full duplex. Within the limit, every binding gives the same output and
// report. Past it, in a chunked body that declares no length, every
// binding that reads the body whole answers one 413 before it declares a
// trailer; the streamed one has answered 200 by then, so its error
// travels as a trailer.
func TestBodyLimit(t *testing.T) {
	cfg := server.Config{SynthOptions: kumquat.Options{Seed: 1}, MaxBodyBytes: 64}
	local := httptest.NewServer(server.New(cfg).Handler())
	defer local.Close()
	var workers []string
	for range 2 {
		ws := httptest.NewServer(server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}}).Handler())
		defer ws.Close()
		workers = append(workers, ws.URL)
	}
	cfg.Cluster = cluster.Config{Workers: workers, Shards: 2, SpeculateAfter: -1}
	coord := httptest.NewServer(server.New(cfg).Handler())
	defer coord.Close()
	hc := local.Client()

	for _, tc := range []struct {
		name, body string
		want       int
	}{
		{"oversize JSON", `{"spec": "` + strings.Repeat(" ", 64) + `sort"}`, http.StatusRequestEntityTooLarge},
		{"in-limit JSON", `{"spec": "sort"}`, http.StatusOK},
	} {
		resp, err := hc.Post(local.URL+"/v1/synthesize", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d", tc.name, resp.StatusCode, tc.want)
		}
	}

	// execute posts body through one binding: over HTTP to base, or, with
	// no base, to the handler through a ResponseRecorder, which cannot go
	// full duplex.
	type binding struct{ name, base, script, cluster string }
	execute := func(b binding, body io.Reader) (*http.Response, string) {
		t.Helper()
		q := url.Values{"script": {b.script}, "k": {"2"}, "cluster": {b.cluster}}
		target := "/v1/execute?" + q.Encode()
		var resp *http.Response
		if b.base == "" {
			rec := httptest.NewRecorder()
			local.Config.Handler.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, target, body))
			resp = rec.Result()
		} else {
			var err error
			if resp, err = hc.Post(b.base+target, "text/plain", body); err != nil {
				t.Fatalf("%s: %v", b.name, err)
			}
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("%s: reading response: %v", b.name, err)
		}
		return resp, string(out)
	}
	streamed := binding{"streamed stdin", local.URL, "sort", "off"}
	whole := []binding{
		{"cat FILE", local.URL, "cat in.txt | sort", "off"},
		{"cluster", coord.URL, "sort", "on"},
		{"no full duplex", "", "sort", "off"},
	}

	const input = "pear\napple\nfig\nkiwi\n"
	var want *api.ExecuteReport
	var wantOut string
	for _, b := range append([]binding{streamed}, whole...) {
		resp, out := execute(b, chunked(input))
		if resp.StatusCode != http.StatusOK || resp.Trailer.Get(api.ErrorTrailer) != "" {
			t.Fatalf("%s in the limit: status %d, error %q %s", b.name, resp.StatusCode, resp.Trailer.Get(api.ErrorTrailer), out)
		}
		var rep api.ExecuteReport
		if err := json.Unmarshal([]byte(resp.Trailer.Get(api.ReportTrailer)), &rep); err != nil {
			t.Fatalf("%s: report trailer: %v", b.name, err)
		}
		normalizeReport(&rep)
		if want == nil {
			want, wantOut = &rep, out
			continue
		}
		if out != wantOut || !reflect.DeepEqual(&rep, want) {
			t.Errorf("%s: output %q, report %+v\nwant %q, %+v", b.name, out, rep, wantOut, *want)
		}
	}

	over := strings.Repeat("x\n", 200)
	resp, _ := execute(streamed, chunked(over))
	if resp.StatusCode != http.StatusOK || !strings.Contains(resp.Trailer.Get(api.ErrorTrailer), "request body too large") {
		t.Errorf("%s over the limit: status %d, error trailer %q; want 200 and the limit error",
			streamed.name, resp.StatusCode, resp.Trailer.Get(api.ErrorTrailer))
	}
	for _, b := range whole {
		resp, out := execute(b, chunked(over))
		var e api.ErrorResponse
		json.Unmarshal([]byte(out), &e) //nolint:errcheck // a non-JSON body shows as the empty message
		if resp.StatusCode != http.StatusRequestEntityTooLarge || e.Error != "reading request body: http: request body too large" {
			t.Errorf("%s over the limit: status %d, body %q; want 413 and the one limit message", b.name, resp.StatusCode, out)
		}
		if tr := resp.Header.Get("Trailer"); tr != "" || len(resp.Trailer) != 0 {
			t.Errorf("%s over the limit declared trailers %q %v", b.name, tr, resp.Trailer)
		}
	}
}

// normalizeReport clears what a clock, the dispatch plane or request
// order decide: walls, the cluster block, cache warmth.
func normalizeReport(rep *api.ExecuteReport) {
	rep.Cluster, rep.Wall = nil, 0
	rep.SynthCache = kumquat.SynthCacheStats{}
	for i := range rep.Stages {
		rep.Stages[i].Wall, rep.Stages[i].CombineWall = 0, 0
	}
	for i := range rep.Regions {
		rep.Regions[i].Wall, rep.Regions[i].CombineWall = 0, 0
	}
}
