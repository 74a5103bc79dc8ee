package server_test

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"runtime"
	"testing"

	"kumquat"
	"kumquat/internal/server"
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
