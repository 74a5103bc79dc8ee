package server_test

import (
	"context"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"kumquat"
	"kumquat/internal/server"
	"kumquat/internal/server/client"
)

// TestReadyzDrainSplit: readiness flips to 503 when the drain starts
// while liveness stays 200 — the probe split load balancers need to
// route around a draining daemon without killing it.
func TestReadyzDrainSplit(t *testing.T) {
	srv, c := newTestServer(t, server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	ctx := context.Background()
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz before drain: %v", err)
	}
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("readyz before drain: %v", err)
	}

	srv.SetDraining(true)
	if err := c.Healthz(ctx); err != nil {
		t.Fatalf("healthz during drain must stay 200: %v", err)
	}
	if err := c.Readyz(ctx); err == nil {
		t.Fatal("readyz during drain must fail")
	}

	srv.SetDraining(false)
	if err := c.Readyz(ctx); err != nil {
		t.Fatalf("readyz after drain cleared: %v", err)
	}
}

// TestDrainCompletesActiveStream: a SIGTERM-style graceful shutdown lets
// an in-flight execute stream finish — the client reads the full output
// and the report trailer even though Shutdown was called mid-request.
func TestDrainCompletesActiveStream(t *testing.T) {
	srv := server.New(server.Config{SynthOptions: kumquat.Options{Seed: 1}})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	var serving sync.WaitGroup
	serving.Add(1)
	go func() {
		defer serving.Done()
		hs.Serve(ln) //nolint:errcheck // closed by Shutdown below
	}()
	defer serving.Wait()
	defer hs.Close() //nolint:errcheck // idempotent backstop after Shutdown
	c := client.New("http://" + ln.Addr().String())

	// A body that takes a moment: big enough for real work, so Shutdown
	// overlaps the stream with high probability.
	input := strings.Repeat("pear\napple\nfig\n", 20000)
	type result struct {
		out string
		err error
	}
	resc := make(chan result, 1)
	go func() {
		var out strings.Builder
		_, err := c.Execute(context.Background(), "sort | uniq -c | sort -rn",
			client.ExecuteOptions{K: 4}, strings.NewReader(input), &out)
		resc <- result{out.String(), err}
	}()

	// Give the request a beat to be admitted, then drain.
	time.Sleep(50 * time.Millisecond)
	srv.SetDraining(true)
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := hs.Shutdown(shutdownCtx); err != nil {
		t.Fatalf("graceful shutdown did not complete: %v", err)
	}

	r := <-resc
	if r.err != nil {
		t.Fatalf("in-flight execute severed by drain: %v", r.err)
	}
	sys := kumquat.New(kumquat.NewEnv())
	plan, err := sys.Parallelize(context.Background(), "sort | uniq -c | sort -rn\n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := plan.Execute(context.Background(),
		kumquat.WithStdin(strings.NewReader(input)))
	if err != nil {
		t.Fatal(err)
	}
	if r.out != want.Output {
		t.Fatalf("drained stream output corrupted: %d bytes vs %d", len(r.out), len(want.Output))
	}
}
