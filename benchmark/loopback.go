package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"kumquat/internal/server/client"
)

// node is one in-process daemon on a loopback listener.
type node struct {
	hs      *http.Server
	url     string
	serving sync.WaitGroup
}

// bootNode serves handler on 127.0.0.1:0.
func bootNode(handler http.Handler) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	n := &node{hs: &http.Server{Handler: handler}, url: "http://" + ln.Addr().String()}
	n.serving.Add(1)
	go func() {
		defer n.serving.Done()
		n.hs.Serve(ln) //nolint:errcheck // ends with ErrServerClosed on stop
	}()
	return n, nil
}

// stop shuts the daemon down and waits for its serve loop to end.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	err := n.hs.Shutdown(ctx)
	if err != nil {
		err = n.hs.Close()
	}
	n.serving.Wait()
	return err
}

// newClient returns a typed client over at most conns connections, with
// the transport to close when done.
func newClient(url string, conns int) (*client.Client, *http.Transport) {
	tr := &http.Transport{MaxConnsPerHost: conns, MaxIdleConnsPerHost: conns, IdleConnTimeout: time.Minute}
	return client.New(url, client.WithHTTPClient(&http.Client{Transport: tr})), tr
}

// promValues sums every sample of a Prometheus text exposition whose
// series name is `name` and whose label set contains `label` ("" = any).
func promValues(text, name, label string) float64 {
	sum := 0.0
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, name)
		if !ok || rest == "" || (rest[0] != ' ' && rest[0] != '{') {
			continue
		}
		if label != "" && !strings.Contains(rest, label) {
			continue
		}
		fields := strings.Fields(rest)
		if v, err := strconv.ParseFloat(fields[len(fields)-1], 64); err == nil {
			sum += v
		}
	}
	return sum
}
