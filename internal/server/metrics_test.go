package server

import (
	"strings"
	"testing"
	"time"
)

// TestMetricsExposition pins the Prometheus text rendering: counter
// labels, cumulative histogram buckets, sums and appended gauges.
func TestMetricsExposition(t *testing.T) {
	m := newMetrics()
	m.record("synthesize", 200, 150*time.Microsecond) // ≤ 0.00025 bucket
	m.record("synthesize", 200, 30*time.Millisecond)  // ≤ 0.05 bucket
	m.record("synthesize", 400, 50*time.Microsecond)
	m.record("execute", 200, 2*time.Second)

	m.observeShard(40 * time.Millisecond)
	m.observeShard(3 * time.Second)
	m.observeBackoff(80 * time.Millisecond)

	var b strings.Builder
	m.write(&b, []gauge{{"kumquatd_in_flight", "In-flight requests.", 3}}, true)
	out := b.String()

	for _, want := range []string{
		`kumquatd_requests_total{endpoint="execute",code="200"} 1`,
		`kumquatd_requests_total{endpoint="synthesize",code="200"} 2`,
		`kumquatd_requests_total{endpoint="synthesize",code="400"} 1`,
		// 150 µs and 50 µs land at or below the 0.00025 bound; the 30 ms
		// observation joins at 0.05; +Inf sees all three.
		`kumquatd_request_seconds_bucket{endpoint="synthesize",le="0.00025"} 2`,
		`kumquatd_request_seconds_bucket{endpoint="synthesize",le="0.05"} 3`,
		`kumquatd_request_seconds_bucket{endpoint="synthesize",le="+Inf"} 3`,
		`kumquatd_request_seconds_count{endpoint="synthesize"} 3`,
		`kumquatd_request_seconds_bucket{endpoint="execute",le="2.5"} 1`,
		`kumquatd_request_seconds_count{endpoint="execute"} 1`,
		"# TYPE kumquatd_requests_total counter",
		"# TYPE kumquatd_request_seconds histogram",
		"# TYPE kumquatd_in_flight gauge",
		"kumquatd_in_flight 3",
		"# TYPE kumquatd_cluster_shard_seconds histogram",
		`kumquatd_cluster_shard_seconds_bucket{le="0.05"} 1`,
		`kumquatd_cluster_shard_seconds_bucket{le="+Inf"} 2`,
		"kumquatd_cluster_shard_seconds_count 2",
		"# TYPE kumquatd_cluster_retry_backoff_seconds histogram",
		`kumquatd_cluster_retry_backoff_seconds_bucket{le="0.1"} 1`,
		"kumquatd_cluster_retry_backoff_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}

	// Whole series, byte for byte: scrapers parse this text, so a labelled
	// endpoint histogram and an unlabelled cluster one must render exactly
	// so, HELP and TYPE lines included.
	for _, golden := range []string{
		`# HELP kumquatd_request_seconds Request latency, by endpoint.
# TYPE kumquatd_request_seconds histogram
kumquatd_request_seconds_bucket{endpoint="execute",le="0.0001"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.00025"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.0005"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.001"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.0025"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.005"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.01"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.025"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.05"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.1"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.25"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="0.5"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="1"} 0
kumquatd_request_seconds_bucket{endpoint="execute",le="2.5"} 1
kumquatd_request_seconds_bucket{endpoint="execute",le="5"} 1
kumquatd_request_seconds_bucket{endpoint="execute",le="10"} 1
kumquatd_request_seconds_bucket{endpoint="execute",le="+Inf"} 1
kumquatd_request_seconds_sum{endpoint="execute"} 2
kumquatd_request_seconds_count{endpoint="execute"} 1
`,
		`# HELP kumquatd_cluster_retry_backoff_seconds Computed retry-backoff delays before shard re-dispatch.
# TYPE kumquatd_cluster_retry_backoff_seconds histogram
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.0001"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.00025"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.0005"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.001"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.0025"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.005"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.01"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.025"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.05"} 0
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.1"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.25"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="0.5"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="1"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="2.5"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="5"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="10"} 1
kumquatd_cluster_retry_backoff_seconds_bucket{le="+Inf"} 1
kumquatd_cluster_retry_backoff_seconds_sum 0.08
kumquatd_cluster_retry_backoff_seconds_count 1
`,
	} {
		if !strings.Contains(out, golden) {
			t.Errorf("exposition does not render this series byte for byte:\n%s\ngot:\n%s", golden, out)
		}
	}

	// A worker (non-coordinator) exposition omits the cluster histograms.
	var wb strings.Builder
	m.write(&wb, nil, false)
	if strings.Contains(wb.String(), "kumquatd_cluster_shard_seconds") {
		t.Error("non-cluster exposition leaked shard histogram")
	}
}

// TestHistogramBucketEdges checks boundary placement: observations equal
// to a bound land in that bound's bucket (le is inclusive).
func TestHistogramBucketEdges(t *testing.T) {
	h := newHistogram()
	h.observe(0.0001) // exactly the first bound
	if h.counts[0] != 1 {
		t.Errorf("observation at first bound landed in counts[%v], want counts[0]", h.counts)
	}
	h.observe(1e9) // beyond every bound → +Inf
	if h.counts[len(h.counts)-1] != 1 {
		t.Errorf("huge observation missed the +Inf bucket: %v", h.counts)
	}
	if h.total != 2 {
		t.Errorf("total = %d, want 2", h.total)
	}
}
