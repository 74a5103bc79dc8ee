package server

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds,
// spanning warm cache lookups (~100 µs over loopback) to cold synthesis
// of the 110k-candidate space plus execution (seconds).
var latencyBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01,
	0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// histogram is a fixed-bucket latency histogram; counts[i] holds the
// observations that fell in bucket i (cumulative Prometheus-style sums
// are computed at write time). The last slot is the +Inf bucket.
type histogram struct {
	counts []int64
	sum    float64
	total  int64
}

func newHistogram() *histogram {
	return &histogram{counts: make([]int64, len(latencyBuckets)+1)}
}

func (h *histogram) observe(seconds float64) {
	i := sort.SearchFloat64s(latencyBuckets, seconds)
	h.counts[i]++
	h.sum += seconds
	h.total++
}

// metrics is the server's metrics registry: request counts by endpoint
// and status code, latency histograms by endpoint, and gauges sampled at
// render time (admission occupancy, cache counters). All methods are
// safe for concurrent use; rendering holds the same lock the recorders
// take, so a scrape sees a consistent snapshot.
type metrics struct {
	mu     sync.Mutex
	counts map[countKey]int64    // endpoint+code → requests
	hists  map[string]*histogram // endpoint → latencies
	// shard and backoff histogram the cluster plane's per-shard
	// resolution times and computed retry-backoff delays (fed through
	// the coordinator's OnShardLatency/OnRetryBackoff hooks).
	shard   *histogram
	backoff *histogram
}

// countKey labels one requests_total series.
type countKey struct {
	endpoint string
	code     int
}

func newMetrics() *metrics {
	return &metrics{
		counts:  map[countKey]int64{},
		hists:   map[string]*histogram{},
		shard:   newHistogram(),
		backoff: newHistogram(),
	}
}

// observeShard logs one cluster shard's total resolution time.
func (m *metrics) observeShard(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shard.observe(d.Seconds())
}

// observeBackoff logs one computed retry-backoff delay.
func (m *metrics) observeBackoff(d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.backoff.observe(d.Seconds())
}

// record logs one finished request.
func (m *metrics) record(endpoint string, code int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.counts[countKey{endpoint, code}]++
	h := m.hists[endpoint]
	if h == nil {
		h = newHistogram()
		m.hists[endpoint] = h
	}
	h.observe(d.Seconds())
}

// gauge is a point-in-time value rendered into the exposition.
type gauge struct {
	name, help string
	value      float64
}

// writeHelp renders a metric family's HELP and TYPE lines.
func writeHelp(w io.Writer, name, typ, help string) {
	fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// writeHist renders one histogram series in the Prometheus text
// exposition format: cumulative buckets, sum and count. labels holds the
// series' own label pairs (`endpoint="execute"`), rendered ahead of each
// bucket's le; "" for an unlabelled series. The caller holds m.mu.
func writeHist(w io.Writer, name, labels string, h *histogram) {
	sel, le := "", "{le="
	if labels != "" {
		sel, le = "{"+labels+"}", "{"+labels+",le="
	}
	var cum int64
	for i, bound := range latencyBuckets {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket%s\"%g\"} %d\n", name, le, bound, cum)
	}
	cum += h.counts[len(latencyBuckets)]
	fmt.Fprintf(w, "%s_bucket%s\"+Inf\"} %d\n", name, le, cum)
	fmt.Fprintf(w, "%s_sum%s %g\n", name, sel, h.sum)
	fmt.Fprintf(w, "%s_count%s %d\n", name, sel, h.total)
}

// write renders the registry in the Prometheus text exposition format,
// appending the given gauges (sampled by the caller at scrape time).
// cluster adds the shard-latency and retry-backoff histograms, which
// only a coordinator populates.
func (m *metrics) write(w io.Writer, gauges []gauge, cluster bool) {
	m.mu.Lock()
	defer m.mu.Unlock()

	writeHelp(w, "kumquatd_requests_total", "counter", "Requests served, by endpoint and status code.")
	keys := make([]countKey, 0, len(m.counts))
	for k := range m.counts {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].endpoint != keys[j].endpoint {
			return keys[i].endpoint < keys[j].endpoint
		}
		return keys[i].code < keys[j].code
	})
	for _, k := range keys {
		fmt.Fprintf(w, "kumquatd_requests_total{endpoint=%q,code=\"%d\"} %d\n", k.endpoint, k.code, m.counts[k])
	}

	writeHelp(w, "kumquatd_request_seconds", "histogram", "Request latency, by endpoint.")
	eps := make([]string, 0, len(m.hists))
	for ep := range m.hists {
		eps = append(eps, ep)
	}
	sort.Strings(eps)
	for _, ep := range eps {
		writeHist(w, "kumquatd_request_seconds", fmt.Sprintf("endpoint=%q", ep), m.hists[ep])
	}

	if cluster {
		writeHelp(w, "kumquatd_cluster_shard_seconds", "histogram",
			"Cluster shard resolution time, dispatch through final outcome (retries, speculation and local fallback included).")
		writeHist(w, "kumquatd_cluster_shard_seconds", "", m.shard)
		writeHelp(w, "kumquatd_cluster_retry_backoff_seconds", "histogram",
			"Computed retry-backoff delays before shard re-dispatch.")
		writeHist(w, "kumquatd_cluster_retry_backoff_seconds", "", m.backoff)
	}

	for _, g := range gauges {
		writeHelp(w, g.name, "gauge", g.help)
		fmt.Fprintf(w, "%s %g\n", g.name, g.value)
	}
}
