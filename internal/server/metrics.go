package server

import (
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/sampler"
)

// requestSecondsMetric names the request-latency histogram in the Prometheus
// exposition; the per-status-class ones append _class_2xx, _class_4xx, ….
const requestSecondsMetric = "sieved_request_seconds"

// stageSecondsMetric names the per-stage latency histogram family: one
// Prometheus histogram per serving stage, labeled {stage="..."}.
const stageSecondsMetric = "sieved_stage_seconds"

// latencyBuckets is the explicit upper-bound ladder every latency histogram
// is exposed with (Prometheus le values, seconds). The internal log-bucketed
// histograms are far finer; Cumulative downsamples them onto this ladder at
// scrape time, so changing the ladder never loses recorded data.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60,
}

// statusClasses names the per-status-class latency histograms, in the order
// statusClass indexes them.
var statusClasses = [...]string{"2xx", "3xx", "4xx", "5xx"}

// statusClass buckets an HTTP status for the latency breakdown, as an index
// into statusClasses. 499 (client-abandoned) counts as 4xx: the client gave
// up, the server did not fail.
func statusClass(status int) int { return min(max(status/100, 2), 5) - 2 }

// metricKind is how a table row renders in the Prometheus exposition, and in
// which section: counters first, then live gauges, then gauges read at
// scrape time.
type metricKind int

const (
	kindCounter metricKind = iota // only ever grows: # TYPE counter
	kindGauge                     // an atomic level that rises and falls
	kindScraped                   // a gauge read from its source at scrape time
)

// metricRow is one row of the metrics table: the /debug/metrics key ("" for
// a Prometheus-only row), the Prometheus series name, its kind, and where the
// value comes from. Both views render every row in table order, so a counter
// is named in exactly one place.
type metricRow struct {
	key   string
	prom  string
	kind  metricKind
	value func() int64
}

// metrics is the server's one source of truth about itself: atomic counters
// named once in an ordered table, one latency histogram per serving stage and
// per status class, and the per-methodology request counts, all built by
// newMetrics and never grown afterwards. /debug/metrics and /metrics both
// render from it. Every terminal response path records latency — errors
// included — into the overall request histogram and its status-class one, so
// p99 under errors is visible rather than a blind spot.
type metrics struct {
	Requests     obs.Counter // API requests accepted (sample, characterize, plan get, batch)
	Failures     obs.Counter // requests answered with a 4xx/5xx
	CacheHits    obs.Counter // plans served from the content-hash cache
	CacheMisses  obs.Counter // plan lookups that missed the cache
	Computations obs.Counter // sampling runs actually executed (misses minus coalesced/proxied)
	Coalesced    obs.Counter // requests that joined another request's in-flight computation
	BatchItems   obs.Counter // items processed across all /v1/batch requests
	PeerFills    obs.Counter // plans filled into the local cache from a peer replica
	PeerProxied  obs.Counter // requests proxied to the owning peer replica
	InFlight     obs.Counter // requests currently holding a worker slot
	Rejected     obs.Counter // requests that gave up waiting for a slot
	RowsIngested obs.Counter // profile rows ingested across all requests

	// table lists every counter and integer gauge in /debug/metrics key
	// order.
	table []metricRow

	// methodCounts[i] counts sample requests resolved to methodNames[i], the
	// registered sampling methods (sorted).
	methodNames  []string
	methodCounts []obs.Counter

	requestSeconds *obs.Histogram
	classSeconds   [len(statusClasses)]*obs.Histogram
	stageSeconds   [len(traceStages)]*obs.Histogram // indexed like traceStages

	start time.Time // epoch of sieved_uptime_seconds: server construction
}

// newMetrics builds the metrics of a server whose plan cache reports its
// size through cacheLen.
func newMetrics(cacheLen func() int) *metrics {
	m := &metrics{
		methodNames:    sampler.Names(),
		requestSeconds: obs.NewHistogram(),
		start:          time.Now(),
	}
	m.methodCounts = make([]obs.Counter, len(m.methodNames))
	for i := range m.classSeconds {
		m.classSeconds[i] = obs.NewHistogram()
	}
	for i := range m.stageSeconds {
		m.stageSeconds[i] = obs.NewHistogram()
	}
	m.table = []metricRow{
		{"requests", "sieved_requests_total", kindCounter, m.Requests.Value},
		{"failures", "sieved_failures_total", kindCounter, m.Failures.Value},
		{"cache_hits", "sieved_cache_hits_total", kindCounter, m.CacheHits.Value},
		{"cache_misses", "sieved_cache_misses_total", kindCounter, m.CacheMisses.Value},
		{"cache_entries", "sieved_cache_entries", kindScraped, func() int64 { return int64(cacheLen()) }},
		{"computations", "sieved_computations_total", kindCounter, m.Computations.Value},
		{"coalesced", "sieved_coalesced_total", kindCounter, m.Coalesced.Value},
		{"batch_items", "sieved_batch_items_total", kindCounter, m.BatchItems.Value},
		{"peer_fills", "sieved_peer_fills_total", kindCounter, m.PeerFills.Value},
		{"peer_proxied", "sieved_peer_proxied_total", kindCounter, m.PeerProxied.Value},
		{"in_flight", "sieved_in_flight", kindGauge, m.InFlight.Value},
		{"rejected", "sieved_rejected_total", kindCounter, m.Rejected.Value},
		{"rows_ingested", "sieved_rows_ingested_total", kindCounter, m.RowsIngested.Value},
		{"", "sieved_goroutines", kindScraped, func() int64 { return int64(runtime.NumGoroutine()) }},
	}
	return m
}

// MethodRequests returns the sample-request counter of a registered sampling
// method, or nil (whose Add is a no-op) for a name registered after the
// server was built.
func (m *metrics) MethodRequests(method string) *obs.Counter {
	if i, ok := slices.BinarySearch(m.methodNames, method); ok {
		return &m.methodCounts[i]
	}
	return nil
}

// observeStage records one request's attributed time in a serving stage.
func (m *metrics) observeStage(stage string, ns int64) {
	if i, ok := slices.BinarySearch(traceStages[:], stage); ok {
		m.stageSeconds[i].Observe(float64(ns) / 1e9)
	}
}

// observe records one terminal response: its wall time into the overall
// latency histogram and the per-status-class one. Handlers route every exit —
// success, caller error, timeout, disconnect — through here, so error-path
// latency shows up in the quantiles instead of only successes.
func (m *metrics) observe(status int, d time.Duration) {
	m.requestSeconds.ObserveDuration(d)
	m.classSeconds[statusClass(status)].ObserveDuration(d)
}

// serveJSON serves the /debug/metrics snapshot. The document is assembled by
// hand so its key order stays fixed; the JSON shape (keys and nesting) is a
// compatibility contract pinned by TestDebugMetricsJSONShape — monitoring
// dashboards parse it. Methods appear once requested. The counters satisfy
// cache_hits + cache_misses + failures == requests for the non-batch
// endpoints (batch adds batch_items on top of its one request).
func (m *metrics) serveJSON(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	b.WriteByte('{')
	for _, row := range m.table {
		if row.key != "" {
			fmt.Fprintf(&b, "%q:%d,", row.key, row.value())
		}
	}
	b.WriteString(`"method_requests":{`)
	sep := ""
	for i, name := range m.methodNames {
		if n := m.methodCounts[i].Value(); n > 0 {
			fmt.Fprintf(&b, "%s%q:%d", sep, name, n)
			sep = ","
		}
	}
	h := m.requestSeconds
	fmt.Fprintf(&b, `},"latency_ms":{"p50":%g,"p99":%g}}`+"\n", h.Quantile(0.50)*1e3, h.Quantile(0.99)*1e3)
	w.Header().Set("Content-Type", "application/json")
	_, _ = io.WriteString(w, b.String())
}

// fmtLE renders an upper bound the way Prometheus spells le values.
func fmtLE(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// writeHistogram renders one histogram at the explicit latencyBuckets ladder
// in Prometheus histogram form: cumulative _bucket samples per le (plus
// +Inf), then _sum and _count. labels ("" or `stage="x",`) is spliced before
// the le label, so a labeled family shares one # TYPE header written by the
// caller.
func writeHistogram(w io.Writer, name, labels string, h *obs.Histogram) {
	cum, total := h.Cumulative(latencyBuckets)
	for i, b := range latencyBuckets {
		fmt.Fprintf(w, "%s_bucket{%sle=%q} %d\n", name, labels, fmtLE(b), cum[i])
	}
	fmt.Fprintf(w, "%s_bucket{%sle=\"+Inf\"} %d\n", name, labels, total)
	if labels != "" {
		labels = "{" + strings.TrimRight(labels, ",") + "}"
	}
	fmt.Fprintf(w, "%s_sum%s %g\n%s_count%s %d\n", name, labels, h.Sum(), name, labels, h.Count())
}

// servePrometheus serves the table and the latency histograms in Prometheus
// text exposition format (0.0.4): the counters, the per-method family, the
// gauges, then the latency histograms (overall, per status class, per
// serving stage) with explicit buckets — real _bucket/_sum/_count series,
// not summary quantiles — so scrapes aggregate across replicas. The overall
// request histogram is always present; a status class, method or stage
// appears once it has a count.
func (m *metrics) servePrometheus(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	writeRows := func(kind metricKind) {
		typ := "gauge"
		if kind == kindCounter {
			typ = "counter"
		}
		for _, row := range m.table {
			if row.kind == kind {
				fmt.Fprintf(w, "# TYPE %s %s\n%s %d\n", row.prom, typ, row.prom, row.value())
			}
		}
	}
	writeRows(kindCounter)
	header := "# TYPE sieved_method_requests_total counter\n"
	for i, name := range m.methodNames {
		if n := m.methodCounts[i].Value(); n > 0 {
			io.WriteString(w, header)
			header = ""
			fmt.Fprintf(w, "sieved_method_requests_total{method=%q} %d\n", name, n)
		}
	}
	writeRows(kindGauge)
	writeRows(kindScraped)
	fmt.Fprintf(w, "# TYPE sieved_uptime_seconds gauge\nsieved_uptime_seconds %g\n", time.Since(m.start).Seconds())
	// Build/protocol identity: the same version /healthz reports, as a
	// constant gauge with the value in a label (the node_exporter idiom).
	fmt.Fprintf(w, "# TYPE sieved_build_info gauge\nsieved_build_info{version=%q} 1\n", api.Version)

	fmt.Fprintf(w, "# TYPE %s histogram\n", requestSecondsMetric)
	writeHistogram(w, requestSecondsMetric, "", m.requestSeconds)
	for i, h := range m.classSeconds {
		if h.Count() > 0 {
			name := requestSecondsMetric + "_class_" + statusClasses[i]
			fmt.Fprintf(w, "# TYPE %s histogram\n", name)
			writeHistogram(w, name, "", h)
		}
	}
	header = "# TYPE " + stageSecondsMetric + " histogram\n"
	for i, h := range m.stageSeconds {
		if h.Count() > 0 {
			io.WriteString(w, header)
			header = ""
			writeHistogram(w, stageSecondsMetric, fmt.Sprintf("stage=%q,", traceStages[i]), h)
		}
	}
}
