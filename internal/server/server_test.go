package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/gpusampling/sieve/api"
)

// testCSV renders a small bimodal profile in the WriteProfileCSV wire
// format: 4 kernels × 24 invocations, enough for Tier-3 KDE splitting.
func testCSV() string { return profileCSV(24) }

// profileCSV renders testCSV's bimodal profile with perKernel invocations in
// each of its 4 kernels.
func profileCSV(perKernel int) string {
	var b strings.Builder
	b.WriteString("kernel,index,seq,cta_size,instruction_count\n")
	idx := 0
	for k := 0; k < 4; k++ {
		for i := 0; i < perKernel; i++ {
			count := 1.0e6 + float64(i)*1e4
			if i%2 == 1 {
				count *= 30
			}
			fmt.Fprintf(&b, "kern_%d,%d,%d,%d,%g\n", k, idx, idx, 128+32*(i%2), count)
			idx++
		}
	}
	return b.String()
}

func newTestServer(t *testing.T, cfg Config) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(New(cfg).Handler())
	t.Cleanup(ts.Close)
	return ts
}

// sampleEnvelope is the response wrapper around a plan document.
type sampleEnvelope struct {
	PlanID string          `json:"plan_id"`
	Cached bool            `json:"cached"`
	Plan   json.RawMessage `json:"plan"`
}

func postCSV(t *testing.T, url, csv string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("decode %s: %v", url, err)
	}
	return resp.StatusCode
}

// metricsDoc mirrors the /debug/metrics JSON.
type metricsDoc struct {
	Requests     int64 `json:"requests"`
	Failures     int64 `json:"failures"`
	CacheHits    int64 `json:"cache_hits"`
	CacheMisses  int64 `json:"cache_misses"`
	CacheEntries int   `json:"cache_entries"`
	Computations int64 `json:"computations"`
	Coalesced    int64 `json:"coalesced"`
	BatchItems   int64 `json:"batch_items"`
	PeerFills    int64 `json:"peer_fills"`
	PeerProxied  int64 `json:"peer_proxied"`
	InFlight     int64 `json:"in_flight"`
	Rejected     int64 `json:"rejected"`
	RowsIngested int64 `json:"rows_ingested"`
	LatencyMS    struct {
		P50 float64 `json:"p50"`
		P99 float64 `json:"p99"`
	} `json:"latency_ms"`
}

// TestSampleCacheHitMiss is the acceptance check: POSTing the same
// profile+options twice must compute once, report the second response as a
// cache hit via /debug/metrics, and return byte-identical plan JSON.
func TestSampleCacheHitMiss(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()

	status, body1 := postCSV(t, ts.URL+"/v1/sample?theta=0.4", csv)
	if status != http.StatusOK {
		t.Fatalf("first POST status = %d, body %s", status, body1)
	}
	var env1 sampleEnvelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if env1.Cached {
		t.Fatal("first response claims cached=true")
	}
	if env1.PlanID == "" {
		t.Fatal("missing plan_id")
	}

	status, body2 := postCSV(t, ts.URL+"/v1/sample?theta=0.4", csv)
	if status != http.StatusOK {
		t.Fatalf("second POST status = %d, body %s", status, body2)
	}
	var env2 sampleEnvelope
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached {
		t.Fatal("second identical request was not a cache hit")
	}
	if env2.PlanID != env1.PlanID {
		t.Fatalf("plan_id changed across identical requests: %s vs %s", env1.PlanID, env2.PlanID)
	}
	if string(env1.Plan) != string(env2.Plan) {
		t.Fatal("cache hit returned non-identical plan JSON")
	}

	var m metricsDoc
	if status := getJSON(t, ts.URL+"/debug/metrics", &m); status != http.StatusOK {
		t.Fatalf("metrics status = %d", status)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 {
		t.Fatalf("cache hits/misses = %d/%d, want 1/1", m.CacheHits, m.CacheMisses)
	}
	if m.Requests != 2 || m.CacheEntries != 1 {
		t.Fatalf("requests = %d, cache_entries = %d, want 2, 1", m.Requests, m.CacheEntries)
	}
	if m.RowsIngested != 96 {
		t.Fatalf("rows_ingested = %d, want 96", m.RowsIngested)
	}
	if m.LatencyMS.P99 < m.LatencyMS.P50 {
		t.Fatalf("p99 %g < p50 %g", m.LatencyMS.P99, m.LatencyMS.P50)
	}

	// A different θ is a different content hash: must miss.
	status, body3 := postCSV(t, ts.URL+"/v1/sample?theta=0.7", csv)
	if status != http.StatusOK {
		t.Fatalf("theta=0.7 POST status = %d, body %s", status, body3)
	}
	var env3 sampleEnvelope
	if err := json.Unmarshal(body3, &env3); err != nil {
		t.Fatal(err)
	}
	if env3.Cached || env3.PlanID == env1.PlanID {
		t.Fatal("different options should not share a cache entry")
	}
}

// TestPlanLookup covers GET /v1/plans/{id}: hit after a POST, 404 otherwise.
func TestPlanLookup(t *testing.T) {
	ts := newTestServer(t, Config{})
	_, body := postCSV(t, ts.URL+"/v1/sample", testCSV())
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}

	var got sampleEnvelope
	if status := getJSON(t, ts.URL+"/v1/plans/"+env.PlanID, &got); status != http.StatusOK {
		t.Fatalf("plan lookup status = %d", status)
	}
	if !got.Cached || string(got.Plan) != string(env.Plan) {
		t.Fatal("plan lookup did not return the cached document")
	}

	var errDoc map[string]string
	if status := getJSON(t, ts.URL+"/v1/plans/deadbeef", &errDoc); status != http.StatusNotFound {
		t.Fatalf("unknown plan status = %d, want 404", status)
	}
}

func TestOversizedBodyRejected(t *testing.T) {
	ts := newTestServer(t, Config{MaxBodyBytes: 256})
	status, body := postCSV(t, ts.URL+"/v1/sample", testCSV())
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", status, body)
	}
}

func TestMalformedRequests(t *testing.T) {
	ts := newTestServer(t, Config{})
	cases := []struct {
		name        string
		contentType string
		body        string
		query       string
		want        int
	}{
		{"garbage CSV", "text/csv", "not,a,profile\n1,2,3\n", "", http.StatusBadRequest},
		{"bad metric column", "text/csv", "kernel,index,seq,cta_size,bogus\nk,0,0,128,1\n", "", http.StatusBadRequest},
		{"negative theta", "text/csv", testCSV(), "?theta=-1", http.StatusBadRequest},
		{"unparsable theta", "text/csv", testCSV(), "?theta=abc", http.StatusBadRequest},
		{"unknown selection", "text/csv", testCSV(), "?selection=psychic", http.StatusBadRequest},
		{"unknown splitter", "text/csv", testCSV(), "?splitter=axe", http.StatusBadRequest},
		{"empty profile", "text/csv", "kernel,index,seq,cta_size,instruction_count\n", "", http.StatusUnprocessableEntity},
		{"broken JSON", "application/json", "{", "", http.StatusBadRequest},
		{"neither source", "application/json", "{}", "", http.StatusBadRequest},
		{"both sources", "application/json", `{"profile_csv":"x","workload":"lmc"}`, "", http.StatusBadRequest},
		{"unknown workload", "application/json", `{"workload":"nope"}`, "", http.StatusBadRequest},
		{"bad scale", "application/json", `{"workload":"lmc","scale":7}`, "", http.StatusBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, err := http.Post(ts.URL+"/v1/sample"+tc.query, tc.contentType, strings.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			body, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.want, body)
			}
			var doc map[string]string
			if err := json.Unmarshal(body, &doc); err != nil || doc["error"] == "" {
				t.Fatalf("error body not a JSON {error}: %s", body)
			}
		})
	}
}

// TestStreamModeSample exercises the bounded-memory path and its option
// plumbing through the query string.
func TestStreamModeSample(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := postCSV(t, ts.URL+"/v1/sample?stream=true&reservoir_size=8&seed=42", testCSV())
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var plan struct {
		Sampled bool `json:"sampled"`
	}
	if err := json.Unmarshal(env.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if !plan.Sampled {
		t.Fatal("24 invocations over an 8-row reservoir should mark the plan sampled")
	}
}

// TestWorkloadMode samples a catalog workload generated server-side via the
// JSON envelope.
func TestWorkloadMode(t *testing.T) {
	ts := newTestServer(t, Config{})
	req := `{"workload":"lmc","scale":0.05,"options":{"theta":0.4}}`
	resp, err := http.Post(ts.URL+"/v1/sample", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	var plan struct {
		NumStrata       int   `json:"num_strata"`
		Representatives []int `json:"representatives"`
	}
	if err := json.Unmarshal(env.Plan, &plan); err != nil {
		t.Fatal(err)
	}
	if plan.NumStrata == 0 || len(plan.Representatives) != plan.NumStrata {
		t.Fatalf("degenerate workload plan: %d strata, %d representatives", plan.NumStrata, len(plan.Representatives))
	}

	// Same workload+options → cache hit without re-simulating.
	resp2, err := http.Post(ts.URL+"/v1/sample", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	var env2 sampleEnvelope
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if !env2.Cached || string(env2.Plan) != string(env.Plan) {
		t.Fatal("workload-mode cache hit missing or non-identical")
	}
}

func TestCharacterize(t *testing.T) {
	ts := newTestServer(t, Config{})
	resp, err := http.Post(ts.URL+"/v1/characterize", "text/csv", strings.NewReader(testCSV()))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	var doc struct {
		Kernels []api.KernelSummary `json:"kernels"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Kernels) != 4 {
		t.Fatalf("kernels = %d, want 4", len(doc.Kernels))
	}
	for _, k := range doc.Kernels {
		if k.Invocations != 24 || k.Tier != 3 {
			t.Fatalf("kernel %s: invocations=%d tier=%d, want 24, 3", k.Kernel, k.Invocations, k.Tier)
		}
	}
}

// TestRequestTimeout maps an expired per-request deadline onto 504.
func TestRequestTimeout(t *testing.T) {
	ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	status, body := postCSV(t, ts.URL+"/v1/sample", testCSV())
	if status != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", status, body)
	}
}

// TestHealthz covers both response shapes: the JSON body with ring
// membership and version, and the bare-string body legacy probes request via
// Accept: text/plain.
func TestHealthz(t *testing.T) {
	srv := New(Config{})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)

	var doc api.Health
	if status := getJSON(t, ts.URL+"/healthz", &doc); status != http.StatusOK || doc.Status != "ok" {
		t.Fatalf("healthz = %d %+v", status, doc)
	}
	if doc.Version != api.Version {
		t.Fatalf("healthz version = %q, want %q", doc.Version, api.Version)
	}
	if doc.Self != "" || len(doc.Peers) != 0 {
		t.Fatalf("single-node healthz reports ring membership: %+v", doc)
	}

	// With a ring configured, membership is discoverable from the replica.
	peer := "http://198.51.100.1:8372"
	if err := srv.SetPeers(ts.URL, []string{peer}); err != nil {
		t.Fatal(err)
	}
	if status := getJSON(t, ts.URL+"/healthz", &doc); status != http.StatusOK {
		t.Fatalf("peered healthz status %d", status)
	}
	if doc.Self != ts.URL {
		t.Fatalf("healthz self = %q, want %q", doc.Self, ts.URL)
	}
	if len(doc.Peers) != 2 {
		t.Fatalf("healthz peers = %v, want self + 1 peer", doc.Peers)
	}

	// Old probes: Accept: text/plain gets exactly "ok".
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/healthz", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("text/plain healthz = %d %q, want 200 \"ok\"", resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("text/plain healthz content type %q", ct)
	}
}

// TestCacheEviction bounds the LRU: distinct requests beyond capacity evict
// the oldest entry.
func TestCacheEviction(t *testing.T) {
	ts := newTestServer(t, Config{CacheEntries: 2})
	ids := make([]string, 3)
	for i, theta := range []string{"0.3", "0.4", "0.5"} {
		status, body := postCSV(t, ts.URL+"/v1/sample?theta="+theta, testCSV())
		if status != http.StatusOK {
			t.Fatalf("POST theta=%s status = %d", theta, status)
		}
		var env sampleEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			t.Fatal(err)
		}
		ids[i] = env.PlanID
	}
	var m metricsDoc
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.CacheEntries != 2 {
		t.Fatalf("cache_entries = %d, want 2", m.CacheEntries)
	}
	var doc map[string]any
	if status := getJSON(t, ts.URL+"/v1/plans/"+ids[0], &doc); status != http.StatusNotFound {
		t.Fatalf("oldest plan still cached: status = %d, want 404", status)
	}
	if status := getJSON(t, ts.URL+"/v1/plans/"+ids[2], &doc); status != http.StatusOK {
		t.Fatalf("newest plan evicted: status = %d, want 200", status)
	}
}

// TestParallelismCappedByServer verifies a request cannot exceed the server's
// per-request worker budget (it silently runs with the cap) while still being
// cached under the capped key.
func TestParallelismCappedByServer(t *testing.T) {
	ts := newTestServer(t, Config{Parallelism: 2})
	status, body := postCSV(t, ts.URL+"/v1/sample?parallelism=64", testCSV())
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	status, body = postCSV(t, ts.URL+"/v1/sample?parallelism=128", testCSV())
	if status != http.StatusOK {
		t.Fatalf("status = %d, body %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if !env.Cached {
		t.Fatal("both requests cap to the same parallelism; second should hit the cache")
	}
}

// TestDebugMetricsJSONShape pins the /debug/metrics document's exact key set
// and nesting: dashboards parse this JSON, so replacing the latency backend
// (ring buffer → shared obs.Histogram) must not move a single key. It also
// pins the counter arithmetic: every non-batch API request — plan GETs
// included — counts toward requests, so in this scenario
// cache_hits + cache_misses + failures == requests exactly.
func TestDebugMetricsJSONShape(t *testing.T) {
	ts := newTestServer(t, Config{})
	status, body := postCSV(t, ts.URL+"/v1/sample", testCSV())
	if status != http.StatusOK {
		t.Fatalf("sample status %d", status)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	// One plan-cache hit via GET and one 404: both must count as requests.
	var discard sampleEnvelope
	if status := getJSON(t, ts.URL+"/v1/plans/"+env.PlanID, &discard); status != http.StatusOK {
		t.Fatalf("plan get status %d", status)
	}
	var errDoc map[string]string
	if status := getJSON(t, ts.URL+"/v1/plans/deadbeef", &errDoc); status != http.StatusNotFound {
		t.Fatalf("missing plan status %d, want 404", status)
	}

	var m metricsDoc
	if status := getJSON(t, ts.URL+"/debug/metrics", &m); status != http.StatusOK {
		t.Fatalf("metrics status %d", status)
	}
	if m.Requests != 3 {
		t.Fatalf("requests = %d, want 3 (sample + plan hit + plan 404)", m.Requests)
	}
	if got := m.CacheHits + m.CacheMisses + m.Failures; got != m.Requests {
		t.Fatalf("cache_hits(%d) + cache_misses(%d) + failures(%d) = %d, want requests = %d",
			m.CacheHits, m.CacheMisses, m.Failures, got, m.Requests)
	}
	if m.CacheHits != 1 || m.CacheMisses != 1 || m.Failures != 1 || m.Computations != 1 {
		t.Fatalf("hits/misses/failures/computations = %d/%d/%d/%d, want 1/1/1/1",
			m.CacheHits, m.CacheMisses, m.Failures, m.Computations)
	}

	resp, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc map[string]json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	want := []string{
		"requests", "failures", "cache_hits", "cache_misses", "cache_entries",
		"computations", "coalesced", "batch_items", "peer_fills", "peer_proxied",
		"in_flight", "rejected", "rows_ingested", "method_requests", "latency_ms",
	}
	for _, k := range want {
		if _, ok := doc[k]; !ok {
			t.Errorf("/debug/metrics lost key %q", k)
		}
	}
	if len(doc) != len(want) {
		t.Errorf("/debug/metrics has %d keys, want %d: %v", len(doc), len(want), doc)
	}
	var methods map[string]int64
	if err := json.Unmarshal(doc["method_requests"], &methods); err != nil {
		t.Fatal(err)
	}
	if methods["sieve"] != 1 {
		t.Errorf(`method_requests["sieve"] = %d, want 1`, methods["sieve"])
	}
	var lat struct {
		P50 *float64 `json:"p50"`
		P99 *float64 `json:"p99"`
	}
	if err := json.Unmarshal(doc["latency_ms"], &lat); err != nil {
		t.Fatal(err)
	}
	if lat.P50 == nil || lat.P99 == nil {
		t.Fatalf("latency_ms lost p50/p99: %s", doc["latency_ms"])
	}
	if *lat.P50 <= 0 || *lat.P99 < *lat.P50 {
		t.Fatalf("implausible latency quantiles after one request: p50=%g p99=%g", *lat.P50, *lat.P99)
	}
}

// TestPrometheusMetricsEndpoint checks GET /metrics serves valid-looking
// Prometheus text exposition: the counters, the request-latency histogram
// with explicit buckets (real _bucket series, not summary quantiles), the
// per-stage attribution histograms, and the build/uptime/goroutine gauges
// with the version /healthz reports.
func TestPrometheusMetricsEndpoint(t *testing.T) {
	ts := newTestServer(t, Config{})
	if status, _ := postCSV(t, ts.URL+"/v1/sample", testCSV()); status != http.StatusOK {
		t.Fatalf("sample status %d", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"# TYPE sieved_requests_total counter\nsieved_requests_total 1\n",
		"# TYPE sieved_cache_misses_total counter\nsieved_cache_misses_total 1\n",
		"# TYPE sieved_in_flight gauge\n",
		"# TYPE sieved_request_seconds histogram\n",
		`sieved_request_seconds_bucket{le="+Inf"} 1`,
		"sieved_request_seconds_count 1\n",
		"# TYPE sieved_stage_seconds histogram\n",
		`sieved_stage_seconds_bucket{stage="compute",le="+Inf"} 1`,
		`sieved_stage_seconds_count{stage="slot"} 1`,
		`sieved_stage_seconds_count{stage="decode"} 1`,
		fmt.Sprintf("# TYPE sieved_build_info gauge\nsieved_build_info{version=%q} 1\n", api.Version),
		"# TYPE sieved_uptime_seconds gauge\n",
		"# TYPE sieved_goroutines gauge\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q in:\n%s", want, out)
		}
	}
	if strings.Contains(out, "summary") || strings.Contains(out, `quantile="`) {
		t.Errorf("/metrics still exposes summary quantiles:\n%s", out)
	}
	// The explicit-bucket ladder must be cumulative: the one recorded request
	// appears in every bucket at or above its latency.
	if !strings.Contains(out, `sieved_request_seconds_bucket{le="60"} 1`) {
		t.Errorf("/metrics top finite bucket does not hold the request:\n%s", out)
	}
	// Uptime's epoch is server construction, not the first scrape: by scrape
	// time at least the slept interval must have elapsed.
	time.Sleep(5 * time.Millisecond)
	resp2, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body2, err := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var uptime float64
	for _, line := range strings.Split(string(body2), "\n") {
		if rest, ok := strings.CutPrefix(line, "sieved_uptime_seconds "); ok {
			if _, err := fmt.Sscanf(rest, "%g", &uptime); err != nil {
				t.Fatalf("parse uptime %q: %v", rest, err)
			}
		}
	}
	if uptime < 0.005 {
		t.Errorf("sieved_uptime_seconds = %g, want >= 0.005 (epoch should be server construction)", uptime)
	}
}

// TestRequestLogging checks that a configured slog.Logger receives one access
// line per request with method/path/status attributes.
func TestRequestLogging(t *testing.T) {
	var buf syncBuffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	ts := newTestServer(t, Config{Logger: logger})
	if status, _ := postCSV(t, ts.URL+"/v1/sample", testCSV()); status != http.StatusOK {
		t.Fatalf("sample status %d", status)
	}
	// A failing request must log too (and at warn level via writeError).
	if status, _ := postCSV(t, ts.URL+"/v1/sample", "not,a,profile\n1,2,3\n"); status == http.StatusOK {
		t.Fatal("malformed CSV unexpectedly accepted")
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var access []map[string]any
	for _, ln := range lines {
		var rec map[string]any
		if err := json.Unmarshal([]byte(ln), &rec); err != nil {
			t.Fatalf("non-JSON log line %q: %v", ln, err)
		}
		if rec["msg"] == "request" {
			access = append(access, rec)
		}
	}
	if len(access) != 2 {
		t.Fatalf("want 2 access log lines, got %d: %s", len(access), buf.String())
	}
	first := access[0]
	if first["method"] != "POST" || first["path"] != "/v1/sample" || first["status"] != float64(http.StatusOK) {
		t.Fatalf("access line = %v", first)
	}
	if _, ok := first["duration_ms"].(float64); !ok {
		t.Fatalf("access line missing duration_ms: %v", first)
	}
}

// TestParallelismNotInCacheKey is the regression test for the plan-cache
// fragmentation bug: plans are byte-identical across worker counts (proven
// since PR 1), so two requests differing only in parallelism must share one
// cache entry and one computation. Config.Parallelism is left high enough
// that 2 and 4 resolve to genuinely different worker counts — before the
// fix, that fragmented the LRU into two entries and two computations.
func TestParallelismNotInCacheKey(t *testing.T) {
	ts := newTestServer(t, Config{Parallelism: 8})
	csv := testCSV()

	status, body1 := postCSV(t, ts.URL+"/v1/sample?parallelism=2", csv)
	if status != http.StatusOK {
		t.Fatalf("first POST status = %d, body %s", status, body1)
	}
	status, body2 := postCSV(t, ts.URL+"/v1/sample?parallelism=4", csv)
	if status != http.StatusOK {
		t.Fatalf("second POST status = %d, body %s", status, body2)
	}
	var env1, env2 sampleEnvelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if env1.PlanID != env2.PlanID {
		t.Fatalf("parallelism fragments the content hash: %s vs %s", env1.PlanID, env2.PlanID)
	}
	if !env2.Cached {
		t.Fatal("request differing only in parallelism missed the cache")
	}
	if string(env1.Plan) != string(env2.Plan) {
		t.Fatal("plans differ across parallelism — cache sharing would be unsound")
	}
	var m metricsDoc
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.Computations != 1 || m.CacheEntries != 1 {
		t.Fatalf("computations = %d, cache_entries = %d, want 1, 1", m.Computations, m.CacheEntries)
	}
}

// TestDefaultThetaSharesCacheEntry pins θ canonicalization in the content
// hash: on the wire θ=0 means "paper default", so a request leaving θ unset
// and one passing the default explicitly are the same plan and must share
// one cache entry — not compute identical plans twice under two ids.
func TestDefaultThetaSharesCacheEntry(t *testing.T) {
	ts := newTestServer(t, Config{})
	csv := testCSV()

	status, body1 := postCSV(t, ts.URL+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatalf("unset-theta POST status = %d, body %s", status, body1)
	}
	status, body2 := postCSV(t, ts.URL+"/v1/sample?theta=0.4", csv)
	if status != http.StatusOK {
		t.Fatalf("explicit-theta POST status = %d, body %s", status, body2)
	}
	var env1, env2 sampleEnvelope
	if err := json.Unmarshal(body1, &env1); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(body2, &env2); err != nil {
		t.Fatal(err)
	}
	if env1.PlanID != env2.PlanID {
		t.Fatalf("default θ fragments the content hash: %s vs %s", env1.PlanID, env2.PlanID)
	}
	if !env2.Cached {
		t.Fatal("explicit default-θ request missed the unset-θ cache entry")
	}
	if string(env1.Plan) != string(env2.Plan) {
		t.Fatal("plans differ between unset and explicit default θ")
	}
	var m metricsDoc
	getJSON(t, ts.URL+"/debug/metrics", &m)
	if m.Computations != 1 || m.CacheEntries != 1 {
		t.Fatalf("computations = %d, cache_entries = %d, want 1, 1", m.Computations, m.CacheEntries)
	}
}

// TestErrorLatencyRecorded closes the metrics blind spot: failed requests
// must record latency too, broken down by status class, so p99 under errors
// is visible. One success and one 400 must yield one observation each in the
// 2xx and 4xx class summaries and two in the overall histogram.
func TestErrorLatencyRecorded(t *testing.T) {
	ts := newTestServer(t, Config{})
	if status, _ := postCSV(t, ts.URL+"/v1/sample", testCSV()); status != http.StatusOK {
		t.Fatal("sample failed")
	}
	if status, _ := postCSV(t, ts.URL+"/v1/sample", "not,a,profile\n1,2,3\n"); status != http.StatusBadRequest {
		t.Fatalf("malformed CSV status = %d, want 400", status)
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)
	for _, want := range []string{
		"sieved_request_seconds_count 2\n",
		"sieved_request_seconds_class_2xx_count 1\n",
		"sieved_request_seconds_class_4xx_count 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q — error-path latency unrecorded:\n%s", want, out)
		}
	}
}

// TestStatusRecorderForwardsFlush pins the access-log wrapper's Flusher
// passthrough: batch responses stream per-item envelopes, so the wrapped
// ResponseWriter must still satisfy http.Flusher and forward the flush.
func TestStatusRecorderForwardsFlush(t *testing.T) {
	rec := httptest.NewRecorder()
	var w http.ResponseWriter = &statusRecorder{ResponseWriter: rec, status: http.StatusOK}
	f, ok := w.(http.Flusher)
	if !ok {
		t.Fatal("statusRecorder does not satisfy http.Flusher")
	}
	f.Flush()
	if !rec.Flushed {
		t.Fatal("Flush was not forwarded to the underlying ResponseWriter")
	}
}

// syncBuffer is a mutex-guarded bytes.Buffer: the server handles requests on
// its own goroutines, so the log sink must be safe for concurrent writes.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
