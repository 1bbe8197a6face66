package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

var updateMetricsGolden = flag.Bool("update", false, "rewrite testdata/golden_metrics.* from the current code")

// scrape GETs a metrics endpoint and returns its body.
func scrape(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	return string(body)
}

// awaitTraces blocks until the trace store holds n traces. A request's
// latency and stage observations land after its response bytes may already
// have reached the client; the trace is stored last, so once all n are
// stored every observation is in.
func awaitTraces(t *testing.T, base string, n int) {
	t.Helper()
	waitFor(t, fmt.Sprintf("%d stored traces", n), func() bool {
		var list struct {
			Stored int `json:"stored"`
		}
		return getJSON(t, base+"/debug/traces", &list) == http.StatusOK && list.Stored == n
	})
}

var (
	// latencyValues matches the /debug/metrics quantile numbers.
	latencyValues = regexp.MustCompile(`"(p50|p99)":[^,}]+`)
	// timedSample matches the Prometheus samples whose values depend on wall
	// time or the runtime: histogram buckets and sums, goroutines, uptime.
	timedSample = regexp.MustCompile(`(?m)^((?:\S+_bucket|\S+_sum)(?:\{[^}]*\})?|sieved_goroutines|sieved_uptime_seconds) .*$`)
)

// maskMetrics blanks the time-dependent values of both views, keeping every
// name, label, order, counter and _count.
func maskMetrics(debug, prom string) (string, string) {
	return latencyValues.ReplaceAllString(debug, `"$1":X`), timedSample.ReplaceAllString(prom, "$1 X")
}

// TestMetricsGolden pins both metric views after a fixed sequential request
// mix: a CSV miss, the same CSV as a hit, a plan GET hit, a plan GET 404, a
// twophase CSV sample, a two-item batch (one hit, one miss) and a 400. The
// time-dependent values are masked; everything else must match the recorded
// bytes. Regenerate only for an intended exposition change:
// go test ./internal/server -run TestMetricsGolden -update.
func TestMetricsGolden(t *testing.T) {
	ts := newTestServer(t, Config{MaxConcurrent: 1, Parallelism: 1})
	csv := testCSV()

	status, body := postCSV(t, ts.URL+"/v1/sample", csv)
	if status != http.StatusOK {
		t.Fatalf("miss status %d: %s", status, body)
	}
	var env sampleEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if status, _ := postCSV(t, ts.URL+"/v1/sample", csv); status != http.StatusOK {
		t.Fatalf("hit status %d", status)
	}
	var discard json.RawMessage
	if status := getJSON(t, ts.URL+"/v1/plans/"+env.PlanID, &discard); status != http.StatusOK {
		t.Fatalf("plan get status %d", status)
	}
	if status := getJSON(t, ts.URL+"/v1/plans/deadbeef", &discard); status != http.StatusNotFound {
		t.Fatalf("missing plan status %d, want 404", status)
	}
	if status, body := postCSV(t, ts.URL+"/v1/sample?method=twophase", csv); status != http.StatusOK {
		t.Fatalf("twophase status %d: %s", status, body)
	}
	csvJSON, err := json.Marshal(csv)
	if err != nil {
		t.Fatal(err)
	}
	breq := `{"items":[{"profile_csv":` + string(csvJSON) + `},{"profile_csv":` + string(csvJSON) + `,"options":{"theta":0.6}}]}`
	if status, out, raw := postBatch(t, ts.URL, breq); status != http.StatusOK || len(out.Items) != 2 {
		t.Fatalf("batch status %d: %s", status, raw)
	}
	if status, _ := postCSV(t, ts.URL+"/v1/sample", "not,a,profile\n1,2,3\n"); status != http.StatusBadRequest {
		t.Fatalf("malformed CSV status %d, want 400", status)
	}
	awaitTraces(t, ts.URL, 7)

	debug, prom := maskMetrics(scrape(t, ts.URL+"/debug/metrics"), scrape(t, ts.URL+"/metrics"))
	for _, g := range []struct{ file, got string }{
		{"golden_metrics_debug.json", debug},
		{"golden_metrics.txt", prom},
	} {
		path := filepath.Join("testdata", g.file)
		if *updateMetricsGolden {
			if err := os.WriteFile(path, []byte(g.got), 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if g.got != string(want) {
			t.Errorf("%s drifted:\n got:\n%s\nwant:\n%s", g.file, g.got, want)
		}
	}
}

// promSamples parses a Prometheus text exposition into series → value,
// where a series is the name with its label set as written.
func promSamples(t *testing.T, text string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("sample %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out
}

// TestMetricsViewsAgree drives concurrent cache hits, misses (some of them
// coalesced) and 404s while both metric views are scraped, then checks the
// settled views: cache_hits + cache_misses + failures == requests, and every
// /debug/metrics number equals its sieved_<key>_total counter or sieved_<key>
// gauge in /metrics — and every unlabeled counter in /metrics has its key.
func TestMetricsViewsAgree(t *testing.T) {
	ts := newTestServer(t, Config{})
	const workers, rounds = 8, 12
	var (
		wg, scraper sync.WaitGroup
		done        = make(chan struct{})
	)
	// Scrape both views throughout, so -race checks rendering against
	// recording.
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for _, path := range []string{"/debug/metrics", "/metrics"} {
				resp, err := http.Get(ts.URL + path)
				if err != nil {
					t.Errorf("GET %s: %v", path, err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
	}()
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				var (
					resp *http.Response
					err  error
					want = http.StatusOK
				)
				if (g+i)%3 == 0 {
					resp, err = http.Get(ts.URL + "/v1/plans/deadbeef")
					want = http.StatusNotFound
				} else {
					url := fmt.Sprintf("%s/v1/sample?theta=%g", ts.URL, 0.3+0.1*float64((g+i)%4))
					resp, err = http.Post(url, "text/csv", strings.NewReader(profileCSV(8)))
				}
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != want {
					t.Errorf("%s %s: status %d, want %d", resp.Request.Method, resp.Request.URL.Path, resp.StatusCode, want)
				}
			}
		}(g)
	}
	wg.Wait()
	close(done)
	scraper.Wait()
	awaitTraces(t, ts.URL, workers*rounds)

	var doc map[string]json.RawMessage
	if err := json.Unmarshal([]byte(scrape(t, ts.URL+"/debug/metrics")), &doc); err != nil {
		t.Fatal(err)
	}
	prom := promSamples(t, scrape(t, ts.URL+"/metrics"))
	num := func(key string) int64 {
		var v int64
		if err := json.Unmarshal(doc[key], &v); err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		return v
	}
	if got := num("requests"); got != workers*rounds {
		t.Errorf("requests = %d, want %d", got, workers*rounds)
	}
	if hits, misses, failures := num("cache_hits"), num("cache_misses"), num("failures"); hits+misses+failures != num("requests") {
		t.Errorf("cache_hits(%d) + cache_misses(%d) + failures(%d) != requests(%d)", hits, misses, failures, num("requests"))
	}
	if got := prom[requestSecondsMetric+"_count"]; got != workers*rounds {
		t.Errorf("%s_count = %g, want %d", requestSecondsMetric, got, workers*rounds)
	}
	for key := range doc {
		if key == "method_requests" || key == "latency_ms" {
			continue
		}
		v, ok := prom["sieved_"+key+"_total"]
		if !ok {
			v, ok = prom["sieved_"+key]
		}
		if !ok || int64(v) != num(key) {
			t.Errorf("/debug/metrics %s = %d, /metrics has %g (present %v)", key, num(key), v, ok)
		}
	}
	var methods map[string]int64
	if err := json.Unmarshal(doc["method_requests"], &methods); err != nil {
		t.Fatal(err)
	}
	for m, n := range methods {
		if got := prom[fmt.Sprintf("sieved_method_requests_total{method=%q}", m)]; int64(got) != n {
			t.Errorf("method %s: /debug/metrics %d, /metrics %g", m, n, got)
		}
	}
	for series := range prom {
		if key, ok := strings.CutSuffix(strings.TrimPrefix(series, "sieved_"), "_total"); ok && !strings.Contains(key, "{") {
			if _, ok := doc[key]; !ok {
				t.Errorf("/metrics counter %s has no /debug/metrics key", series)
			}
		}
	}
}

// TestMetricsIdleServer pins what a server exposes before its first request:
// the counters at zero and the overall request histogram with count 0, but
// no status-class, stage or method series, which appear once counted.
func TestMetricsIdleServer(t *testing.T) {
	ts := newTestServer(t, Config{})
	prom := scrape(t, ts.URL+"/metrics")
	for _, want := range []string{
		"sieved_requests_total 0\n",
		"# TYPE sieved_request_seconds histogram\n",
		`sieved_request_seconds_bucket{le="+Inf"} 0` + "\n",
		"sieved_request_seconds_count 0\n",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("idle /metrics missing %q in:\n%s", want, prom)
		}
	}
	for _, absent := range []string{"_class_", stageSecondsMetric, "sieved_method_requests_total"} {
		if strings.Contains(prom, absent) {
			t.Errorf("idle /metrics exposes %q:\n%s", absent, prom)
		}
	}
	want := `{"requests":0,"failures":0,"cache_hits":0,"cache_misses":0,"cache_entries":0,"computations":0,"coalesced":0,"batch_items":0,"peer_fills":0,"peer_proxied":0,"in_flight":0,"rejected":0,"rows_ingested":0,"method_requests":{},"latency_ms":{"p50":0,"p99":0}}` + "\n"
	if got := scrape(t, ts.URL+"/debug/metrics"); got != want {
		t.Errorf("idle /debug/metrics:\n got %s\nwant %s", got, want)
	}
}

// TestTraceStagesSorted pins the order the stage lookups' binary search
// relies on.
func TestTraceStagesSorted(t *testing.T) {
	if !slices.IsSorted(traceStages[:]) {
		t.Errorf("traceStages not sorted: %v", traceStages)
	}
}
