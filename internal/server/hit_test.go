package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"github.com/gpusampling/sieve"
)

// maxHitAllocs and maxHitBytes pin the steady state of one in-process CSV
// cache hit: request tracing, the content hash and the response headers.
// None of them depends on the profile's size.
const (
	maxHitAllocs = 120
	maxHitBytes  = 64 << 10
)

// TestHitAllocsIndependentOfProfileSize drives the hit path through the
// handler with a reused request and a presized recorder, so what is counted
// is the server's own work. A small profile and a profile of more than
// 400 KB must cost the same number of allocations, and neither may allocate
// anything near the profile's size: the body lands in a pooled buffer, is
// hashed in place, and the stored envelope is written as is.
func TestHitAllocsIndependentOfProfileSize(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops buffers at random, so allocation counts vary")
	}
	h := New(Config{}).Handler()
	large := profileCSV(3600)
	if len(large) < 400<<10 {
		t.Fatalf("large profile is %d bytes, want at least 400 KiB", len(large))
	}
	out := make([]byte, 0, 1<<20)
	perHit := func(csv string) (allocs float64, bytesPerHit uint64) {
		body := strings.NewReader(csv)
		req := httptest.NewRequest(http.MethodPost, "/v1/sample", body)
		req.Header.Set("Content-Type", "text/csv")
		var rec *httptest.ResponseRecorder
		serve := func() {
			body.Reset(csv)
			req.Body = io.NopCloser(body)
			rec = &httptest.ResponseRecorder{HeaderMap: make(http.Header), Body: bytes.NewBuffer(out[:0]), Code: http.StatusOK}
			h.ServeHTTP(rec, req)
		}
		serve() // miss: computes and caches the plan
		serve()
		var env sampleEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || rec.Code != http.StatusOK || !env.Cached {
			t.Fatalf("warm-up hit: status %d, cached %v, err %v", rec.Code, env.Cached, err)
		}
		if got := rec.Header().Get("Content-Length"); got != strconv.Itoa(rec.Body.Len()) {
			t.Fatalf("hit Content-Length %q, body is %d bytes", got, rec.Body.Len())
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		allocs = testing.AllocsPerRun(runs, serve) // plus one warm-up call
		runtime.ReadMemStats(&after)
		bytesPerHit = (after.TotalAlloc - before.TotalAlloc) / (runs + 1)
		t.Logf("%d-byte profile: %.0f allocs, %d bytes per hit", len(csv), allocs, bytesPerHit)
		return allocs, bytesPerHit
	}
	small, smallBytes := perHit(testCSV())
	big, bigBytes := perHit(large)
	if small != big {
		t.Fatalf("allocs per hit depend on profile size: %.0f for %d bytes, %.0f for %d bytes", small, len(testCSV()), big, len(large))
	}
	if small > maxHitAllocs {
		t.Fatalf("allocs per hit = %.0f, want at most %d", small, maxHitAllocs)
	}
	if max(smallBytes, bigBytes) > maxHitBytes {
		t.Fatalf("bytes per hit = %d and %d, want at most %d", smallBytes, bigBytes, maxHitBytes)
	}
}

// TestClaimedContentLengthDoesNotPresize: a Content-Length far larger than
// the body sent (here the whole default body limit) reserves at most the
// presize ceiling, not the claimed size.
func TestClaimedContentLengthDoesNotPresize(t *testing.T) {
	h := New(Config{}).Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/sample", strings.NewReader("kernel,index\n"))
	req.Header.Set("Content-Type", "text/csv")
	req.ContentLength = 32 << 20
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	h.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 for a truncated profile; body %s", rec.Code, rec.Body)
	}
	if got := after.TotalAlloc - before.TotalAlloc; got > bodyPresizeMax+256<<10 {
		t.Fatalf("request allocated %d bytes for a 13-byte body, want at most the %d-byte presize ceiling plus slack", got, bodyPresizeMax)
	}
}

// TestConcurrentHitsAndMissesKeepPlans races CSV cache hits against CSV
// misses on one replica (run it under -race). Hits release their pooled body
// buffers while misses are still computing, so a miss that kept a view of
// its buffer would compute from another request's bytes. Every miss plan
// must equal the in-process sieve.SampleContext plan of its own profile, and
// every hit must repeat its warm-up bytes.
func TestConcurrentHitsAndMissesKeepPlans(t *testing.T) {
	ts := newTestServer(t, Config{})
	const workers, rounds = 4, 4
	csvs := make([]string, workers)
	warm := make([][]byte, workers)
	for w := range csvs {
		csvs[w] = profileCSV(24 + 8*w)
		postCSV(t, ts.URL+"/v1/sample?theta=0.4", csvs[w])
		status, body := postCSV(t, ts.URL+"/v1/sample?theta=0.4", csvs[w])
		if status != http.StatusOK {
			t.Fatalf("warm-up status %d: %s", status, body)
		}
		warm[w] = body
	}

	type miss struct {
		worker int
		theta  float64
		plan   []byte
	}
	var (
		mu     sync.Mutex
		misses []miss
		wg     sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				theta := 0.5 + 0.01*float64(w*rounds+r)
				status, body := post(ts.URL+"/v1/sample?theta="+strconv.FormatFloat(theta, 'g', -1, 64), csvs[w])
				var env sampleEnvelope
				if err := json.Unmarshal(body, &env); status != http.StatusOK || err != nil || env.Cached {
					t.Errorf("miss θ=%g: status %d, cached %v, err %v", theta, status, env.Cached, err)
					return
				}
				mu.Lock()
				misses = append(misses, miss{w, theta, env.Plan})
				mu.Unlock()
				status, body = post(ts.URL+"/v1/sample?theta=0.4", csvs[(w+r)%workers])
				if status != http.StatusOK || !bytes.Equal(body, warm[(w+r)%workers]) {
					t.Errorf("hit on profile %d: status %d, bytes differ from its warm-up answer", (w+r)%workers, status)
				}
			}
		}(w)
	}
	wg.Wait()

	for _, m := range misses {
		p, err := sieve.ReadProfileCSV(strings.NewReader(csvs[m.worker]))
		if err != nil {
			t.Fatal(err)
		}
		plan, err := sieve.SampleContext(context.Background(), sieve.ProfileRows(p), sieve.Options{
			Theta:         m.theta,
			Selection:     sieve.SelectDominantCTAFirst,
			Tier3Splitter: sieve.SplitKDE,
			Parallelism:   1,
		})
		if err != nil {
			t.Fatal(err)
		}
		want, err := marshalPlan(plan)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(m.plan, want) {
			t.Errorf("profile %d θ=%g: served plan differs from the in-process plan", m.worker, m.theta)
		}
	}
	if len(misses) != workers*rounds {
		t.Fatalf("%d misses answered, want %d", len(misses), workers*rounds)
	}
}

// post is postCSV without the test handle, for use off the test goroutine.
func post(url, csv string) (int, []byte) {
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		return 0, []byte(fmt.Sprint(err))
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, []byte(fmt.Sprint(err))
	}
	return resp.StatusCode, body
}
