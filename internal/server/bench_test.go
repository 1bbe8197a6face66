package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"testing"

	"github.com/gpusampling/sieve/api"
)

// loadFixtureCSV reads the checked-in lmc profile (2485 invocations).
func loadFixtureCSV(tb testing.TB) string {
	tb.Helper()
	body, err := os.ReadFile("../../testdata/profile_lmc_scale0.01.csv")
	if err != nil {
		tb.Fatal(err)
	}
	return string(body)
}

// benchPost posts csv and fails unless the answer is a plan envelope whose
// cached flag is wantCached, so a hit benchmark cannot silently time misses.
func benchPost(b *testing.B, url, csv string, wantCached bool) {
	b.Helper()
	resp, err := http.Post(url, "text/csv", strings.NewReader(csv))
	if err != nil {
		b.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b.Fatalf("status = %d", resp.StatusCode)
	}
	var env api.PlanEnvelope
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		b.Fatalf("decode envelope: %v", err)
	}
	if env.Cached != wantCached {
		b.Fatalf("cached = %v, want %v", env.Cached, wantCached)
	}
}

// BenchmarkServeSampleMiss measures a full request: decode, hash, stratify
// the 2485-row lmc profile, marshal, cache. A fresh server per iteration
// keeps every POST a cache miss.
func BenchmarkServeSampleMiss(b *testing.B) {
	csv := loadFixtureCSV(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		ts := httptest.NewServer(New(Config{}).Handler())
		b.StartTimer()
		benchPost(b, ts.URL+"/v1/sample", csv, false)
		b.StopTimer()
		ts.Close()
		b.StartTimer()
	}
}

// BenchmarkServeSampleHit measures the cache-hit fast path: content hash +
// LRU lookup + response write, no stratification.
func BenchmarkServeSampleHit(b *testing.B) {
	csv := loadFixtureCSV(b)
	ts := httptest.NewServer(New(Config{}).Handler())
	defer ts.Close()
	benchPost(b, ts.URL+"/v1/sample", csv, false) // warm the cache
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchPost(b, ts.URL+"/v1/sample", csv, true)
	}
}
