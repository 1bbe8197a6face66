package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestOpenLoopCountsStallBehind stalls the server once and checks that the
// requests queued behind the stall report it. A generator that timed each
// request from its actual send (coordinated omission) would see at most the
// two requests in flight during the stall as slow.
func TestOpenLoopCountsStallBehind(t *testing.T) {
	const (
		rate  = 200.0
		n     = 200
		stall = 300 * time.Millisecond
	)
	var mu sync.Mutex
	var served atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		if served.Add(1) == 40 {
			time.Sleep(stall)
		}
		mu.Unlock()
	}))
	defer srv.Close()
	cli := newClient()
	defer cli.close()

	samples := openLoop(context.Background(), 0, n, rate, func(worker, i int) bool {
		status, _ := cli.do(worker, srv.URL, request{method: "GET", path: "/"})
		return status == http.StatusOK
	})
	var slow int
	for _, s := range samples {
		if !s.ok {
			t.Fatalf("request %d failed", s.idx)
		}
		if s.latency >= 100*time.Millisecond {
			slow++
		}
	}
	// A 300 ms stall at 200 req/s holds back about 60 requests; the ones due
	// in its first two thirds wait at least 100 ms.
	if slow < 30 {
		t.Fatalf("%d requests slower than 100 ms; the stall should delay about 40", slow)
	}
	if lag := lagQuantile(samples, 0.5); lag > 5 {
		t.Fatalf("median generator lag %.3f ms: the generator itself fell behind", lag)
	}
}

func TestClosedLoopNumbersRequestsFromFirst(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]bool{}
	samples, elapsed := closedLoop(context.Background(), 50*time.Millisecond, 7, func(worker, i int) bool {
		mu.Lock()
		defer mu.Unlock()
		if seen[i] {
			t.Errorf("request %d sent twice", i)
		}
		seen[i] = true
		time.Sleep(time.Millisecond)
		return true
	})
	if elapsed < 50*time.Millisecond || len(samples) == 0 {
		t.Fatalf("ran %v with %d samples", elapsed, len(samples))
	}
	for i := 7; i < 7+len(samples); i++ {
		if !seen[i] {
			t.Fatalf("request %d skipped: indices must run contiguously from 7", i)
		}
	}
}
