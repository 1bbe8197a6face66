package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// conns is the generator's concurrency: two workers, so at most two requests
// are in flight (the benchmark machine has two cores).
const conns = 2

// sample is one timed request.
type sample struct {
	latency time.Duration // open loop: done − due; closed loop: done − sent
	lag     time.Duration // sent − when the request could first have gone out
	ok      bool
	idx     int // request index
}

// sendFunc sends request i on the given worker and reports whether the
// answer was correct.
type sendFunc func(worker, i int) bool

// openLoop sends requests first … first+n−1 on a fixed schedule, the i-th
// of them due at start + i/rate, over conns workers. Each request is timed from its due
// time, so a stall also delays — and shows up in — every request queued
// behind it, instead of hiding in the gap before the next send.
func openLoop(ctx context.Context, first, n int, rate float64, send sendFunc) []sample {
	out := make([]sample, n)
	interval := time.Duration(float64(time.Second) / rate)
	start := time.Now()
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := time.Now()
			for ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				due := start.Add(time.Duration(i) * interval)
				if d := time.Until(due); d > 0 {
					time.Sleep(d)
				}
				ready := due
				if free.After(ready) {
					ready = free
				}
				sent := time.Now()
				ok := send(w, first+i)
				free = time.Now()
				out[i] = sample{latency: free.Sub(due), lag: sent.Sub(ready), ok: ok, idx: first + i}
			}
		}(w)
	}
	wg.Wait()
	return out
}

// closedLoop runs conns workers back to back for d, each sending its next
// request as soon as the previous one is answered. Requests are numbered
// from first on.
func closedLoop(ctx context.Context, d time.Duration, first int, send sendFunc) ([]sample, time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample, conns)
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := time.Now()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				i := int(next.Add(1)) - 1
				sent := time.Now()
				ok := send(w, i)
				done := time.Now()
				per[w] = append(per[w], sample{latency: done.Sub(sent), lag: sent.Sub(free), ok: ok, idx: i})
				free = done
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var out []sample
	for _, s := range per {
		out = append(out, s...)
	}
	return out, elapsed
}

// client sends requests to the replicas, one keep-alive connection per
// worker and replica. Each worker reads answers into its own reused buffer,
// so the generator does not allocate a fresh body per request.
type client struct {
	workers []*http.Client
	bufs    []*bytes.Buffer
}

func newClient() *client {
	c := &client{}
	for w := 0; w < conns; w++ {
		c.bufs = append(c.bufs, new(bytes.Buffer))
		c.workers = append(c.workers, &http.Client{
			Timeout: 60 * time.Second,
			Transport: &http.Transport{
				MaxConnsPerHost:     1,
				MaxIdleConnsPerHost: 1,
				DisableCompression:  true,
			},
		})
	}
	return c
}

// do sends one request and returns its status and body (status 0 on a
// transport error). The body is valid until the worker's next request.
func (c *client) do(worker int, base string, r request) (int, []byte) {
	var body io.Reader
	if r.body != nil {
		body = bytes.NewReader(r.body)
	}
	req, err := http.NewRequest(r.method, base+r.path, body)
	if err != nil {
		return 0, nil
	}
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	resp, err := c.workers[worker].Do(req)
	if err != nil {
		return 0, nil
	}
	defer resp.Body.Close()
	buf := c.bufs[worker]
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return 0, nil
	}
	return resp.StatusCode, buf.Bytes()
}

func (c *client) close() {
	for _, w := range c.workers {
		w.CloseIdleConnections()
	}
}
