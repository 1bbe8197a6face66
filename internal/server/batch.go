package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"

	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/obs"
)

// The batch wire types live in the exported api package; the server consumes
// them through aliases (see the note on SampleRequest in server.go).
type (
	BatchRequest    = api.BatchRequest
	BatchItemResult = api.BatchItemResult
)

// serveBatch answers POST /v1/batch: one scheduler pass over many profiles.
// The batch handler itself holds no worker slot — admission control lives
// where the compute happens, in each item's flight leader — so cache hits
// and coalesced joins cost nothing against the concurrency budget, and a
// batch can never hold a slot while waiting on a flight whose leader needs
// one (the deadlock an earlier whole-batch slot produced under cache-hostile
// load). Each item reuses the plan cache and the in-flight coalescing table,
// so a batch racing identical single requests computes each plan once. Item
// envelopes are streamed (and flushed) as they complete, so a long batch
// delivers results incrementally.
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request) int {
	_, decodeSpan := obs.StartSpan(r.Context(), stageDecode)
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		decodeSpan.End()
		return s.writeError(w, err)
	}
	var breq BatchRequest
	err = json.Unmarshal(body.b, &breq)
	body.release()
	decodeSpan.End()
	if err != nil {
		return s.writeError(w, badRequest{fmt.Errorf("decode batch request: %w", err)})
	}
	if len(breq.Items) == 0 {
		return s.writeError(w, badRequest{errors.New("batch has no items")})
	}
	if len(breq.Items) > s.cfg.MaxBatchItems {
		return s.writeError(w, badRequest{fmt.Errorf("batch has %d items, limit is %d", len(breq.Items), s.cfg.MaxBatchItems)})
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	_, _ = io.WriteString(w, `{"items":[`)
	for i := range breq.Items {
		if i > 0 {
			_, _ = io.WriteString(w, ",")
		}
		// Each item traces under its own span, so the batch's trace shows the
		// per-item serving path (cache hit, flight join, compute) in sequence.
		ictx, itemSpan := obs.StartSpan(ctx, "item")
		itemSpan.SetAttr("index", i)
		item := s.batchItem(ictx, &breq.Items[i])
		itemSpan.End()
		buf, err := json.Marshal(item)
		if err != nil {
			buf = []byte(`{"status":500,"error":"marshal item result"}`)
		}
		_, _ = w.Write(buf)
		if flusher != nil {
			flusher.Flush()
		}
	}
	_, _ = io.WriteString(w, "]}\n")
	return http.StatusOK
}

// batchItem resolves and answers one batch item. A computing item's flight
// leader acquires its own worker slot exactly like a single request's would;
// hits and joins need none. Cache hits and coalesced joins count toward the
// same metrics as single requests; batch_items tracks the item volume
// itself.
func (s *Server) batchItem(ctx context.Context, req *SampleRequest) BatchItemResult {
	s.metrics.BatchItems.Add(1)
	rv, err := s.resolve(req, nil)
	if err != nil {
		s.metrics.Failures.Add(1)
		return BatchItemResult{Status: statusFor(err), Error: err.Error()}
	}
	s.metrics.MethodRequests(rv.method).Add(1)
	_, cacheSpan := obs.StartSpan(ctx, stageCache)
	id := rv.key("sample")
	e, hit := s.cache.get(id)
	cacheSpan.SetAttr("hit", hit)
	cacheSpan.End()
	if hit {
		s.metrics.CacheHits.Add(1)
		return BatchItemResult{Status: http.StatusOK, PlanID: id, Cached: true, Plan: e.doc}
	}
	s.metrics.CacheMisses.Add(1)
	doc, shared, err := s.computePlan(ctx, id, rv)
	if err != nil {
		s.metrics.Failures.Add(1)
		if s.cfg.Logger != nil {
			s.cfg.Logger.Warn("batch item failed", "status", statusFor(err), "error", err.Error())
		}
		return BatchItemResult{Status: statusFor(err), PlanID: id, Error: err.Error()}
	}
	return BatchItemResult{Status: http.StatusOK, PlanID: id, Coalesced: shared, Plan: doc}
}
