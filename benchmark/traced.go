package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/kde"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/server"
)

// span is one timed call the benchmark made into a layer. Spans of one
// replayed request share req; parent is the enclosing span's id (-1 at the
// root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out. The replay is
// single-threaded, so it needs no lock.
type tracer struct {
	origin time.Time
	spans  []span
}

func (t *tracer) begin(name string, parent, req int) int {
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Req: req, Name: name, Start: int64(time.Since(t.origin))})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) { t.spans[id].End = int64(time.Since(t.origin)) }

// around runs f inside a span.
func (t *tracer) around(name string, parent, req int, f func(id int)) {
	id := t.begin(name, parent, req)
	f(id)
	t.end(id)
}

// selfTimes returns, per layer name, the self time of each request's spans
// of that name summed: a span's duration minus the time its children cover
// (children run one after another, so that is the sum of their durations).
func (t *tracer) selfTimes() map[string][]time.Duration {
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.End - s.Start
		if s.Parent >= 0 {
			self[s.Parent] -= s.End - s.Start
		}
	}
	perReq := map[string]map[int]int64{}
	for i, s := range t.spans {
		if perReq[s.Name] == nil {
			perReq[s.Name] = map[int]int64{}
		}
		perReq[s.Name][s.Req] += self[i]
	}
	out := map[string][]time.Duration{}
	for name, byReq := range perReq {
		for _, ns := range byReq {
			out[name] = append(out[name], time.Duration(ns))
		}
	}
	return out
}

func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.Marshal(map[string]any{"spans": t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// inProcess is a server.Server driven through its handler on a recorder.
type inProcess struct {
	h  http.Handler
	in *inputs
	// ids and hitBody mirror the testbed's: learned in this server's warm-up.
	ids     map[string]string
	hitBody map[string][]byte
}

// newInProcess builds a server with the replicas' defaults and warms it with
// the workload's warm-up requests.
func newInProcess(in *inputs, warm []item) (*inProcess, error) {
	p := &inProcess{h: server.New(server.Config{}).Handler(), in: in, ids: map[string]string{}, hitBody: map[string][]byte{}}
	for _, it := range warm {
		rec, err := p.serve(it)
		if err != nil {
			return nil, err
		}
		if in.w.hits {
			if rec, err = p.serve(it); err != nil {
				return nil, err
			}
			p.hitBody[it.key()] = rec.Body.Bytes()
		}
		p.ids[it.key()] = decodeEnvelope(rec.Body.Bytes()).PlanID
	}
	return p, nil
}

func (p *inProcess) serve(it item) (*httptest.ResponseRecorder, error) {
	r, err := p.in.httpRequest(it, p.ids)
	if err != nil {
		return nil, err
	}
	req := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.ctype != "" {
		req.Header.Set("Content-Type", r.ctype)
	}
	rec := httptest.NewRecorder()
	p.h.ServeHTTP(rec, req)
	return rec, nil
}

// ok checks an in-process answer the way the timed phases check replica
// answers.
func (p *inProcess) ok(it item, rec *httptest.ResponseRecorder) bool {
	if rec.Code != http.StatusOK {
		return false
	}
	if p.in.w.hits {
		return bytes.Equal(rec.Body.Bytes(), p.hitBody[it.key()])
	}
	_, ok := envelope(rec.Body.Bytes(), false)
	return ok
}

// replay is what the in-process replay measured.
type replay struct {
	metrics           map[string]float64
	attempted, failed int
}

// replayInProcess replays the workload's request stream through in-process
// handlers. An untraced pass times bare ServeHTTP calls until a third of
// budget is spent; a traced pass on a fresh server replays the same requests
// with a span around each handler call, followed by spans around direct
// calls into each layer's public functions on the same inputs.
func replayInProcess(ctx context.Context, w *workload, seed int64, budget time.Duration, spansPath string) (*replay, error) {
	in, err := renderInputs(w)
	if err != nil {
		return nil, err
	}
	str := newStream(w, seed)
	warm := w.warmup(str)
	rp := &replay{metrics: map[string]float64{}}

	bare, err := newInProcess(in, warm)
	if err != nil {
		return nil, err
	}
	var items []item
	var untraced, hits, misses []float64
	start := time.Now()
	for len(items) == 0 || time.Since(start) < budget/3 {
		it := str.next()
		t0 := time.Now()
		rec, err := bare.serve(it)
		d := time.Since(t0)
		if err != nil {
			return nil, err
		}
		items = append(items, it)
		untraced = append(untraced, float64(d))
		rp.attempted++
		if !bare.ok(it, rec) {
			rp.failed++
		}
		if decodeEnvelope(rec.Body.Bytes()).Cached {
			hits = append(hits, float64(d))
		} else {
			misses = append(misses, float64(d))
		}
	}
	m := rp.metrics
	m["server.calls"] = float64(len(items))
	m["server.hit_us"] = median(hits) / 1e3
	m["server.miss_ms"] = median(misses) / 1e6

	traced, err := newInProcess(in, warm)
	if err != nil {
		return nil, err
	}
	tr := &tracer{origin: time.Now()}
	var handler []float64
	var bodyKB float64
	counts := map[string][]float64{}
	for i, it := range items {
		root := tr.begin("request", -1, i)
		h := tr.begin("server.handler", root, i)
		rec, err := traced.serve(it)
		tr.end(h)
		if err != nil {
			return nil, err
		}
		handler = append(handler, float64(tr.spans[h].End-tr.spans[h].Start))
		rp.attempted++
		if !traced.ok(it, rec) {
			rp.failed++
		}
		r, _ := in.httpRequest(it, traced.ids)
		bodyKB += float64(len(r.body)) / 1024
		tr.around("layers", root, i, func(id int) {
			err = callLayers(ctx, tr, id, i, in, it, r, rec.Body.Bytes(), counts)
		})
		tr.end(root)
		if err != nil {
			return nil, err
		}
	}
	// Both passes served the same requests, so pair them: the median of
	// traced/untraced per request.
	ratios := make([]float64, len(handler))
	for i := range handler {
		ratios[i] = handler[i] / untraced[i]
	}
	m["bench.trace_overhead_frac"] = median(ratios) - 1
	m["api.body_kb"] = bodyKB / float64(len(items))

	self := tr.selfTimes()
	medianOf := func(name string, unit time.Duration) float64 {
		var xs []float64
		for _, d := range self[name] {
			xs = append(xs, float64(d)/float64(unit))
		}
		return median(xs)
	}
	for name, unit := range map[string]time.Duration{
		"api.decode_us": time.Microsecond, "api.encode_us": time.Microsecond,
		"profiler.parse_ms": time.Millisecond, "workloads.gen_ms": time.Millisecond,
		"gpu.profile_ms": time.Millisecond, "gpu.features_ms": time.Millisecond,
		"core.stratify_ms": time.Millisecond, "kde.split_ms": time.Millisecond,
		"sampler.plan_ms": time.Millisecond, "pks.select_ms": time.Millisecond,
	} {
		m[name] = medianOf(strings.TrimSuffix(strings.TrimSuffix(name, "_ms"), "_us"), unit)
	}
	for _, name := range []string{"profiler.rows_per_ms", "core.rows", "core.strata", "kde.calls", "kde.tier3_rows", "pks.points"} {
		m[name] = mean(counts[name])
	}
	return rp, tr.write(spansPath)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// callLayers calls, each under its own span, the public function of every
// layer the server runs for this request: request decoding, then for a miss
// the profile source (CSV parse, or workload generation and profiling), the
// planner (core stratification and its Tier-3 KDE splits, a sampler
// strategy, or PKS selection), and finally the response envelope encoding.
// counts collects the per-call work counts.
func callLayers(ctx context.Context, tr *tracer, parent, req int, in *inputs, it item, r request, answer []byte, counts map[string][]float64) error {
	env := decodeEnvelope(answer)
	if it.op == opJSON {
		var sr api.SampleRequest
		var err error
		tr.around("api.decode", parent, req, func(int) { err = json.Unmarshal(r.body, &sr) })
		if err != nil {
			return err
		}
	}
	if !env.Cached {
		if err := planLayers(ctx, tr, parent, req, in, it, counts); err != nil {
			return err
		}
	}
	var err error
	tr.around("api.encode", parent, req, func(int) {
		_, err = json.Marshal(api.PlanEnvelope{PlanID: env.PlanID, Cached: env.Cached, Plan: env.Plan})
	})
	return err
}

// planLayers times the miss path's layers for one request.
func planLayers(ctx context.Context, tr *tracer, parent, req int, in *inputs, it item, counts map[string][]float64) error {
	var rows []sieve.InvocationProfile
	var w *sieve.Workload
	var hw *sieve.Hardware
	var err error
	if it.op == opCSV {
		var p *sieve.Profile
		var d time.Duration
		tr.around("profiler.parse", parent, req, func(int) {
			t0 := time.Now()
			p, err = sieve.ReadProfileCSV(bytes.NewReader(in.csv[it.profile]))
			d = time.Since(t0)
		})
		if err != nil {
			return err
		}
		rows = sieve.ProfileRows(p)
		counts["profiler.rows_per_ms"] = append(counts["profiler.rows_per_ms"], float64(len(rows))/millis(d))
	} else {
		spec := in.w.profiles[it.profile]
		tr.around("workloads.gen", parent, req, func(int) { w, err = sieve.GenerateWorkload(spec.workload, spec.scale) })
		if err != nil {
			return err
		}
		tr.around("gpu.profile", parent, req, func(int) {
			if hw, err = sieve.NewHardware(sieve.Ampere()); err != nil {
				return
			}
			var p *sieve.Profile
			if p, err = sieve.ProfileInstructionCounts(w, hw); err == nil {
				rows = sieve.ProfileRows(p)
			}
		})
		if err != nil {
			return err
		}
	}
	opts := coreOptions(it.theta)
	switch it.method {
	case "":
		var plan *core.Result
		tr.around("core.stratify", parent, req, func(int) { plan, err = core.StratifyContext(ctx, rows, opts) })
		if err != nil {
			return err
		}
		counts["core.rows"] = append(counts["core.rows"], float64(len(rows)))
		counts["core.strata"] = append(counts["core.strata"], float64(len(plan.Strata)))
		return kdeLayer(ctx, tr, parent, req, rows, plan, opts.Theta, counts)
	case "pks":
		var features [][]float64
		var golden []float64
		tr.around("gpu.features", parent, req, func(int) {
			var f *sieve.Profile
			if f, err = sieve.ProfileFull(w, hw); err == nil {
				features, golden = sieve.FeatureRows(f), hw.MeasureWorkload(w)
			}
		})
		if err != nil {
			return err
		}
		tr.around("pks.select", parent, req, func(int) {
			_, err = pks.SelectContext(ctx, features, golden, pks.Options{Seed: int64(it.seed), Parallelism: runtime.GOMAXPROCS(0)})
		})
		counts["pks.points"] = append(counts["pks.points"], float64(len(features)))
		return err
	default:
		tr.around("sampler.plan", parent, req, func(int) {
			_, err = sampler.Run(ctx, it.method, &sampler.Profile{Rows: rows}, methodOptions(it))
		})
		return err
	}
}

// kdeLayer re-runs the KDE split core.Stratify made for each Tier-3 kernel of
// the plan, on that kernel's instruction counts in invocation order. It is a
// part of core.stratify's time, shown on its own.
func kdeLayer(ctx context.Context, tr *tracer, parent, req int, rows []sieve.InvocationProfile, plan *core.Result, theta float64, counts map[string][]float64) error {
	byIndex := make(map[int]float64, len(rows))
	for _, r := range rows {
		byIndex[r.Index] = r.InstructionCount
	}
	perKernel := map[string][]int{}
	for _, s := range plan.Strata {
		if s.Tier == core.Tier3 {
			perKernel[s.Kernel] = append(perKernel[s.Kernel], s.Invocations...)
		}
	}
	kernels := make([]string, 0, len(perKernel))
	for k := range perKernel {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	var calls, tier3 float64
	var err error
	if len(kernels) == 0 {
		counts["kde.calls"] = append(counts["kde.calls"], 0)
		counts["kde.tier3_rows"] = append(counts["kde.tier3_rows"], 0)
		return nil
	}
	tr.around("kde.split", parent, req, func(int) {
		for _, k := range kernels {
			idx := perKernel[k]
			sort.Ints(idx)
			xs := make([]float64, len(idx))
			for i, j := range idx {
				xs[i] = byIndex[j]
			}
			if _, err = kde.SplitUnderCoVContext(ctx, xs, theta); err != nil {
				return
			}
			calls++
			tier3 += float64(len(xs))
		}
	})
	counts["kde.calls"] = append(counts["kde.calls"], calls)
	counts["kde.tier3_rows"] = append(counts["kde.tier3_rows"], tier3)
	return err
}
