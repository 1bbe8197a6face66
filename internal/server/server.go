// Package server implements sieved, a long-lived HTTP JSON service that
// hosts the Sieve sampling pipeline as a shared backend: many concurrent
// "give me a sampling plan for this profile" requests over one process, the
// way PKA-style profiling infrastructure is consumed.
//
// Endpoints:
//
//	POST /v1/sample        profile CSV (text/csv) or JSON envelope → sampling plan
//	POST /v1/batch         many profiles in one request → per-item plan envelopes
//	POST /v1/characterize  same input as /v1/sample → per-kernel workload characterization
//	GET  /v1/plans/{id}    content-hash-addressed plan lookup
//	GET  /healthz          liveness
//	GET  /debug/metrics    expvar counters + latency quantiles (JSON)
//	GET  /metrics          the same metrics in Prometheus text exposition format
//
// Every sampling run is bounded three ways: a worker-slot semaphore caps
// concurrent compute, a per-request timeout caps each run's wall time, and
// http.MaxBytesReader caps request bodies. Plans are cached in a
// content-hash-addressed LRU keyed by (profile source, resolved options), so
// identical requests are computed once and cache hits return byte-identical
// plan JSON.
//
// Concurrent misses on one content hash coalesce onto a single computation
// through a key-indexed in-flight table: the computation runs detached under
// its own timeout (a leader's client disconnect does not fail the
// followers), while each waiting request still honors its own context. With
// peers configured (SetPeers), a consistent-hash ring routes each content
// hash to its owning replica — non-owners proxy sample requests to the owner
// and fetch-and-fill cached plans from it, so the cluster computes each plan
// once and any replica can serve GET /v1/plans/{id}.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"mime"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/obs"
	"github.com/gpusampling/sieve/internal/pks"
	"github.com/gpusampling/sieve/internal/sampler"
)

// Config bounds the service. The zero value serves with sane defaults.
type Config struct {
	// MaxConcurrent is the worker-slot count: at most this many sampling or
	// characterization runs compute at once (GOMAXPROCS if zero). Further
	// requests wait for a slot until their context expires.
	MaxConcurrent int
	// RequestTimeout caps one run's compute wall time (60s if zero).
	RequestTimeout time.Duration
	// MaxBodyBytes caps request bodies, CSV profiles included (32 MiB if
	// zero).
	MaxBodyBytes int64
	// CacheEntries bounds the plan LRU (128 if zero).
	CacheEntries int
	// MaxBatchItems caps the item count of one POST /v1/batch request (64 if
	// zero).
	MaxBatchItems int
	// Parallelism is the per-request sampling worker default when the
	// request does not choose its own (0 = GOMAXPROCS).
	Parallelism int
	// TraceEntries bounds the completed-trace ring store behind
	// GET /debug/traces (256 if zero). Old traces are overwritten once the
	// store is full.
	TraceEntries int
	// Logger, when set, receives one structured access log line per request
	// (method, path, status, duration) plus error detail for failed runs.
	// Nil disables request logging.
	Logger *slog.Logger
}

func (c Config) withDefaults() Config {
	if c.MaxConcurrent <= 0 {
		c.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 32 << 20
	}
	if c.CacheEntries <= 0 {
		c.CacheEntries = 128
	}
	if c.MaxBatchItems <= 0 {
		c.MaxBatchItems = 64
	}
	if c.TraceEntries <= 0 {
		c.TraceEntries = 256
	}
	return c
}

// Server hosts the sampling pipeline behind an http.Handler.
type Server struct {
	cfg     Config
	slots   chan struct{}
	cache   *planCache
	metrics metrics
	mux     *http.ServeMux
	flights flightGroup
	traces  *traceStore
	shard   atomic.Pointer[ring] // nil = single node, everything local
	peer    *http.Client
	// preCompute, when set (tests only), runs at the start of every
	// coalesced computation before the worker slot is acquired, so tests can
	// hold a flight open while concurrent requests pile onto it.
	preCompute func(id string)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:    cfg,
		slots:  make(chan struct{}, cfg.MaxConcurrent),
		cache:  newPlanCache(cfg.CacheEntries),
		mux:    http.NewServeMux(),
		traces: newTraceStore(cfg.TraceEntries),
		peer:   &http.Client{},
	}
	s.flights.onJoin = func() { s.metrics.Coalesced.Add(1) }
	s.metrics.started() // pin uptime's epoch to construction, not first scrape
	s.mux.HandleFunc("POST /v1/sample", s.traced(s.serveSample))
	s.mux.HandleFunc("POST /v1/batch", s.traced(s.serveBatch))
	s.mux.HandleFunc("POST /v1/characterize", s.traced(s.serveCharacterize))
	s.mux.HandleFunc("GET /v1/plans/{id}", s.traced(s.servePlanGet))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /debug/metrics", s.metrics.handler(s.cache.len))
	s.mux.HandleFunc("GET /metrics", s.metrics.prometheus(s.cache.len))
	s.mux.HandleFunc("GET /debug/traces", s.handleTraces)
	s.mux.HandleFunc("GET /debug/traces/{id}", s.handleTraceGet)
	return s
}

// SetPeers (re)configures consistent-hash shard routing over the replica set.
// self is this replica's advertised base URL; peers lists the others (or the
// whole set — self is deduplicated in). An empty peer list, or a list that
// collapses to just self, disables routing: the server degrades gracefully
// to single-node operation.
func (s *Server) SetPeers(self string, peers []string) error {
	r, err := newRing(self, peers)
	if err != nil {
		return err
	}
	s.shard.Store(r)
	return nil
}

// SplitPeers parses a comma-separated -peers flag value into normalized base
// URLs for SetPeers.
func SplitPeers(csv string) []string { return splitPeers(csv) }

func (s *Server) shardRing() *ring { return s.shard.Load() }

// selfURL is this replica's advertised base URL ("" when no ring is
// configured).
func (s *Server) selfURL() string {
	if r := s.shardRing(); r != nil {
		return r.self
	}
	return ""
}

// handleHealthz answers GET /healthz. The JSON body reports liveness plus
// ring membership — {status, self, peers, version} — so a load generator or
// operator can discover the replica set from any one replica. Probes that
// only want the old bare-string liveness check ask with Accept: text/plain
// and get exactly "ok".
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if strings.Contains(r.Header.Get("Accept"), "text/plain") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, "ok")
		return
	}
	h := api.Health{Status: "ok", Version: api.Version}
	if ring := s.shardRing(); ring != nil {
		h.Self = ring.self
		h.Peers = append([]string(nil), ring.nodes...)
	}
	writeJSON(w, http.StatusOK, h)
}

// statusRecorder captures the response status for the access log.
type statusRecorder struct {
	http.ResponseWriter
	status int
}

func (r *statusRecorder) WriteHeader(code int) {
	r.status = code
	r.ResponseWriter.WriteHeader(code)
}

// Flush forwards http.Flusher so handlers that stream — the per-item batch
// envelopes — still flush when wrapped by the access logger. Without this
// the wrapper swallows the interface and streamed responses buffer until the
// handler returns.
func (r *statusRecorder) Flush() {
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Handler returns the routed handler, wrapped in structured access logging
// when Config.Logger is set.
func (s *Server) Handler() http.Handler {
	if s.cfg.Logger == nil {
		return s.mux
	}
	log := s.cfg.Logger
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rec := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
		s.mux.ServeHTTP(rec, r)
		log.Info("request",
			"method", r.Method,
			"path", r.URL.Path,
			"status", rec.status,
			"duration_ms", float64(time.Since(start))/float64(time.Millisecond))
	})
}

// Metrics exposes the counters, e.g. for global expvar publication.
func (s *Server) Metrics() *metrics { return &s.metrics }

// The wire types live in the exported api package — the supported
// integration surface for out-of-process clients — and the server consumes
// them through aliases so every existing reference keeps compiling and the
// marshaled bytes stay identical (pinned by the golden wire tests).
type (
	RequestOptions = api.RequestOptions
	SampleRequest  = api.SampleRequest
)

// badRequest marks an error as caller-caused (HTTP 400).
type badRequest struct{ err error }

func (b badRequest) Error() string { return b.err.Error() }
func (b badRequest) Unwrap() error { return b.err }

// statusFor maps an error onto the HTTP status the API contract promises:
// oversized bodies 413, caller mistakes 400, well-formed but unusable
// profiles 422, expired deadlines 504, client-abandoned work 499 (nginx's
// convention), anything else 500.
func statusFor(err error) int {
	var tooBig *http.MaxBytesError
	var caller badRequest
	switch {
	case errors.As(err, &tooBig):
		return http.StatusRequestEntityTooLarge
	case errors.Is(err, sieve.ErrEmptyProfile), errors.Is(err, sieve.ErrSampledPlan):
		return http.StatusUnprocessableEntity
	case errors.Is(err, sieve.ErrInvalidTheta):
		return http.StatusBadRequest
	case errors.As(err, &caller):
		return http.StatusBadRequest
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499
	default:
		return http.StatusInternalServerError
	}
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// writeError answers a failed request and returns the status it wrote, so
// handlers can report it to the latency breakdown.
func (s *Server) writeError(w http.ResponseWriter, err error) int {
	s.metrics.Failures.Add(1)
	status := statusFor(err)
	if s.cfg.Logger != nil {
		s.cfg.Logger.Warn("request failed", "status", status, "error", err.Error())
	}
	writeJSON(w, status, &api.Error{Message: err.Error()})
	return status
}

// decodeRequest reads the bounded body and normalizes both accepted shapes —
// raw CSV with query-parameter options, or the JSON envelope — into a
// SampleRequest. A text/csv body is not copied into the request: it comes
// back as csv, the pooled read buffer, which the caller hashes in place and
// releases once the response is written (nil for a JSON body).
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (req *SampleRequest, csv *bodyBuf, err error) {
	body, err := readBody(w, r, s.cfg.MaxBodyBytes)
	if err != nil {
		return nil, nil, err
	}
	req = &SampleRequest{}
	ct := r.Header.Get("Content-Type")
	if mt, _, err := mime.ParseMediaType(ct); err == nil {
		ct = mt
	}
	if ct == "text/csv" || ct == "application/csv" {
		if err := optionsFromQuery(r.URL.Query(), &req.Options); err != nil {
			body.release()
			return nil, nil, badRequest{err}
		}
		return req, body, nil
	}
	defer body.release()
	if err := json.Unmarshal(body.b, req); err != nil {
		return nil, nil, badRequest{fmt.Errorf("decode request: %w", err)}
	}
	return req, nil, nil
}

// optionsFromQuery parses ?theta=&selection=&splitter=&parallelism=&stream=
// &reservoir_size=&seed=&arch=&method= for the raw-CSV request shape.
func optionsFromQuery(q url.Values, o *RequestOptions) error {
	var err error
	get := func(key string, parse func(string) error) {
		if err != nil {
			return
		}
		if v := q.Get(key); v != "" {
			if perr := parse(v); perr != nil {
				err = fmt.Errorf("query %s=%q: %w", key, v, perr)
			}
		}
	}
	get("theta", func(v string) error { f, e := strconv.ParseFloat(v, 64); o.Theta = f; return e })
	get("parallelism", func(v string) error { n, e := strconv.Atoi(v); o.Parallelism = n; return e })
	get("reservoir_size", func(v string) error { n, e := strconv.Atoi(v); o.ReservoirSize = n; return e })
	get("seed", func(v string) error { n, e := strconv.ParseUint(v, 10, 64); o.Seed = n; return e })
	get("stream", func(v string) error { b, e := strconv.ParseBool(v); o.Stream = b; return e })
	o.Selection = q.Get("selection")
	o.Splitter = q.Get("splitter")
	o.Arch = q.Get("arch")
	o.Method = q.Get("method")
	return err
}

// resolved is a fully-validated request: concrete sieve options plus the
// profile source, ready to hash and run.
type resolved struct {
	req *SampleRequest
	// csv is a text/csv body still in the pooled request buffer; it is only
	// hashed in place. detach moves it into req.ProfileCSV before anything
	// that can outlive the handler (proxy hop, flight) sees the request.
	csv    []byte
	opts   sieve.Options
	stream sieve.StreamOptions
	arch   string
	// method is the canonicalized sampling methodology ("sieve" for the
	// default / empty wire value).
	method string
}

// resolve validates the request and turns the wire options into sieve
// options. csv is a raw text/csv body (see resolved.csv), nil for the JSON
// shape. Validation failures are badRequest (400).
func (s *Server) resolve(req *SampleRequest, csv []byte) (*resolved, error) {
	fromCSV := len(csv) > 0 || req.ProfileCSV != ""
	if fromCSV == (req.Workload != "") {
		return nil, badRequest{errors.New("exactly one of profile_csv (or a text/csv body) and workload must be given")}
	}
	o := sieve.Options{Theta: req.Options.Theta}
	// On the wire θ=0 means "paper default". Canonicalize it here, before
	// the options are hashed, so an unset θ and an explicit default-θ
	// address one cache entry instead of computing identical plans twice
	// (negative θ still flows through to the sampler's ErrInvalidTheta).
	if o.Theta == 0 {
		o.Theta = core.DefaultTheta
	}
	switch req.Options.Selection {
	case "", "dominant-cta-first":
		o.Selection = sieve.SelectDominantCTAFirst
	case "first-chronological":
		o.Selection = sieve.SelectFirstChronological
	case "max-cta":
		o.Selection = sieve.SelectMaxCTA
	default:
		return nil, badRequest{fmt.Errorf("unknown selection policy %q", req.Options.Selection)}
	}
	switch req.Options.Splitter {
	case "", "kde":
		o.Tier3Splitter = sieve.SplitKDE
	case "equal-width":
		o.Tier3Splitter = sieve.SplitEqualWidth
	case "gmm":
		o.Tier3Splitter = sieve.SplitGMM
	default:
		return nil, badRequest{fmt.Errorf("unknown splitter %q", req.Options.Splitter)}
	}
	// The server owns its worker budget: a request may lower its
	// parallelism but not exceed the configured per-request default.
	limit := s.cfg.Parallelism
	if limit <= 0 {
		limit = runtime.GOMAXPROCS(0)
	}
	o.Parallelism = limit
	if p := req.Options.Parallelism; p > 0 && p < limit {
		o.Parallelism = p
	}
	if req.Options.ReservoirSize < 0 {
		return nil, badRequest{fmt.Errorf("negative reservoir_size %d", req.Options.ReservoirSize)}
	}
	method := sampler.Canonical(req.Options.Method)
	if _, err := sampler.New(method); err != nil {
		return nil, badRequest{err}
	}
	if method != core.MethodSieve && req.Options.Stream {
		return nil, badRequest{fmt.Errorf("method %q does not support stream mode (only the default sieve sampler streams)", method)}
	}
	if method == sampler.MethodPKS && fromCSV {
		return nil, badRequest{errors.New(`method "pks" requires workload mode: its 12-characteristic feature vectors and golden cycle reference are profiled server-side`)}
	}
	arch := req.Options.Arch
	if arch == "" {
		arch = "ampere"
	}
	if req.Workload != "" {
		if _, err := sieve.WorkloadByName(req.Workload); err != nil {
			return nil, badRequest{err}
		}
		if req.Scale == 0 {
			req.Scale = 0.05
		}
		if req.Scale < 0 || req.Scale > 1 {
			return nil, badRequest{fmt.Errorf("scale %g outside (0, 1]", req.Scale)}
		}
	}
	return &resolved{
		req:  req,
		csv:  csv,
		opts: o,
		stream: sieve.StreamOptions{
			Options:       o,
			ReservoirSize: req.Options.ReservoirSize,
			Seed:          req.Options.Seed,
		},
		arch:   arch,
		method: method,
	}, nil
}

// key returns the content hash addressing this request's plan: every
// plan-affecting resolved option plus the profile source. Identical
// profile+options pairs collapse onto one cache entry. Parallelism is
// deliberately excluded — plans are byte-identical across worker counts, so
// hashing the scheduling knob would fragment the LRU into recomputations of
// identical plans (and make the hash disagree across replicas with different
// worker budgets).
func (rv *resolved) key(kind string) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|theta=%g|sel=%d|split=%d|stream=%v|res=%d|seed=%d|arch=%s|",
		kind, rv.opts.Theta, rv.opts.Selection, rv.opts.Tier3Splitter,
		rv.req.Options.Stream, rv.stream.ReservoirSize, rv.stream.Seed, rv.arch)
	// Non-default methodologies are canonicalized into the hash so the same
	// source sampled under two methods addresses two distinct plans. The
	// default contributes nothing, keeping every pre-existing plan id (and
	// the golden wire fixtures pinning them) byte-stable.
	if rv.method != core.MethodSieve {
		fmt.Fprintf(h, "method=%s|", rv.method)
	}
	// At most one of csv and ProfileCSV is set, so writing both hashes the
	// same bytes whichever holds the profile.
	if rv.csv != nil || rv.req.ProfileCSV != "" {
		io.WriteString(h, "csv|")
		h.Write(rv.csv)
		io.WriteString(h, rv.req.ProfileCSV)
	} else {
		fmt.Fprintf(h, "workload|%s|%g", rv.req.Workload, rv.req.Scale)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// detach copies a raw CSV body out of the pooled request buffer into the
// request, so the request may outlive the handler that read it.
func (rv *resolved) detach() {
	if rv.csv != nil {
		rv.req.ProfileCSV = string(rv.csv)
		rv.csv = nil
	}
}

// acquireSlot claims a compute worker slot, waiting until the request's
// context expires. The returned release must be called when compute ends.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	select {
	case s.slots <- struct{}{}:
		s.metrics.InFlight.Add(1)
		return func() {
			<-s.slots
			s.metrics.InFlight.Add(-1)
		}, nil
	case <-ctx.Done():
		s.metrics.Rejected.Add(1)
		return nil, ctx.Err()
	}
}

// rows materializes the request's profile rows. CSV-sourced failures are the
// caller's data (400); workload generation happens server-side, so only an
// unknown name (caught in resolve) is the caller's fault.
func (rv *resolved) rows(ctx context.Context) ([]sieve.InvocationProfile, error) {
	if rv.req.ProfileCSV != "" {
		p, err := sieve.ReadProfileCSV(strings.NewReader(rv.req.ProfileCSV))
		if err != nil {
			return nil, badRequest{err}
		}
		return sieve.ProfileRows(p), nil
	}
	return rv.workloadRows(ctx)
}

func (rv *resolved) workloadRows(ctx context.Context) ([]sieve.InvocationProfile, error) {
	w, err := sieve.GenerateWorkload(rv.req.Workload, rv.req.Scale)
	if err != nil {
		return nil, badRequest{err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	archCfg, err := sieve.ResolveArch(rv.arch)
	if err != nil {
		return nil, badRequest{err}
	}
	hw, err := sieve.NewHardware(archCfg)
	if err != nil {
		return nil, err
	}
	p, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	return sieve.ProfileRows(p), nil
}

// methodProfile materializes the sampler inputs for a non-default
// methodology. Most methods need only the instruction-count rows; pks
// additionally needs the Nsight-style 12-characteristic feature vectors and
// the golden per-invocation cycle reference, both profiled server-side from
// the generated workload (resolve already rejected pks with CSV sources).
func (rv *resolved) methodProfile(ctx context.Context) (*sieve.MethodProfile, error) {
	if rv.method != sampler.MethodPKS {
		rows, err := rv.rows(ctx)
		if err != nil {
			return nil, err
		}
		return &sieve.MethodProfile{Rows: rows}, nil
	}
	w, err := sieve.GenerateWorkload(rv.req.Workload, rv.req.Scale)
	if err != nil {
		return nil, badRequest{err}
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	archCfg, err := sieve.ResolveArch(rv.arch)
	if err != nil {
		return nil, badRequest{err}
	}
	hw, err := sieve.NewHardware(archCfg)
	if err != nil {
		return nil, err
	}
	counts, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	full, err := sieve.ProfileFull(w, hw)
	if err != nil {
		return nil, err
	}
	return &sieve.MethodProfile{
		Rows:         sieve.ProfileRows(counts),
		Features:     sieve.FeatureRows(full),
		GoldenCycles: hw.MeasureWorkload(w),
	}, nil
}

// methodPlan runs a non-default methodology through the sampler registry.
// The request seed doubles as the methodology seed, so clients reproduce
// stochastic plans (twophase pilots, rss draws) the same way they salt the
// cache: via options.seed.
func (rv *resolved) methodPlan(ctx context.Context) (*sieve.Plan, error) {
	p, err := rv.methodProfile(ctx)
	if err != nil {
		return nil, err
	}
	sopts := sieve.MethodOptions{Core: rv.opts, Seed: int64(rv.stream.Seed)}
	if rv.method == sampler.MethodPKS {
		sopts.PKS = pks.Options{Seed: int64(rv.stream.Seed), Parallelism: rv.opts.Parallelism}
	}
	plan, err := sieve.SampleMethodContext(ctx, rv.method, p, sopts)
	if err != nil && rv.req.ProfileCSV != "" && statusFor(err) == http.StatusInternalServerError {
		// Row-validation failures on caller-supplied CSV are caller data
		// errors, exactly as on the default path below.
		err = badRequest{err}
	}
	return plan, err
}

// samplePlan runs the sampling pipeline for the resolved request.
func (rv *resolved) samplePlan(ctx context.Context) (*sieve.Plan, error) {
	if rv.method != core.MethodSieve {
		return rv.methodPlan(ctx)
	}
	if rv.req.Options.Stream && rv.req.ProfileCSV != "" {
		plan, err := sieve.SampleCSVContext(ctx, strings.NewReader(rv.req.ProfileCSV), rv.stream)
		if err != nil && statusFor(err) == http.StatusInternalServerError {
			// Anything a well-formed CSV cannot produce is the caller's CSV.
			err = badRequest{err}
		}
		return plan, err
	}
	rows, err := rv.rows(ctx)
	if err != nil {
		return nil, err
	}
	if rv.req.Options.Stream {
		return sieve.SampleStreamContext(ctx, sieve.SliceSource(rows), rv.stream)
	}
	plan, err := sieve.SampleContext(ctx, rows, rv.opts)
	if err != nil && rv.req.ProfileCSV != "" && statusFor(err) == http.StatusInternalServerError {
		// Row-validation failures (non-positive counts, duplicate indices)
		// on caller-supplied CSV are caller data errors.
		err = badRequest{err}
	}
	return plan, err
}

func marshalPlan(p *sieve.Plan) ([]byte, error) {
	out := api.Plan{
		Theta:             p.Theta,
		TotalInstructions: p.TotalInstructions,
		TierInvocations:   p.TierInvocations,
		Sampled:           p.Sampled,
		NumStrata:         p.NumStrata(),
		Representatives:   p.RepresentativeIndices(),
		Strata:            make([]api.Stratum, len(p.Strata)),
	}
	for i, s := range p.Strata {
		out.Strata[i] = api.Stratum{
			Kernel:         s.Kernel,
			Tier:           int(s.Tier),
			Members:        len(s.Invocations),
			Invocations:    s.Invocations,
			Representative: s.Representative,
			Weight:         s.Weight,
			InstructionSum: s.InstructionSum,
		}
	}
	// Both fields are empty on default-method plans and omitted from the
	// JSON, so pre-subsystem plan documents keep their exact bytes.
	out.Method = p.Method
	if iv := p.Interval; iv != nil {
		out.ErrorInterval = &api.ErrorInterval{
			Mean:      iv.Mean,
			StdErr:    iv.StdErr,
			Low:       iv.Low,
			High:      iv.High,
			Resamples: iv.Resamples,
		}
	}
	return json.Marshal(out)
}

// respondDocument writes the api.PlanEnvelope around an already-marshaled
// plan document. The envelope marshals to the exact bytes the service has
// always answered ({"plan_id":…,"cached":…,"plan":…} + newline); coalesced
// appears only when true, so non-coalesced responses are unchanged.
func respondDocument(w http.ResponseWriter, id string, cached, coalesced bool, doc []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	buf, err := json.Marshal(api.PlanEnvelope{PlanID: id, Cached: cached, Coalesced: coalesced, Plan: doc})
	if err != nil {
		return
	}
	_, _ = w.Write(append(buf, '\n'))
}

// computePlan produces the marshaled plan for id, coalescing concurrent
// misses on the same content hash onto one computation via the in-flight
// table. The computation runs detached under its own RequestTimeout-bounded
// context, so one client's disconnect cannot fail the requests coalesced
// behind it; ctx still cancels this caller's wait individually. The worker
// slot is acquired by the flight leader, inside the flight — never by a
// caller that then waits. Slots strictly bound concurrent solver work; no
// goroutine ever holds one while blocked on another flight, so a
// slot-holder-waits-on-slot-waiter cycle cannot form (the batch path once
// held a slot across item waits and deadlocked the server under
// cache-hostile load). shared reports whether this call joined an
// already-running flight.
// The flight wait runs under a flight-stage span. For the leader the span
// contains the slot and compute stage spans (the detached computation
// inherits the leader's span chain through context.WithoutCancel, which
// preserves context values); a follower's span stays childless — it links to
// the leader's trace via the leader_trace attribute instead of duplicating
// the compute subtree.
func (s *Server) computePlan(ctx context.Context, id string, rv *resolved) (doc []byte, shared bool, err error) {
	fctx, flightSpan := obs.StartSpan(ctx, stageFlight)
	defer flightSpan.End()
	res, shared, leader, err := s.flights.do(fctx, id, traceID(ctx), func() flightResult {
		if gate := s.preCompute; gate != nil {
			gate(id)
		}
		cctx, cancel := context.WithTimeout(context.WithoutCancel(fctx), s.cfg.RequestTimeout)
		defer cancel()
		_, slotSpan := obs.StartSpan(cctx, stageSlot)
		release, err := s.acquireSlot(cctx)
		slotSpan.End()
		if err != nil {
			return flightResult{err: err}
		}
		defer release()
		s.metrics.Computations.Add(1)
		compCtx, compSpan := obs.StartSpan(cctx, stageCompute)
		defer compSpan.End()
		plan, err := rv.samplePlan(compCtx)
		if err != nil {
			return flightResult{err: err}
		}
		doc, err := marshalPlan(plan)
		if err != nil {
			return flightResult{err: err}
		}
		compSpan.SetAttr("plan_id", id)
		s.metrics.RowsIngested.Add(int64(plan.TierInvocations[0] + plan.TierInvocations[1] + plan.TierInvocations[2]))
		e, err := s.cache.put(id, doc)
		if err != nil {
			return flightResult{err: err}
		}
		return flightResult{doc: e.doc}
	})
	if shared {
		flightSpan.SetAttr("coalesced", true)
		if leader != "" {
			flightSpan.SetAttr("leader_trace", leader)
		}
	}
	if err != nil {
		return nil, shared, err
	}
	return res.doc, shared, res.err
}

// serveSample answers POST /v1/sample and returns the terminal HTTP status,
// so the traced wrapper can record latency for every outcome, errors
// included.
func (s *Server) serveSample(w http.ResponseWriter, r *http.Request) int {
	_, decodeSpan := obs.StartSpan(r.Context(), stageDecode)
	req, csv, err := s.decodeRequest(w, r)
	if err != nil {
		decodeSpan.End()
		return s.writeError(w, err)
	}
	defer csv.release()
	rv, err := s.resolve(req, csv.bytes())
	decodeSpan.End()
	if err != nil {
		return s.writeError(w, err)
	}
	s.metrics.MethodRequests(rv.method).Add(1)
	_, cacheSpan := obs.StartSpan(r.Context(), stageCache)
	id := rv.key("sample")
	e, hit := s.cache.get(id)
	cacheSpan.SetAttr("hit", hit)
	cacheSpan.End()
	if hit {
		s.metrics.CacheHits.Add(1)
		s.respondHit(r.Context(), w, e.env)
		return http.StatusOK
	}
	s.metrics.CacheMisses.Add(1)
	rv.detach()

	// Shard routing: a miss on a hash another replica owns is proxied there,
	// so the cluster computes each plan exactly once. Forwarded requests are
	// always served locally (loop prevention), and an unreachable owner
	// degrades to local compute — a dead peer costs latency, not
	// availability.
	if owner, ok := s.shardRing().ownedElsewhere(id); ok && !isForwarded(r) {
		if status, ok := s.proxySample(w, r.Context(), rv, id, owner); ok {
			return status
		}
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	doc, shared, err := s.computePlan(ctx, id, rv)
	if err != nil {
		return s.writeError(w, err)
	}
	s.respondTraced(r.Context(), w, id, false, shared, doc)
	return http.StatusOK
}

// respondTraced writes the plan envelope under a write-stage span.
func (s *Server) respondTraced(ctx context.Context, w http.ResponseWriter, id string, cached, coalesced bool, doc []byte) {
	_, span := obs.StartSpan(ctx, stageWrite)
	respondDocument(w, id, cached, coalesced, doc)
	span.End()
}

// respondHit writes a cache entry's stored hit envelope under a write-stage
// span: the same bytes respondDocument would marshal, with their length.
func (s *Server) respondHit(ctx context.Context, w http.ResponseWriter, env []byte) {
	_, span := obs.StartSpan(ctx, stageWrite)
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(env)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(env)
	span.End()
}

func (s *Server) serveCharacterize(w http.ResponseWriter, r *http.Request) int {
	_, decodeSpan := obs.StartSpan(r.Context(), stageDecode)
	req, csv, err := s.decodeRequest(w, r)
	if err != nil {
		decodeSpan.End()
		return s.writeError(w, err)
	}
	defer csv.release()
	rv, err := s.resolve(req, csv.bytes())
	decodeSpan.End()
	if err != nil {
		return s.writeError(w, err)
	}
	rv.detach()
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	_, slotSpan := obs.StartSpan(ctx, stageSlot)
	release, err := s.acquireSlot(ctx)
	slotSpan.End()
	if err != nil {
		return s.writeError(w, err)
	}
	defer release()
	compCtx, compSpan := obs.StartSpan(ctx, stageCompute)
	rows, err := rv.rows(compCtx)
	if err != nil {
		compSpan.End()
		return s.writeError(w, err)
	}
	sums, err := sieve.CharacterizeContext(compCtx, rows, rv.opts.Theta)
	compSpan.End()
	if err != nil {
		if rv.req.ProfileCSV != "" && statusFor(err) == http.StatusInternalServerError {
			err = badRequest{err}
		}
		return s.writeError(w, err)
	}
	s.metrics.RowsIngested.Add(int64(len(rows)))
	out := make([]api.KernelSummary, len(sums))
	for i, k := range sums {
		out[i] = api.KernelSummary{
			Kernel: k.Kernel, Invocations: k.Invocations, Tier: int(k.Tier),
			InstrMin: k.InstrMin, InstrMean: k.InstrMean, InstrMax: k.InstrMax,
			InstrCoV: k.InstrCoV, InstrShare: k.InstrShare,
			DominantCTA: k.DominantCTA, Strata: k.Strata,
		}
	}
	_, writeSpan := obs.StartSpan(ctx, stageWrite)
	writeJSON(w, http.StatusOK, api.CharacterizeResponse{Kernels: out})
	writeSpan.End()
	return http.StatusOK
}

// servePlanGet answers GET /v1/plans/{id}: from the local cache when
// possible, otherwise fetched-and-filled from the owning peer replica, so
// any replica serves any cluster-cached plan.
func (s *Server) servePlanGet(w http.ResponseWriter, r *http.Request) int {
	id := r.PathValue("id")
	_, cacheSpan := obs.StartSpan(r.Context(), stageCache)
	e, hit := s.cache.get(id)
	cacheSpan.SetAttr("hit", hit)
	cacheSpan.End()
	if !hit {
		if owner, ok := s.shardRing().ownedElsewhere(id); ok && !isForwarded(r) {
			e, hit = s.fetchPlanFromPeer(r.Context(), owner, id)
		}
	}
	if hit {
		s.metrics.CacheHits.Add(1)
		s.respondHit(r.Context(), w, e.env)
		return http.StatusOK
	}
	s.metrics.Failures.Add(1)
	writeJSON(w, http.StatusNotFound, &api.Error{Message: "plan not cached (recompute via POST /v1/sample)"})
	return http.StatusNotFound
}
