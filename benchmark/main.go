// Command sievebench is the end-to-end benchmark of the sieved plan service.
// It starts real sieved replicas, drives them from this one process with an
// open-loop phase at the workload's fixed rate and a closed-loop saturation
// phase, checks every answer, and prints every metric by name and unit. The
// last line of its standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": F, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 they are
// the per-layer ones, from the replicas' own counters and stage histograms
// plus an in-process replay of the same request stream with a span around
// every call the benchmark makes into a layer. Run it through run.sh, which
// builds sieved and this command first; README.md lists the workloads and
// metrics.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"syscall"
	"time"
)

// metricDef is one reported metric. BENCHMARK.json lists the same names and
// units (TestMetricsMatchBenchmarkJSON).
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"}, {"p50_ms", "ms"}, {"tail_ms", "ms"}, {"slo_frac", "ratio"},
	{"sat_rps", "req/s"}, {"ok_frac", "ratio"}, {"rss_mb", "MiB"},
}

var perLayer = []metricDef{
	{"server.hit_us", "us"}, {"server.miss_ms", "ms"}, {"server.calls", "count"},
	{"server.stage.decode_ms", "ms"}, {"server.stage.cache_ms", "ms"}, {"server.stage.slot_ms", "ms"},
	{"server.stage.flight_ms", "ms"}, {"server.stage.compute_ms", "ms"}, {"server.stage.proxy_ms", "ms"},
	{"server.stage.write_ms", "ms"}, {"server.stage_cover", "ratio"},
	{"server.cache_hit_rate", "ratio"}, {"server.compute_per_miss", "ratio"}, {"server.coalesced", "count"},
	{"server.rejected", "count"}, {"server.peer_proxied_rate", "ratio"}, {"server.peer_fills", "count"},
	{"server.failures", "count"},
	{"api.decode_us", "us"}, {"api.encode_us", "us"}, {"api.body_kb", "KiB"},
	{"profiler.parse_ms", "ms"}, {"profiler.rows_per_ms", "rows/ms"},
	{"workloads.gen_ms", "ms"}, {"gpu.profile_ms", "ms"}, {"gpu.features_ms", "ms"},
	{"core.stratify_ms", "ms"}, {"core.rows", "count"}, {"core.strata", "count"},
	{"kde.split_ms", "ms"}, {"kde.calls", "count"}, {"kde.tier3_rows", "count"},
	{"sampler.plan_ms", "ms"}, {"pks.select_ms", "ms"}, {"pks.points", "count"},
	{"bench.gen_lag_p99_ms", "ms"}, {"bench.cpu_s", "s"}, {"bench.requests", "count"},
	{"bench.failed", "count"}, {"bench.tail_beyond", "count"}, {"bench.trace_overhead_frac", "ratio"},
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sieved   string // path of the sieved binary
	out      string // directory for logs, reports and spans
}

func main() { os.Exit(run(os.Args[1:], os.Stdout)) }

func run(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("sievebench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload name: hit-csv, cold-mix or methods")
	fs.Int64Var(&cfg.seed, "seed", 1, "request-stream seed")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "measured seconds per run")
	fs.IntVar(&trace, "trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	fs.StringVar(&cfg.sieved, "sieved", "", "path of the sieved binary")
	fs.StringVar(&cfg.out, "out", ".bench_build", "directory for logs, reports and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	cfg.trace = trace == 1
	// An interrupted run still stops its replicas on the way out.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := bench(ctx, cfg, stdout); err != nil {
		fmt.Fprintln(os.Stderr, "sievebench:", err)
		return 1
	}
	return 0
}

// result is the run's report, written to the reports directory and, in its
// short form, as the last line of standard output.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// The rest goes to the report file only.
	Invalid      string             `json:"invalid,omitempty"`
	ChecksFailed bool               `json:"checks_failed"`
	Checks       []string           `json:"checks"`
	Provenance   map[string]any     `json:"provenance"`
	Extra        map[string]float64 `json:"extra"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func bench(ctx context.Context, cfg config, stdout io.Writer) error {
	if cfg.sieved == "" {
		return errors.New("-sieved is required")
	}
	if cfg.seconds <= 0 {
		return errors.New("-seconds must be positive")
	}
	w, err := workloadByName(cfg.workload)
	if err != nil {
		return err
	}
	res := &result{Provenance: provenance(cfg, w), Extra: map[string]float64{}}
	var values map[string]float64
	if cfg.trace {
		values, err = perLayerRun(ctx, cfg, w, res)
	} else {
		values, err = endToEndRun(ctx, cfg, w, res)
	}
	if err != nil {
		return err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res.Metrics = map[string]metricValue{}
	for _, d := range defs {
		v, ok := values[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s not measured", d.name)
		}
		res.Metrics[d.name] = metricValue{v, d.unit}
	}
	res.Correct = res.Invalid == "" && res.Failed == 0 && !res.ChecksFailed

	for _, k := range sortedKeys(res.Provenance) {
		fmt.Fprintf(stdout, "provenance %s=%v\n", k, res.Provenance[k])
	}
	for _, k := range sortedKeys(res.Extra) {
		fmt.Fprintf(stdout, "extra %s=%g\n", k, res.Extra[k])
	}
	for _, line := range res.Checks {
		fmt.Fprintln(stdout, line)
	}
	if res.ChecksFailed {
		fmt.Fprintln(stdout, "FAIL: a correctness or reconciliation check failed")
	}
	if res.Invalid != "" {
		fmt.Fprintln(stdout, "INVALID:", res.Invalid)
	}
	for _, d := range defs {
		fmt.Fprintf(stdout, "metric %s %g %s\n", d.name, values[d.name], d.unit)
	}
	report := filepath.Join(cfg.out, "reports", fmt.Sprintf("%s-seed%d-trace%v.json", w.name, cfg.seed, cfg.trace))
	if err := writeJSON(report, res); err != nil {
		return err
	}
	short, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", short)
	return nil
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func writeJSON(path string, v any) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// provenance stamps a report with where and how it was measured.
func provenance(cfg config, w *workload) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				if s.Value == "true" {
					commit += "+modified"
				}
			}
		}
	}
	return map[string]any{
		"workload":      w.name,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"commit":        commit,
		"replicas":      w.replicas,
		"replica_flags": strings.Join(replicaFlags, " "),
		"rate_rps":      w.rate,
		"tail_pct":      w.tailPct,
		"slo_ms":        w.sloMS,
	}
}

// setupAll sets the workload up n times, keeping the last testbed, and
// returns it with the median set-up time.
func setupAll(ctx context.Context, cfg config, w *workload, n int) (*testbed, float64, error) {
	var times []float64
	var s *testbed
	for i := 0; i < n; i++ {
		if s != nil {
			s.close()
		}
		t0 := time.Now()
		var err error
		if s, err = setup(ctx, cfg, w); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return s, median(times), nil
}

// rounds is how many open/closed rounds a run measures; its open-loop
// segments take about 60% of the measured time. Many short rounds let a
// burst of host steal spoil only the few it overlaps (see keptRounds); a
// miss workload's open segment still holds at least one whole request block.
const rounds = 16

// tracedRounds is how many rounds a traced run measures on the replicas:
// its numbers are counter and histogram deltas over all of them, so longer
// rounds lose nothing and keep a miss workload's blocks within the budget.
const tracedRounds = 4

// finish folds a testbed's checks, counts and validity into the result.
func finish(res *result, s *testbed, p *phases, sm summary, needTail bool) {
	res.Invalid = validity(s.w, sm, needTail)
	res.Attempted, res.Failed = countFailed(p.open, p.closed)
	res.Checks = s.chk.lines()
	res.ChecksFailed = s.chk.failed()
	res.Extra["server_failures"] = p.diff["failures"]
	res.Extra["client_failures"] = float64(res.Failed)
	for _, q := range []float64{0.5, 0.9, 0.99, 1} {
		res.Extra[fmt.Sprintf("gen_lag_q%g_ms", q)] = lagQuantile(p.open, q)
	}
	res.Extra["tail_beyond"] = float64(sm.beyond)
	res.Extra["steal_frac"] = p.stealFrac
	res.Extra["rounds_kept_open"] = float64(len(sm.keptOpen))
	res.Extra["rounds_kept_closed"] = float64(len(sm.keptClosed))
	for i, rd := range p.rounds {
		res.Extra[fmt.Sprintf("round%d_tail_ms", i)] = sm.roundTail[i]
		res.Extra[fmt.Sprintf("round%d_sat_rps", i)] = sm.roundRPS[i]
		res.Extra[fmt.Sprintf("round%d_open_steal_frac", i)] = rd.openSteal
		res.Extra[fmt.Sprintf("round%d_closed_steal_frac", i)] = rd.closedSteal
		res.Extra[fmt.Sprintf("round%d_rss_mb", i)] = rd.rssMiB
	}
}

func endToEndRun(ctx context.Context, cfg config, w *workload, res *result) (map[string]float64, error) {
	s, setupS, err := setupAll(ctx, cfg, w, setupRuns)
	if err != nil {
		return nil, err
	}
	defer s.close()
	p, err := s.measure(ctx, rounds, time.Duration(cfg.seconds*float64(time.Second)/rounds))
	if err != nil {
		return nil, err
	}
	sm := summarize(w, p)
	finish(res, s, p, sm, true)
	return map[string]float64{
		"setup_s":  setupS,
		"p50_ms":   sm.p50,
		"tail_ms":  sm.tail,
		"slo_frac": sm.sloFrac,
		"sat_rps":  sm.satRPS,
		"ok_frac":  float64(res.Attempted-res.Failed) / float64(res.Attempted),
		"rss_mb":   p.rssMiB,
	}, nil
}

// perLayerRun spends half the measured time on replica rounds, for the
// replicas' counters and stage histograms, and half on the in-process replay.
func perLayerRun(ctx context.Context, cfg config, w *workload, res *result) (map[string]float64, error) {
	total := time.Duration(cfg.seconds * float64(time.Second))
	s, _, err := setupAll(ctx, cfg, w, 1)
	if err != nil {
		return nil, err
	}
	p, err := s.measure(ctx, tracedRounds, total/2/tracedRounds)
	s.close()
	if err != nil {
		return nil, err
	}
	sm := summarize(w, p)
	finish(res, s, p, sm, false)
	spans := filepath.Join(cfg.out, "traces", fmt.Sprintf("%s-seed%d.json", w.name, cfg.seed))
	rp, err := replayInProcess(ctx, w, cfg.seed, total/2, spans)
	if err != nil {
		return nil, err
	}
	res.Attempted += rp.attempted
	res.Failed += rp.failed

	m := rp.metrics
	d := p.diff
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	var stageSum float64
	for _, st := range []string{"decode", "cache", "slot", "flight", "compute", "proxy", "write"} {
		stageSum += d["stage_sum:"+st]
		m["server.stage."+st+"_ms"] = ratio(d["stage_sum:"+st]*1e3, d["request_count"])
	}
	m["server.stage_cover"] = ratio(stageSum, d["request_sum"])
	m["server.cache_hit_rate"] = ratio(d["cache_hits"], d["cache_hits"]+d["cache_misses"])
	m["server.compute_per_miss"] = ratio(d["computations"], d["cache_misses"])
	m["server.coalesced"] = d["coalesced"]
	m["server.rejected"] = d["rejected"]
	m["server.peer_proxied_rate"] = ratio(d["peer_proxied"], d["requests"])
	m["server.peer_fills"] = d["peer_fills"]
	m["server.failures"] = d["failures"]
	m["bench.gen_lag_p99_ms"] = lagQuantile(p.open, 0.99)
	m["bench.cpu_s"] = p.cpuS
	m["bench.requests"] = float64(len(p.open) + len(p.closed))
	m["bench.failed"] = float64(res.Failed)
	m["bench.tail_beyond"] = float64(sm.beyond)
	res.Provenance["spans"] = spans
	return m, nil
}
