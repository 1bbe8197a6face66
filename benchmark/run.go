package main

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// setupRuns is how often a run sets the replicas up: setup_s reports the
// median, and the last set-up serves the timed phases.
const setupRuns = 5

// maxLagShare bounds the generator's own lateness: a run whose p99
// generator lag exceeds this share of the workload's latency limit is
// invalid, because the schedule it measured is not the one it claims.
const maxLagShare = 0.5

// maxRoundSteal is the share of the machine's CPU time its host may steal
// during a segment of a round before the segment's timings are set aside
// (see keptRounds): on a shared virtual machine a burst of steal stalls
// every request in flight and, in the open loop, every request queued behind
// them, so such a segment measures the host rather than sieved.
const maxRoundSteal = 0.01

// testbed is one workload's replica set plus the state the generator keeps
// about it.
type testbed struct {
	w     *workload
	in    *inputs
	cl    *cluster
	cli   *client
	chk   *checks
	str   *stream
	mu    sync.Mutex
	items []item            // timed requests, extended lazily in the closed loop
	ids   map[string]string // plan key → id
	// hitBody is the expected answer to every timed request of a hit
	// workload, per plan key, learned in warm-up.
	hitBody map[string][]byte
	// answers are kept for the checks that run after timing: every answer
	// of a miss workload, the warm-up hits of a hit workload. keys counts
	// the distinct plan keys sent.
	answers []answer
	keys    map[string]bool
}

type answer struct {
	it   item
	idx  int // timed request index; -1 in warm-up
	body []byte
}

// setup launches the replicas, renders the inputs and warms up.
func setup(ctx context.Context, cfg config, w *workload) (*testbed, error) {
	logDir := filepath.Join(cfg.out, "logs")
	if err := os.MkdirAll(logDir, 0o755); err != nil {
		return nil, err
	}
	cl, err := launch(ctx, cfg.sieved, w.replicas, logDir)
	if err != nil {
		return nil, err
	}
	s := &testbed{w: w, cl: cl, cli: newClient(), chk: newChecks(), ids: map[string]string{},
		hitBody: map[string][]byte{}, keys: map[string]bool{}}
	if s.in, err = renderInputs(w); err != nil {
		s.close()
		return nil, err
	}
	s.str = newStream(w, cfg.seed)
	for _, it := range w.warmup(s.str) {
		if err := s.warmOne(it); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func (s *testbed) close() {
	s.cli.close()
	s.cl.stop()
}

// warmOne sends one warm-up request. On a hit workload it sends it twice and
// checks that the second answer is a hit carrying the first answer's plan
// bytes; that answer becomes the expected bytes of every later hit.
func (s *testbed) warmOne(it item) error {
	req, err := s.in.httpRequest(it, s.ids)
	if err != nil {
		return err
	}
	base := s.cl.replicas[it.target].url
	status, body := s.cli.do(0, base, req)
	if !s.w.hits {
		s.verifyMiss(it, -1, status, body)
		return nil
	}
	s.chk.record("status", status == 200)
	first, ok := envelope(body, false)
	s.chk.record("envelope", ok)
	status, body = s.cli.do(0, base, req)
	s.chk.record("status", status == 200)
	second, ok := envelope(body, true)
	s.chk.record("envelope", ok)
	s.chk.record("hit_equals_miss", first.PlanID == second.PlanID && bytes.Equal(first.Plan, second.Plan))
	body = bytes.Clone(body)
	s.ids[it.key()] = second.PlanID
	s.hitBody[it.key()] = body
	s.answers = append(s.answers, answer{it: it, idx: -1, body: body})
	return nil
}

// item returns timed request i, drawing more from the stream as needed.
func (s *testbed) item(i int) item {
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.items) <= i {
		s.items = append(s.items, s.str.next())
	}
	return s.items[i]
}

// send is the sendFunc of the timed phases.
func (s *testbed) send(worker, i int) bool {
	it := s.item(i)
	req, err := s.in.httpRequest(it, s.ids)
	if err != nil {
		return s.chk.record("request", false)
	}
	status, body := s.cli.do(worker, s.cl.replicas[it.target].url, req)
	if s.w.hits {
		ok := s.chk.record("status", status == 200)
		return s.chk.record("hit_bytes", bytes.Equal(body, s.hitBody[it.key()])) && ok
	}
	return s.verifyMiss(it, i, status, body)
}

// verifyMiss checks a miss answer's status now and keeps the body for the
// envelope, distinct-id and reference checks that run after timing.
func (s *testbed) verifyMiss(it item, idx, status int, body []byte) bool {
	s.mu.Lock()
	s.keys[it.key()] = true
	if status == 200 {
		s.answers = append(s.answers, answer{it: it, idx: idx, body: bytes.Clone(body)})
	}
	s.mu.Unlock()
	return s.chk.record("status", status == 200)
}

// postCheck runs the checks deferred past timing and returns the timed
// request indices whose answers failed them. On miss workloads every answer
// must be a fresh (cached:false) plan with an id no other key got; on every
// workload each distinct plan must equal the in-process reference.
func (s *testbed) postCheck(ctx context.Context) map[int]bool {
	bad := map[int]bool{}
	refs := newRefs(s.in)
	seen := map[string]string{}
	type job struct {
		m   answer
		doc []byte
	}
	var jobs []job
	for _, m := range s.answers {
		env, ok := envelope(m.body, s.w.hits)
		ok = s.chk.record("envelope", ok)
		prev, dup := seen[env.PlanID]
		ok = s.chk.record("distinct_id", !dup || prev == m.it.key()) && ok
		seen[env.PlanID] = m.it.key()
		s.ids[m.it.key()] = env.PlanID
		if !ok {
			bad[m.idx] = true
			continue
		}
		jobs = append(jobs, job{m, env.Plan})
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	next := make(chan job)
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				ref, err := refs.plan(ctx, j.m.it)
				if !s.chk.record("reference", err == nil && samePlan(j.doc, ref)) {
					mu.Lock()
					bad[j.m.idx] = true
					mu.Unlock()
				}
			}
		}()
	}
	for _, j := range jobs {
		next <- j
	}
	close(next)
	wg.Wait()
	delete(bad, -1)
	return bad
}

// checkHitsAfterMisses re-reads up to n of a miss workload's plans by id,
// each from a random replica, and checks the hit carries the miss's plan
// bytes. Plans evicted since are skipped. Run it after the final scrape: it
// moves the cache counters.
func (s *testbed) checkHitsAfterMisses(rng *rand.Rand, n int) {
	if s.w.hits {
		return
	}
	for i := len(s.answers) - 1; i >= 0 && n > 0; i-- {
		m := s.answers[i]
		miss, ok := envelope(m.body, false)
		if !ok {
			continue
		}
		status, body := s.cli.do(0, s.cl.replicas[rng.Intn(len(s.cl.replicas))].url, request{method: "GET", path: "/v1/plans/" + miss.PlanID})
		if status == 404 {
			continue
		}
		hit, ok := envelope(body, true)
		s.chk.record("hit_equals_miss", ok && hit.PlanID == miss.PlanID && bytes.Equal(hit.Plan, miss.Plan))
		n--
	}
}

// cpuSeconds is the generator process's CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// round is one open-loop segment followed by one closed-loop segment.
type round struct {
	open, closed []sample
	closedFor    time.Duration
	// openSteal and closedSteal are the shares of the machine's CPU time
	// its host stole during each segment.
	openSteal, closedSteal float64
	rssMiB                 float64 // replicas' summed peak RSS within the round
}

// stealTicks reads the machine-wide steal and total CPU ticks from
// /proc/stat (zeros where it is unreadable).
func stealTicks() (steal, total int64) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	for i, f := range strings.Fields(line)[1:] {
		v, _ := strconv.ParseInt(f, 10, 64)
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// stealSince is the share of the machine's CPU time stolen since the
// stealTicks reading (steal0, total0); 0 where /proc/stat is unreadable.
func stealSince(steal0, total0 int64) float64 {
	steal1, total1 := stealTicks()
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}

// phases is what the timed rounds measured.
type phases struct {
	rounds       []round
	diff         counters
	rssMiB       float64 // median over rounds of round.rssMiB
	cpuS         float64
	stealFrac    float64  // share of the machine's CPU time stolen by its host
	open, closed []sample // every round's samples, in order
}

// measure runs rounds of roundFor each: an open-loop segment of about 60%
// of the round, then a closed-loop segment for the rest (at least 30% of
// it). It then settles every check on the answers. Alternating the two
// spreads both over the whole run, so a passing stall on the machine hits a
// minority of rounds of each rather than one phase.
func (s *testbed) measure(ctx context.Context, rounds int, roundFor time.Duration) (*phases, error) {
	p := &phases{}
	before, err := s.cl.scrape()
	if err != nil {
		return nil, err
	}
	cpu0 := cpuSeconds()
	steal0, total0 := stealTicks()
	// A miss workload's open segments hold whole blocks (the nearest count,
	// at least one), so every round offers the same request mix.
	n := int(s.w.rate * roundFor.Seconds() * 0.6)
	if b := s.w.classes; b > 0 {
		n = max(1, int(math.Round(float64(n)/float64(b)))) * b
	}
	openFor := time.Duration(float64(n) / s.w.rate * float64(time.Second))
	closedFor := max(roundFor-openFor, roundFor*3/10)
	next := 0
	for r := 0; r < rounds; r++ {
		s.item(next + n - 1)
		var rd round
		s.cl.resetPeakRSS()
		st, tot := stealTicks()
		rd.open = openLoop(ctx, next, n, s.w.rate, s.send)
		rd.openSteal = stealSince(st, tot)
		next += n
		st, tot = stealTicks()
		rd.closed, rd.closedFor = closedLoop(ctx, closedFor, next, s.send)
		rd.closedSteal = stealSince(st, tot)
		next += len(rd.closed)
		if rd.rssMiB, err = s.cl.peakRSSMiB(); err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.str.endBlock()
		s.mu.Unlock()
		p.rounds = append(p.rounds, rd)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	p.cpuS = cpuSeconds() - cpu0
	p.stealFrac = stealSince(steal0, total0)
	var rss []float64
	for _, rd := range p.rounds {
		rss = append(rss, rd.rssMiB)
	}
	p.rssMiB = median(rss)
	after, err := s.cl.scrape()
	if err != nil {
		return nil, err
	}
	p.diff = after.sub(before)
	bad := s.postCheck(ctx)
	for _, rd := range p.rounds {
		for _, set := range [][]sample{rd.open, rd.closed} {
			for i := range set {
				if bad[set[i].idx] {
					set[i].ok = false
				}
			}
		}
		p.open = append(p.open, rd.open...)
		p.closed = append(p.closed, rd.closed...)
	}
	s.reconcile(p, after)
	s.checkHitsAfterMisses(rand.New(rand.NewSource(1)), 16)
	return p, nil
}

// reconcile checks the replicas' own counters against what the generator
// sent: on a hit workload every timed lookup is a cache hit, on a miss
// workload the replicas computed exactly one plan per distinct key.
func (s *testbed) reconcile(p *phases, after counters) {
	timed := float64(len(p.open) + len(p.closed))
	if s.w.hits {
		s.chk.record("recon_hits", p.diff["cache_hits"] == timed && p.diff["cache_misses"] == 0)
		return
	}
	s.chk.record("recon_computations", after["computations"] == float64(len(s.keys)))
}

// quantile is the nearest-rank q-quantile of sorted xs.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(float64(len(sorted))*q)) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

// median is the middle of xs, the mean of the two middle values for an even
// count (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// latencies returns a set's latencies in ms, sorted.
func latencies(set []sample) []float64 {
	lat := make([]float64, len(set))
	for i, s := range set {
		lat[i] = millis(s.latency)
	}
	sort.Float64s(lat)
	return lat
}

// tailOf returns the latency at the workload's tail percentile and how many
// samples lie beyond it.
func tailOf(w *workload, lat []float64) (tail float64, beyond int) {
	tail = quantile(lat, w.tailPct/100)
	for _, l := range lat {
		if l > tail {
			beyond++
		}
	}
	return tail, beyond
}

// lagQuantile is a quantile of the generator lag in ms over a set.
func lagQuantile(set []sample, q float64) float64 {
	lags := make([]float64, len(set))
	for i, s := range set {
		lags[i] = millis(s.lag)
	}
	sort.Float64s(lags)
	return quantile(lags, q)
}

// keptRounds returns, in order, the rounds whose segments the figures come
// from, given each round's steal share over that segment: every round within
// maxRoundSteal or, when fewer than atLeast rounds qualify, the atLeast
// rounds with the least steal. The choice rests on the host's steal counter
// alone, never on what a round measured.
func keptRounds(steal []float64, atLeast int) []int {
	idx := make([]int, len(steal))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return steal[idx[a]] < steal[idx[b]] })
	n := 0
	for n < len(idx) && steal[idx[n]] <= maxRoundSteal {
		n++
	}
	kept := idx[:min(max(n, atLeast), len(idx))]
	sort.Ints(kept)
	return kept
}

// summary is the end-to-end view of a run's rounds. The latency quantiles
// pool the open-loop samples of the rounds kept by their open segments'
// steal, and the throughput is the median over the rounds kept by their
// closed segments' steal, so neither a burst of host steal nor one disturbed
// round moves them. The latency-limit share counts every open-loop request.
type summary struct {
	p50, tail, sloFrac, satRPS float64
	beyond                     int // kept open-loop samples beyond the tail
	keptOpen, keptClosed       []int
	openSamples                []sample // the kept rounds' open-loop samples
	roundTail, roundRPS        []float64
}

func summarize(w *workload, p *phases) summary {
	var sm summary
	var openSteal, closedSteal []float64
	for _, rd := range p.rounds {
		tail, _ := tailOf(w, latencies(rd.open))
		sm.roundTail = append(sm.roundTail, tail)
		var ok int
		for _, x := range rd.closed {
			if x.ok {
				ok++
			}
		}
		sm.roundRPS = append(sm.roundRPS, float64(ok)/rd.closedFor.Seconds())
		openSteal = append(openSteal, rd.openSteal)
		closedSteal = append(closedSteal, rd.closedSteal)
	}
	// At least a quarter of the rounds are kept, and on the open side enough
	// of them to hold ten samples beyond the tail percentile.
	quarter := (len(p.rounds) + 3) / 4
	openNeed := quarter
	if len(p.rounds) > 0 && len(p.rounds[0].open) > 0 {
		need := 10 / (1 - w.tailPct/100)
		openNeed = max(quarter, int(math.Ceil(need/float64(len(p.rounds[0].open)))))
	}
	sm.keptOpen, sm.keptClosed = keptRounds(openSteal, openNeed), keptRounds(closedSteal, quarter)
	for _, r := range sm.keptOpen {
		sm.openSamples = append(sm.openSamples, p.rounds[r].open...)
	}
	var rps []float64
	for _, r := range sm.keptClosed {
		rps = append(rps, sm.roundRPS[r])
	}
	lat := latencies(sm.openSamples)
	sm.p50, sm.satRPS = quantile(lat, 0.5), median(rps)
	sm.tail, sm.beyond = tailOf(w, lat)
	var inSLO int
	for _, x := range p.open {
		if x.ok && millis(x.latency) <= w.sloMS {
			inSLO++
		}
	}
	sm.sloFrac = float64(inSLO) / float64(len(p.open))
	return sm
}

// validity returns why a run's numbers cannot be trusted, or "". Too few
// samples beyond the tail percentile makes tail_ms a guess; a generator
// running late in the kept rounds means the offered schedule was not the
// one claimed.
func validity(w *workload, sm summary, needTail bool) string {
	if needTail && sm.beyond < 10 {
		return fmt.Sprintf("the kept rounds have only %d open-loop samples beyond p%g (need 10)", sm.beyond, w.tailPct)
	}
	if lag, limit := lagQuantile(sm.openSamples, 0.99), maxLagShare*w.sloMS; lag > limit {
		return fmt.Sprintf("generator lag p99 %.3f ms exceeds %.3f ms", lag, limit)
	}
	return ""
}

// countFailed counts the samples that failed.
func countFailed(sets ...[]sample) (attempted, failed int) {
	for _, set := range sets {
		for _, s := range set {
			attempted++
			if !s.ok {
				failed++
			}
		}
	}
	return attempted, failed
}
