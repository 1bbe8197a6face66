package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
)

// workload is one traffic mix. Its open-loop rate, tail percentile and
// latency limit are fixed here, never derived from the code under test; the
// `why` line of each workload in BENCHMARK.json repeats them and
// TestWhyLinesMatchWorkloads keeps the two in step.
type workload struct {
	name     string
	replicas int     // sieved processes; more than one are peered on a ring
	rate     float64 // open-loop offered rate, req/s
	tailPct  float64 // percentile reported as tail_ms
	sloMS    float64 // latency limit behind slo_frac
	// hits marks a workload whose timed requests must all be cache hits;
	// the others must all be misses.
	hits bool
	// classes is how many request classes a miss workload deals per block
	// (0: requests are drawn independently).
	classes  int
	profiles []profileSpec
	// csv marks whether requests upload rendered profile CSVs, so set-up
	// renders them.
	csv bool
	// next draws the workload's next request from its seeded generator.
	next func(s *stream) item
	// warmup lists the requests sent before timing starts.
	warmup func(s *stream) []item
}

// profileSpec names one generated workload profile: a Table I workload at a
// scale factor.
type profileSpec struct {
	workload string
	scale    float64
}

var workloads = []*workload{hitCSV, coldMix, methods}

func workloadByName(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// op is the request shape.
type op int

const (
	opCSV  op = iota // POST /v1/sample, text/csv body, options in the query
	opJSON           // POST /v1/sample, JSON workload-mode envelope
	opGet            // GET /v1/plans/{id}
)

func (o op) String() string { return [...]string{"csv", "json", "get"}[o] }

// item is one generated request. It names the plan it addresses by profile
// and options; the HTTP bytes are built from it by httpRequest.
type item struct {
	op      op
	profile int     // index into the workload's profiles
	theta   float64 // 0 leaves the server default
	method  string  // "" is the default sieve method
	seed    uint64
	getCSV  bool // opGet: fetch the id of the CSV variant (else the JSON one)
	target  int  // replica index
}

// planOp is the POST shape whose plan the item addresses.
func (it item) planOp() op {
	if it.op == opGet {
		if it.getCSV {
			return opCSV
		}
		return opJSON
	}
	return it.op
}

// key identifies the plan an item addresses on the benchmark side: two items
// with equal keys must get the same plan id, distinct keys distinct ids.
func (it item) key() string {
	return fmt.Sprintf("%s/%d/%g/%s/%d", it.planOp(), it.profile, it.theta, it.method, it.seed)
}

// stream is a workload's seeded request generator: the same seed yields the
// same request sequence.
type stream struct {
	w    *workload
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
	// uses counts the requests drawn per (profile, variant), so each draw
	// gets a plan-affecting option value no earlier draw used.
	uses   map[[2]int]int
	offset float64
	// deck holds the request classes still to be dealt in the current
	// block: miss workloads deal every class once per block in a seeded
	// order, so each block of requests has the same mix — stratified rather
	// than independent draws — and only the order varies with the seed.
	deck []int
}

func newStream(w *workload, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed))
	// Popularity ranks come from a fixed permutation, so a seed changes the
	// request sequence but not which profiles are hot.
	perm := rand.New(rand.NewSource(0)).Perm(len(w.profiles))
	s := &stream{w: w, rng: rng, perm: perm, uses: map[[2]int]int{}, offset: rng.Float64()}
	s.zipf = rand.NewZipf(rng, 1.1, 1, uint64(len(w.profiles)-1))
	return s
}

func (s *stream) next() item { return s.w.next(s) }

// endBlock drops the rest of the current block, so the next request starts
// a fresh one.
func (s *stream) endBlock() { s.deck = nil }

// deal returns the next request class, refilling the deck with a shuffled
// block when it runs out.
func (s *stream) deal() int {
	if len(s.deck) == 0 {
		s.deck = s.rng.Perm(s.w.classes)
	}
	c := s.deck[0]
	s.deck = s.deck[1:]
	return c
}

// take draws n requests.
func (s *stream) take(n int) []item {
	out := make([]item, n)
	for i := range out {
		out[i] = s.next()
	}
	return out
}

// use returns how often (profile, variant) was drawn before, and counts this
// draw.
func (s *stream) use(profile, variant int) int {
	k := [2]int{profile, variant}
	n := s.uses[k]
	s.uses[k] = n + 1
	return n
}

// distinctTheta returns the k-th θ of a low-discrepancy sequence in
// [0.2, 0.6): distinct for distinct k, rounded to six decimals so the query
// string and the JSON envelope carry the same value.
func (s *stream) distinctTheta(k int) float64 {
	const phi = 0.6180339887498949
	frac := math.Mod(s.offset+float64(k)*phi, 1)
	return math.Round((0.2+0.4*frac)*1e6) / 1e6
}

// hitCSV: a catalog that fits the 128-entry plan cache, warmed before
// timing, then zipfian hits: 60% CSV POSTs, 20% JSON POSTs, 20% GETs.
var hitCSV = &workload{
	name:     "hit-csv",
	replicas: 1,
	rate:     150,
	tailPct:  95,
	sloMS:    25,
	hits:     true,
	csv:      true,
	// Every Cactus/MLPerf profile on the scale grid whose CSV is 50-500 KB
	// (TestHitCatalogSizes pins the range).
	profiles: []profileSpec{
		{"lmc", 0.005}, {"lmc", 0.01}, {"lmc", 0.02}, {"lmr", 0.02}, {"gms", 0.02},
		{"dcg", 0.005}, {"dcg", 0.01}, {"dcg", 0.02}, {"lgt", 0.005}, {"lgt", 0.01},
		{"nst", 0.002}, {"nst", 0.005}, {"rfl", 0.01}, {"rfl", 0.02}, {"spt", 0.01},
		{"spt", 0.02}, {"3d-unet", 0.01}, {"3d-unet", 0.02}, {"bert", 0.01}, {"bert", 0.02},
		{"resnet50", 0.02}, {"rnnt", 0.01}, {"rnnt", 0.02}, {"ssd-mobilenet", 0.02},
		{"ssd-resnet34", 0.02},
	},
	next: func(s *stream) item {
		p := s.perm[s.zipf.Uint64()]
		switch u := s.rng.Float64(); {
		case u < 0.6:
			return item{op: opCSV, profile: p}
		case u < 0.8:
			return item{op: opJSON, profile: p}
		default:
			return item{op: opGet, profile: p, getCSV: s.rng.Intn(2) == 0}
		}
	},
	warmup: func(s *stream) []item {
		var out []item
		for p := range s.w.profiles {
			out = append(out, item{op: opCSV, profile: p}, item{op: opJSON, profile: p})
		}
		return out
	},
}

// coldMix: two peered replicas, every request a distinct (profile, θ) pair,
// half CSV uploads and half JSON workload-mode envelopes, half to each
// replica.
var coldMix = &workload{
	name:     "cold-mix",
	replicas: 2,
	rate:     50,
	tailPct:  95,
	sloMS:    100,
	csv:      true,
	profiles: []profileSpec{
		{"gst", 0.01}, {"lgt", 0.002}, {"lgt", 0.005}, {"nst", 0.002}, {"nst", 0.005},
		{"rnnt", 0.005}, {"rnnt", 0.01}, {"dcg", 0.002}, {"dcg", 0.005},
		{"lmc", 0.005}, {"rfl", 0.005}, {"spt", 0.01}, {"ssd-mobilenet", 0.01},
		{"3d-unet", 0.005}, {"gru", 0.01}, {"bert", 0.005},
	},
	// Classes are (profile, shape, replica): every block sends each profile
	// as CSV and as JSON to each replica once.
	next: func(s *stream) item {
		c := s.deal()
		p, o, target := c/4, op(c%4/2), c%2
		return item{op: o, profile: p, theta: s.distinctTheta(s.use(p, int(o))), target: target}
	},
	warmup: warmBlock,
}

// warmBlock warms a miss workload with one full block of its requests, so
// the replicas have run every request class before timing starts.
func warmBlock(s *stream) []item { return s.take(s.w.classes) }

func init() {
	coldMix.classes = len(coldMix.profiles) * 4
	methods.classes = len(methods.profiles) * len(methodNames)
}

// methodNames are the non-default methodologies the methods workload draws.
var methodNames = []string{"pks", "twophase", "rss"}

// methods: one replica, JSON workload-mode misses on small profiles under
// the non-default methodologies. The methodology seed is plan-affecting for
// all three (k-means initialisation, pilot subsample, ranked-set draws), so
// a fresh seed per (profile, method) forces a miss.
var methods = &workload{
	name:     "methods",
	replicas: 1,
	rate:     45,
	tailPct:  95,
	sloMS:    100,
	profiles: []profileSpec{
		{"gru", 0.01}, {"rnnt", 0.002}, {"gst", 0.01}, {"lmr", 0.005},
		{"ssd-mobilenet", 0.005}, {"ssd-resnet34", 0.005}, {"bert", 0.002},
		{"resnet50", 0.005}, {"gms", 0.002}, {"3d-unet", 0.002}, {"spt", 0.002}, {"rfl", 0.002},
	},
	// Classes are (profile, method).
	next: func(s *stream) item {
		c := s.deal()
		p, m := c/len(methodNames), c%len(methodNames)
		return item{op: opJSON, profile: p, method: methodNames[m], seed: uint64(s.offset*1e6) + uint64(1+s.use(p, m))}
	},
	warmup: warmBlock,
}

// renderCSV generates the workload and profiles it on the default hardware
// model, giving the rows the server would generate for the equivalent
// workload-mode request.
func renderCSV(p profileSpec) ([]byte, error) {
	w, err := sieve.GenerateWorkload(p.workload, p.scale)
	if err != nil {
		return nil, err
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		return nil, err
	}
	prof, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	var sb strings.Builder
	if err := sieve.WriteProfileCSV(prof, &sb); err != nil {
		return nil, err
	}
	return []byte(sb.String()), nil
}

// inputs are a workload's rendered request bodies.
type inputs struct {
	w   *workload
	csv [][]byte // per profile, when the workload uploads CSVs
}

func renderInputs(w *workload) (*inputs, error) {
	in := &inputs{w: w}
	if !w.csv {
		return in, nil
	}
	in.csv = make([][]byte, len(w.profiles))
	for i, p := range w.profiles {
		b, err := renderCSV(p)
		if err != nil {
			return nil, fmt.Errorf("render %s@%g: %w", p.workload, p.scale, err)
		}
		in.csv[i] = b
	}
	return in, nil
}

// request is the HTTP form of an item.
type request struct {
	method, path, ctype string
	body                []byte
}

// httpRequest builds the item's HTTP request. ids maps plan keys to the plan
// ids learned during warm-up (needed by GETs only).
func (in *inputs) httpRequest(it item, ids map[string]string) (request, error) {
	switch it.op {
	case opCSV:
		path := "/v1/sample"
		if it.theta != 0 {
			path += "?theta=" + strconv.FormatFloat(it.theta, 'g', -1, 64)
		}
		return request{"POST", path, "text/csv", in.csv[it.profile]}, nil
	case opJSON:
		p := in.w.profiles[it.profile]
		body, err := json.Marshal(api.SampleRequest{
			Workload: p.workload,
			Scale:    p.scale,
			Options:  api.RequestOptions{Theta: it.theta, Method: it.method, Seed: it.seed},
		})
		return request{"POST", "/v1/sample", "application/json", body}, err
	default:
		id, ok := ids[it.key()]
		if !ok {
			return request{}, fmt.Errorf("no plan id learned for %s", it.key())
		}
		return request{"GET", "/v1/plans/" + id, "", nil}, nil
	}
}
