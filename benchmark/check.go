package main

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"

	sieve "github.com/gpusampling/sieve"
	"github.com/gpusampling/sieve/api"
	"github.com/gpusampling/sieve/internal/pks"
)

// checks counts the passes of every correctness check by name.
type checks struct {
	mu          sync.Mutex
	pass, total map[string]int
}

func newChecks() *checks { return &checks{pass: map[string]int{}, total: map[string]int{}} }

// record counts one evaluation of the named check and returns ok.
func (c *checks) record(name string, ok bool) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.total[name]++
	if ok {
		c.pass[name]++
	}
	return ok
}

// failed reports whether any check failed at least once.
func (c *checks) failed() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for name, n := range c.total {
		if c.pass[name] != n {
			return true
		}
	}
	return false
}

// lines renders "check <name> <pass>/<total>" lines in name order.
func (c *checks) lines() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.total))
	for n := range c.total {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]string, len(names))
	for i, n := range names {
		out[i] = fmt.Sprintf("check %s %d/%d", n, c.pass[n], c.total[n])
	}
	return out
}

// envelope decodes a plan response and checks the fields every answer must
// carry: a 64-hex-digit plan id and the expected cached flag.
func envelope(body []byte, wantCached bool) (api.PlanEnvelope, bool) {
	var env api.PlanEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		return env, false
	}
	_, err := hex.DecodeString(env.PlanID)
	return env, err == nil && len(env.PlanID) == 64 && env.Cached == wantCached && len(env.Plan) > 0
}

// decodeEnvelope decodes a plan response without checking it; a body that
// is not an envelope gives the zero value.
func decodeEnvelope(body []byte) api.PlanEnvelope {
	env, _ := envelope(body, false)
	return env
}

// refs computes reference plans in-process from the same rows the server
// plans from, caching the per-profile rows.
type refs struct {
	in   *inputs
	mu   sync.Mutex
	rows map[[2]int][]sieve.InvocationProfile // (profile, op) → rows
	full map[int]*sieve.MethodProfile         // pks inputs per profile
}

func newRefs(in *inputs) *refs {
	return &refs{in: in, rows: map[[2]int][]sieve.InvocationProfile{}, full: map[int]*sieve.MethodProfile{}}
}

// coreOptions mirrors how sieved resolves request options: θ=0 is the paper
// default, dominant-CTA-first selection, KDE splitting, GOMAXPROCS workers
// (plans are byte-identical across worker counts).
func coreOptions(theta float64) sieve.Options {
	if theta == 0 {
		theta = sieve.DefaultTheta
	}
	return sieve.Options{Theta: theta, Selection: sieve.SelectDominantCTAFirst, Tier3Splitter: sieve.SplitKDE, Parallelism: runtime.GOMAXPROCS(0)}
}

// profileRows returns the rows the server plans an item from: the parsed CSV
// upload, or the workload generated and profiled on the default hardware.
func (r *refs) profileRows(it item) ([]sieve.InvocationProfile, error) {
	k := [2]int{it.profile, int(it.planOp())}
	r.mu.Lock()
	rows, ok := r.rows[k]
	r.mu.Unlock()
	if ok {
		return rows, nil
	}
	if it.planOp() == opCSV {
		p, err := sieve.ReadProfileCSV(strings.NewReader(string(r.in.csv[it.profile])))
		if err != nil {
			return nil, err
		}
		rows = sieve.ProfileRows(p)
	} else {
		mp, err := methodProfile(r.in.w.profiles[it.profile], false)
		if err != nil {
			return nil, err
		}
		rows = mp.Rows
	}
	r.mu.Lock()
	r.rows[k] = rows
	r.mu.Unlock()
	return rows, nil
}

// methodProfile generates and profiles a workload-mode profile the way
// sieved does, with pks's feature vectors and golden cycles when full.
func methodProfile(p profileSpec, full bool) (*sieve.MethodProfile, error) {
	w, err := sieve.GenerateWorkload(p.workload, p.scale)
	if err != nil {
		return nil, err
	}
	hw, err := sieve.NewHardware(sieve.Ampere())
	if err != nil {
		return nil, err
	}
	counts, err := sieve.ProfileInstructionCounts(w, hw)
	if err != nil {
		return nil, err
	}
	mp := &sieve.MethodProfile{Rows: sieve.ProfileRows(counts)}
	if full {
		f, err := sieve.ProfileFull(w, hw)
		if err != nil {
			return nil, err
		}
		mp.Features, mp.GoldenCycles = sieve.FeatureRows(f), hw.MeasureWorkload(w)
	}
	return mp, nil
}

// methodOptions mirrors sieved's options for a non-default methodology: the
// request seed seeds the methodology, and pks's own k-means.
func methodOptions(it item) sieve.MethodOptions {
	o := sieve.MethodOptions{Core: coreOptions(it.theta), Seed: int64(it.seed)}
	if it.method == "pks" {
		o.PKS = pks.Options{Seed: int64(it.seed), Parallelism: runtime.GOMAXPROCS(0)}
	}
	return o
}

// plan computes the reference plan for an item.
func (r *refs) plan(ctx context.Context, it item) (*sieve.Plan, error) {
	if it.method == "pks" {
		r.mu.Lock()
		mp, ok := r.full[it.profile]
		r.mu.Unlock()
		if !ok {
			var err error
			if mp, err = methodProfile(r.in.w.profiles[it.profile], true); err != nil {
				return nil, err
			}
			r.mu.Lock()
			r.full[it.profile] = mp
			r.mu.Unlock()
		}
		return sieve.SampleMethodContext(ctx, it.method, mp, methodOptions(it))
	}
	rows, err := r.profileRows(it)
	if err != nil {
		return nil, err
	}
	if it.method != "" {
		return sieve.SampleMethodContext(ctx, it.method, &sieve.MethodProfile{Rows: rows}, methodOptions(it))
	}
	return sieve.SampleContext(ctx, rows, coreOptions(it.theta))
}

// samePlan checks a served plan document against the reference: the same
// representatives, and the same stratum weights in the same order.
func samePlan(doc []byte, ref *sieve.Plan) bool {
	var p api.Plan
	if err := json.Unmarshal(doc, &p); err != nil {
		return false
	}
	reps := ref.RepresentativeIndices()
	if len(p.Representatives) != len(reps) || len(p.Strata) != len(ref.Strata) {
		return false
	}
	for i, r := range reps {
		if p.Representatives[i] != r {
			return false
		}
	}
	for i, s := range ref.Strata {
		if p.Strata[i].Weight != s.Weight || p.Strata[i].Representative != s.Representative {
			return false
		}
	}
	return true
}
