// Package rss implements ranked-set sampling with repeated subsampling, in
// the style of the NVIDIA CPU-sampling work (*CPU Simulation with Ranked Set
// Sampling and Repeated Subsampling*). Within each base stratum the
// representative is chosen by a ranked-set draw — m seeded candidates are
// ranked by instruction count and the median rank is selected, which
// concentrates selection on centrally representative invocations without
// measuring the whole stratum — and the whole selection is then repeated R
// times under derived seeds. The spread of the R resampled estimates yields
// a confidence interval on the plan's relative estimation error, attached to
// the plan as core.ErrorInterval: an error bar instead of a single point
// estimate, with width shrinking as 1/√R.
//
// Every draw derives deterministically from Options.Seed, the stratum
// position and the resample number, so the same seed produces a
// byte-identical plan and interval.
package rss

import (
	"context"
	"math"
	"math/rand"

	"github.com/gpusampling/sieve/internal/core"
	"github.com/gpusampling/sieve/internal/rng"
	"github.com/gpusampling/sieve/internal/sampler"
	"github.com/gpusampling/sieve/internal/stats"
)

// Method is the registry name.
const Method = "rss"

type rankedSet struct{}

func (rankedSet) Name() string { return Method }

// subSeed mixes the run seed with the stratum position and resample number
// (splitmix64-style finalizer) so every draw has an independent,
// reproducible stream. Resample 0 is the plan's own selection.
func subSeed(seed int64, stratum, resample int) int64 {
	z := uint64(seed) + uint64(stratum+1)*0x9E3779B97F4A7C15 + uint64(resample)*0xBF58476D1CE4E5B9
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1)
}

// drawer holds one Plan call's ranked-set draw state: a single random
// stream, re-seeded for every draw, and the draw's scratch lists, so a draw
// allocates nothing once the lists have grown to the set size.
type drawer struct {
	rng   *rand.Rand
	moved []displaced // shuffle positions whose member differs from the stratum's
	cand  []candidate // the draw's candidates, kept sorted
}

// displaced records that position pos of a partial shuffle now holds idx.
type displaced struct{ pos, idx int }

// candidate is one drawn invocation and its instruction count.
type candidate struct {
	count float64
	idx   int
}

// less orders candidates by (instruction count, index).
func (c candidate) less(o candidate) bool {
	if c.count != o.count {
		return c.count < o.count
	}
	return c.idx < o.idx
}

func newDrawer() *drawer { return &drawer{rng: rand.New(rng.NewSource(0))} }

// at returns the member at position pos of the partial shuffle.
func (d *drawer) at(members []int, pos int) int {
	for _, m := range d.moved {
		if m.pos == pos {
			return m.idx
		}
	}
	return members[pos]
}

// put records that position pos of the partial shuffle holds idx.
func (d *drawer) put(pos, idx int) {
	for i := range d.moved {
		if d.moved[i].pos == pos {
			d.moved[i].idx = idx
			return
		}
	}
	d.moved = append(d.moved, displaced{pos, idx})
}

// rankedPick runs one ranked-set draw under seed: up to m distinct
// candidates from the stratum, chosen by the first m swaps of a
// Fisher–Yates shuffle, ranked by (instruction count, index); the median
// rank wins. The shuffle tracks only the ≤ m positions it displaces instead
// of copying the stratum, and the candidates are ranked by insertion, so a
// draw costs O(m²) — m is a small set size — independent of stratum size.
func (d *drawer) rankedPick(seed int64, members []int, count map[int]float64, m int) candidate {
	d.rng.Seed(seed)
	n := len(members)
	if m > n {
		m = n
	}
	d.moved, d.cand = d.moved[:0], d.cand[:0]
	for i := 0; i < m; i++ {
		j := i + d.rng.Intn(n-i)
		c := candidate{idx: d.at(members, j)}
		if j != i {
			d.put(j, d.at(members, i))
		}
		c.count = count[c.idx]
		k := len(d.cand)
		d.cand = append(d.cand, c)
		for ; k > 0 && c.less(d.cand[k-1]); k-- {
			d.cand[k] = d.cand[k-1]
		}
		d.cand[k] = c
	}
	return d.cand[(m-1)/2]
}

// Plan stratifies with the base Sieve pipeline, replaces each stratum's
// representative with a ranked-set selection, and attaches the
// repeated-subsampling error interval.
func (rankedSet) Plan(ctx context.Context, p *sampler.Profile, opts sampler.Options) (*core.Result, error) {
	opts, err := opts.WithDefaults()
	if err != nil {
		return nil, err
	}
	base, err := core.StratifyContext(ctx, p.Rows, opts.Core)
	if err != nil {
		return nil, err
	}
	count := make(map[int]float64, len(p.Rows))
	for _, r := range p.Rows {
		count[r.Index] = r.InstructionCount
	}
	d := newDrawer()

	specs := make([]core.StratumSpec, len(base.Strata))
	for h := range base.Strata {
		s := &base.Strata[h]
		specs[h] = core.StratumSpec{
			Kernel:         s.Kernel,
			Tier:           s.Tier,
			Members:        append([]int(nil), s.Invocations...),
			Representative: d.rankedPick(subSeed(opts.Seed, h, 0), s.Invocations, count, opts.SetSize).idx,
		}
	}
	res, err := core.Assemble(p.Rows, specs, base.Theta)
	if err != nil {
		return nil, err
	}
	res.Method = Method

	// Repeated subsampling: rerun the ranked-set selection R times under
	// derived seeds and estimate total instructions from each selection
	// (count-expansion: Σ stratum size × selected count). The signed
	// relative errors of the R estimates against the known total give the
	// interval — mean, standard error s/√R, and a ±2·stderr band.
	errs := make([]float64, opts.Resamples)
	for r := 1; r <= opts.Resamples; r++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		var est float64
		for h := range base.Strata {
			s := &base.Strata[h]
			rep := d.rankedPick(subSeed(opts.Seed, h, r), s.Invocations, count, opts.SetSize)
			est += float64(len(s.Invocations)) * rep.count
		}
		errs[r-1] = (est - base.TotalInstructions) / base.TotalInstructions
	}
	mean := stats.Mean(errs)
	stderr := stats.StdDev(errs) / math.Sqrt(float64(opts.Resamples))
	res.Interval = &core.ErrorInterval{
		Mean:      mean,
		StdErr:    stderr,
		Low:       mean - 2*stderr,
		High:      mean + 2*stderr,
		Resamples: opts.Resamples,
	}
	return res, nil
}

// EstimateInterval implements sampler.ErrorEstimator by building the plan
// and returning its attached interval.
func (r rankedSet) EstimateInterval(ctx context.Context, p *sampler.Profile, opts sampler.Options) (*core.ErrorInterval, error) {
	res, err := r.Plan(ctx, p, opts)
	if err != nil {
		return nil, err
	}
	return res.Interval, nil
}

func init() {
	sampler.Register(Method, func() sampler.Sampler { return rankedSet{} })
}
