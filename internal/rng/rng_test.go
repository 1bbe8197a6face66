package rng

import (
	"math"
	"math/rand"
	"testing"
)

// testSeeds covers the canonicalization edge cases (zero, negatives,
// multiples of the LCG modulus, the int64 extremes) plus a deterministic
// spread of ordinary seeds, ≥ 10k in all.
func testSeeds() []int64 {
	seeds := []int64{
		0, 1, -1, 2, 89482311, -89482311,
		lcgMod, -lcgMod, 2 * lcgMod, -2 * lcgMod, lcgMod - 1, lcgMod + 1, -lcgMod + 1,
		math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1,
		math.MaxInt32, math.MinInt32, 1 << 31, -(1 << 31), 1 << 62,
	}
	gen := rand.New(rand.NewSource(20231017))
	for len(seeds) < 10240 {
		seeds = append(seeds, int64(gen.Uint64()))
	}
	return seeds
}

// TestStreamMatchesMathRand: every output method of a Rand over Source
// equals the same method over rand.NewSource, for ≥ 10k seeds and draw
// counts past the register's 607-slot wrap.
func TestStreamMatchesMathRand(t *testing.T) {
	src := NewSource(0)
	mine := rand.New(src)
	for n, seed := range testSeeds() {
		std := rand.New(rand.NewSource(seed))
		mine.Seed(seed) // re-seeding a used source must equal a fresh one
		draws := 8
		if n%64 == 0 {
			draws = 1500 // > 2 × 607: every slot built, then recycled twice
		}
		for d := 0; d < draws; d++ {
			var want, got uint64
			switch d % 4 {
			case 0:
				want, got = uint64(std.Int63()), uint64(mine.Int63())
			case 1:
				want, got = std.Uint64(), mine.Uint64()
			case 2:
				want, got = uint64(std.Intn(1000003)), uint64(mine.Intn(1000003))
			case 3:
				want, got = math.Float64bits(std.Float64()), math.Float64bits(mine.Float64())
			}
			if got != want {
				t.Fatalf("seed %d draw %d: got %d, want %d", seed, d, got, want)
			}
		}
		if n%512 == 0 {
			a, b := std.Perm(700), mine.Perm(700)
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("seed %d: Perm differs at %d", seed, i)
				}
			}
		}
	}
}

// TestFreshEqualsReseeded: a source re-seeded mid-stream, after its whole
// register has been built and advanced, restarts exactly like a fresh one.
func TestFreshEqualsReseeded(t *testing.T) {
	used := NewSource(7)
	for i := 0; i < 5000; i++ {
		used.Uint64()
	}
	for _, seed := range []int64{7, 8, -7, 0} {
		used.Seed(seed)
		fresh := NewSource(seed)
		for i := 0; i < 2000; i++ {
			if a, b := used.Uint64(), fresh.Uint64(); a != b {
				t.Fatalf("seed %d draw %d: re-seeded %d, fresh %d", seed, i, a, b)
			}
		}
	}
}

// TestGenerationWrap: when the seeding generation wraps, stale stamps from
// 2³² seedings ago must not be mistaken for live slots.
func TestGenerationWrap(t *testing.T) {
	s := NewSource(3)
	for i := 0; i < 10; i++ {
		s.Uint64()
	}
	s.gen = math.MaxUint32 // next Seed wraps
	s.built[regLen-regTap-1] = 1
	s.Seed(11)
	std := rand.NewSource(11).(rand.Source64)
	for i := 0; i < 1000; i++ {
		if a, b := s.Uint64(), std.Uint64(); a != b {
			t.Fatalf("draw %d after wrap: got %d, want %d", i, a, b)
		}
	}
}

// TestSeedAndDrawAllocateNothing pins the point of the package: seeding and
// a few draws through a reused Rand allocate nothing.
func TestSeedAndDrawAllocateNothing(t *testing.T) {
	r := rand.New(NewSource(1))
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		r.Seed(seed)
		for i := 0; i < 5; i++ {
			r.Intn(97)
		}
	})
	if allocs != 0 {
		t.Fatalf("Seed + 5×Intn allocates %v per run, want 0", allocs)
	}
}

// BenchmarkSeedDraw5 is the samplers' per-stratum pattern: seed, then five
// bounded draws. The /stdlib case pays math/rand's full register fill.
func BenchmarkSeedDraw5(b *testing.B) {
	b.Run("lazy", func(b *testing.B) {
		b.ReportAllocs()
		r := rand.New(NewSource(1))
		for i := 0; i < b.N; i++ {
			r.Seed(int64(i))
			for j := 0; j < 5; j++ {
				r.Intn(97)
			}
		}
	})
	b.Run("stdlib", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := rand.New(rand.NewSource(int64(i)))
			for j := 0; j < 5; j++ {
				r.Intn(97)
			}
		}
	})
}
