package rss

import (
	"math/rand"
	"sort"
	"testing"
)

// referencePick is the textbook ranked-set draw the drawer must reproduce:
// a math/rand stream per draw, a partial Fisher–Yates over a full copy of
// the stratum, and a sort of the candidates by (count, index).
func referencePick(seed int64, members []int, count map[int]float64, m int) int {
	r := rand.New(rand.NewSource(seed))
	n := len(members)
	if m > n {
		m = n
	}
	pool := append([]int(nil), members...)
	for i := 0; i < m; i++ {
		j := i + r.Intn(n-i)
		pool[i], pool[j] = pool[j], pool[i]
	}
	cand := pool[:m]
	sort.Slice(cand, func(a, b int) bool {
		if count[cand[a]] != count[cand[b]] {
			return count[cand[a]] < count[cand[b]]
		}
		return cand[a] < cand[b]
	})
	return cand[(m-1)/2]
}

// TestRankedPickMatchesReference: over stratum sizes, set sizes (including
// m > n) and seeds, with tied instruction counts, the drawer picks exactly
// the reference draw's representative.
func TestRankedPickMatchesReference(t *testing.T) {
	d := newDrawer()
	gen := rand.New(rand.NewSource(3))
	for n := 1; n <= 40; n++ {
		members := gen.Perm(3 * n)[:n] // sparse, unordered global indices
		count := map[int]float64{}
		for _, idx := range members {
			count[idx] = float64(gen.Intn(n/2 + 1)) // ties are common
		}
		for m := 1; m <= 9; m++ {
			for s := 0; s < 25; s++ {
				seed := subSeed(int64(s), n, m)
				want := referencePick(seed, members, count, m)
				got := d.rankedPick(seed, members, count, m)
				if got.idx != want || got.count != count[want] {
					t.Fatalf("n=%d m=%d seed=%d: picked %+v, want %d (count %g)", n, m, seed, got, want, count[want])
				}
			}
		}
	}
}

// TestRankedPickAllocatesNothing: once its lists have grown, a draw
// allocates nothing, whatever the stratum size.
func TestRankedPickAllocatesNothing(t *testing.T) {
	members := make([]int, 5000)
	count := make(map[int]float64, len(members))
	for i := range members {
		members[i] = i
		count[i] = float64(i % 97)
	}
	d := newDrawer()
	d.rankedPick(1, members, count, 5) // warm-up grows the scratch lists
	seed := int64(1)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		d.rankedPick(seed, members, count, 5)
	})
	if allocs != 0 {
		t.Fatalf("rankedPick allocates %v per draw, want 0", allocs)
	}
}
