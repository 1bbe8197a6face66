// Package rng provides Source, a math/rand.Source64 whose output is exactly
// the stream of math/rand.NewSource(seed) but whose Seed costs O(1).
//
// math/rand's additive lagged-Fibonacci generator fills its whole 607-word
// register on every Seed — 1,841 steps of a Lehmer LCG — even when the
// caller then draws only a handful of numbers. The samplers re-seed once per
// stratum and resample to keep every draw independently reproducible, so
// that fill dominated their cost. Source instead records the LCG start and
// builds each register slot the first time a draw touches it: slot i is
// three LCG words at fixed positions, each x0·48271^j mod (2³¹−1) read off a
// precomputed power table, XORed with math/rand's constant "cooked" table.
//
// The cooked table is not copied from the standard library. It is recovered
// at init from rand.NewSource(1): the generator's first 607 outputs are the
// register after 607 steps, running the recurrence backwards gives the
// seeded register, and XORing off seed 1's LCG words leaves the table.
package rng

import "math/rand"

const (
	regLen   = 607       // register length (math/rand rngLen)
	regTap   = 273       // feedback tap (math/rand rngTap)
	lcgMod   = 1<<31 - 1 // Lehmer LCG modulus
	lcgMul   = 48271     // Lehmer LCG multiplier
	lcgSkip  = 20        // LCG steps math/rand discards before slot 0
	zeroSeed = 89482311  // math/rand's substitute for a zero seed
	int63    = 1<<63 - 1 // Int63 mask
)

var (
	// lcgPow[i][k] is 48271^(lcgSkip+3i+k+1) mod (2³¹−1): the multiplier
	// taking the LCG start to the k-th word of register slot i.
	lcgPow [regLen][3]uint64
	// cooked is math/rand's rngCooked, recovered in init.
	cooked [regLen]int64
)

func init() {
	p := uint64(1)
	for j := 0; j < lcgSkip; j++ {
		p = p * lcgMul % lcgMod
	}
	for i := range lcgPow {
		for k := range lcgPow[i] {
			p = p * lcgMul % lcgMod
			lcgPow[i][k] = p
		}
	}

	// Draw t writes vec[feed_t] += vec[tap_t] and returns the sum. Over the
	// first regLen draws every slot is the feed exactly once, so the
	// outputs are the register after regLen steps; undoing the steps in
	// reverse order restores the freshly seeded register.
	std := rand.NewSource(1).(rand.Source64)
	var vec [regLen]int64
	feeds, taps := make([]int, regLen), make([]int, regLen)
	tap, feed := 0, regLen-regTap
	for t := 0; t < regLen; t++ {
		tap, feed = prev(tap), prev(feed)
		taps[t], feeds[t] = tap, feed
		vec[feed] = int64(std.Uint64())
	}
	for t := regLen - 1; t >= 0; t-- {
		vec[feeds[t]] -= vec[taps[t]]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lcgWords(1, i)
	}
}

func prev(i int) int {
	if i == 0 {
		return regLen - 1
	}
	return i - 1
}

// lcgWords is register slot i's LCG contribution for canonical start x0:
// its three words packed the way math/rand's Seed packs them.
func lcgWords(x0 uint64, i int) int64 {
	w := &lcgPow[i]
	return int64(x0*w[0]%lcgMod)<<40 ^ int64(x0*w[1]%lcgMod)<<20 ^ int64(x0*w[2]%lcgMod)
}

// Source is a math/rand.Source64 producing exactly math/rand.NewSource's
// stream for the same seed, with O(1) seeding. Wrap it as rand.New(src) and
// re-seed through the Rand's Seed method. The zero Source is unseeded:
// create Sources with NewSource. A Source is not safe for concurrent use.
type Source struct {
	x0        uint64 // canonical LCG start of the current seed
	gen       uint32 // seeding generation; a slot is live iff built[i] == gen
	tap, feed int
	built     [regLen]uint32
	vec       [regLen]int64
}

var _ rand.Source64 = (*Source)(nil)

// NewSource returns a Source seeded with seed.
func NewSource(seed int64) *Source {
	s := &Source{}
	s.Seed(seed)
	return s
}

// Seed resets the stream to math/rand.NewSource(seed)'s. Every register
// slot becomes stale and is rebuilt when a draw next touches it.
func (s *Source) Seed(seed int64) {
	seed %= lcgMod
	if seed < 0 {
		seed += lcgMod
	}
	if seed == 0 {
		seed = zeroSeed
	}
	s.x0 = uint64(seed)
	s.tap, s.feed = 0, regLen-regTap
	s.gen++
	if s.gen == 0 { // stamps wrapped: forget every old one
		clear(s.built[:])
		s.gen = 1
	}
}

// slot returns register slot i, building it for the current seed first if
// no draw since the last Seed has touched it.
func (s *Source) slot(i int) int64 {
	if s.built[i] != s.gen {
		s.built[i] = s.gen
		s.vec[i] = lcgWords(s.x0, i) ^ cooked[i]
	}
	return s.vec[i]
}

// Uint64 returns the next 64-bit value of the stream.
func (s *Source) Uint64() uint64 {
	s.tap, s.feed = prev(s.tap), prev(s.feed)
	x := s.slot(s.feed) + s.slot(s.tap)
	s.vec[s.feed] = x
	return uint64(x)
}

// Int63 returns the next value of the stream as a non-negative int64.
func (s *Source) Int63() int64 { return int64(s.Uint64() & int63) }
