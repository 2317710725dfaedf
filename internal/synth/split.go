package synth

import "math/rand"

// This file provides splittable seed derivation for sharded experiment
// campaigns. A campaign that fans its trials out over a worker pool cannot
// share one sequential *rand.Rand without making the draw order — and hence
// every result — depend on goroutine scheduling. Instead each (point, trial)
// shard derives its own seed from the campaign seed through SplitMix64, a
// bijective 64-bit finalizer with full avalanche (Steele, Lea & Flood's
// SplittableRandom construction; also the stream-seeding mix of xoshiro).
// The derived seed is a pure function of (seed, point, trial), so a campaign
// produces bit-identical results for any worker count, including one.
//
// SplitMix64 is bijective for a fixed increment, so two shards of the same
// campaign collide only if their (point, trial) pairs collide; across
// campaign seeds the mixing makes correlated sub-streams astronomically
// unlikely (no structure survives three rounds of the finalizer).

// splitmix64 advances one SplitMix64 state step and returns the mixed
// output: the golden-gamma increment followed by the MurmurHash3-style
// 64-bit finalizer (variant by David Stafford, mix 13).
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// SubSeed derives the deterministic seed of one (point, trial) shard of a
// campaign seeded with seed. The derivation chains three SplitMix64 rounds —
// one per input — so shards that differ in any coordinate (or campaigns that
// differ in seed) get unrelated streams, while the same coordinates always
// reproduce the same seed regardless of evaluation order or worker count.
func SubSeed(seed int64, point, trial int) int64 {
	x := splitmix64(uint64(seed))
	x = splitmix64(x ^ uint64(point))
	x = splitmix64(x ^ uint64(trial))
	return int64(x)
}

// SubRand returns a *rand.Rand seeded for the (point, trial) shard — the
// generator a campaign worker draws one trial's inputs from. It allocates a
// fresh Stream; a worker that seeds many shards reuses one via Stream.Sub.
func SubRand(seed int64, point, trial int) *rand.Rand {
	return new(Stream).Sub(seed, point, trial)
}

// Stream is a worker-owned shard generator. Sub re-seeds it in O(1) and
// hands back the same *rand.Rand, whose draws equal those of
// rand.New(rand.NewSource(SubSeed(seed, point, trial))) exactly.
//
// math/rand's source is an additive lagged Fibonacci generator over 607
// words, and its Seed fills every word with three Lehmer (48271 mod 2³¹−1)
// steps each — 1841 steps, about 11 µs — before the first draw. A campaign
// trial draws a dozen numbers. lazySource instead computes each word the
// first time a draw reads it, jumping straight to the word's Lehmer state
// with a precomputed power of 48271. Go 1 compatibility freezes the
// math/rand sequence, so the campaign tables stay bit-identical.
type Stream struct {
	src lazySource
	r   *rand.Rand
}

// Sub re-seeds the stream for the (point, trial) shard of a campaign seeded
// with seed and returns its generator, valid until the next call to Sub.
func (s *Stream) Sub(seed int64, point, trial int) *rand.Rand {
	if s.r == nil {
		s.r = rand.New(&s.src)
	}
	s.r.Seed(SubSeed(seed, point, trial))
	return s.r
}

const (
	rngLen   = 607             // math/rand register length
	rngTap   = 273             // math/rand feedback lag
	rngFresh = rngLen - rngTap // initial feed index; after this many draws every word is computed
	int32max = 1<<31 - 1       // Lehmer modulus
	lehmer   = 48271           // Lehmer multiplier
)

var (
	// seedPow[i] is 48271^(21+3i) mod 2³¹−1: math/rand's Seed takes 20
	// warm-up steps, then three steps per word, word i starting at step
	// 21+3i.
	seedPow [rngLen]uint64
	// cooked holds math/rand's per-word XOR constants (rngCooked).
	cooked [rngLen]uint64
)

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * lehmer % int32max
	}
	for i := range seedPow {
		seedPow[i] = p
		p = p * lehmer % int32max * lehmer % int32max * lehmer % int32max
	}
	// Recover the seeded register of rand.NewSource(1) from its first
	// rngLen outputs by inverting the recurrence: draw k adds the tap word
	// vec[606−k] into the feed word vec[(333−k) mod 607], and from draw 273
	// on the tap word is draw k−273's output. The cooked constants are the
	// register words XOR the Lehmer words of seed 1.
	src := rand.NewSource(1).(rand.Source64)
	var out, vec [rngLen]uint64
	for k := range out {
		out[k] = src.Uint64()
	}
	for k := rngTap; k < rngLen; k++ {
		vec[(rngFresh-1-k+rngLen)%rngLen] = out[k] - out[k-rngTap]
	}
	for k := 0; k < rngTap; k++ {
		vec[rngFresh-1-k] = out[k] - vec[rngLen-1-k]
	}
	for i := range cooked {
		cooked[i] = vec[i] ^ lehmerWord(1, i)
	}
}

// lehmerWord returns register word i of math/rand's Seed for normalised seed
// x0, before the cooked XOR: three consecutive Lehmer states packed at bit
// offsets 40, 20 and 0.
func lehmerWord(x0 uint64, i int) uint64 {
	x := x0 * seedPow[i] % int32max
	u := x << 40
	x = x * lehmer % int32max
	u ^= x << 20
	x = x * lehmer % int32max
	return u ^ x
}

// lazySource is math/rand's rngSource with the register computed on demand.
// Draw k reads the feed word vec[333−k] for the first time while k < 334 and
// the tap word vec[606−k] for the first time while k < 273; every other read
// hits a word this seeding already wrote. Words left from an earlier seed are
// never read, so Seed need not clear them.
type lazySource struct {
	tap, feed int
	n         int    // draws since Seed, counted up to rngFresh
	x0        uint64 // normalised seed
	vec       [rngLen]uint64
}

// Seed normalises seed exactly as math/rand does and rewinds the register.
func (s *lazySource) Seed(seed int64) {
	s.tap, s.feed, s.n = 0, rngFresh, 0
	seed %= int32max
	if seed < 0 {
		seed += int32max
	}
	if seed == 0 {
		seed = 89482311
	}
	s.x0 = uint64(seed)
}

// Uint64 implements rand.Source64.
func (s *lazySource) Uint64() uint64 {
	s.tap--
	if s.tap < 0 {
		s.tap += rngLen
	}
	s.feed--
	if s.feed < 0 {
		s.feed += rngLen
	}
	if s.n < rngFresh {
		s.vec[s.feed] = lehmerWord(s.x0, s.feed) ^ cooked[s.feed]
		if s.n < rngTap {
			s.vec[s.tap] = lehmerWord(s.x0, s.tap) ^ cooked[s.tap]
		}
		s.n++
	}
	x := s.vec[s.feed] + s.vec[s.tap]
	s.vec[s.feed] = x
	return x
}

// Int63 implements rand.Source.
func (s *lazySource) Int63() int64 { return int64(s.Uint64() & (1<<63 - 1)) }
