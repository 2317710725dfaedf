package synth

import (
	"math"
	"math/rand"
	"testing"
)

func TestSubSeedDeterministic(t *testing.T) {
	for _, c := range []struct{ point, trial int }{{0, 0}, {3, 17}, {11, 199}} {
		a := SubSeed(42, c.point, c.trial)
		b := SubSeed(42, c.point, c.trial)
		if a != b {
			t.Fatalf("SubSeed(42,%d,%d) not deterministic: %d vs %d", c.point, c.trial, a, b)
		}
	}
}

func TestSubSeedDistinctAcrossShards(t *testing.T) {
	// A campaign-sized grid must not collide: collisions would silently
	// duplicate trials and bias acceptance ratios.
	seen := make(map[int64][2]int)
	for point := 0; point < 64; point++ {
		for trial := 0; trial < 512; trial++ {
			s := SubSeed(7, point, trial)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (%d,%d) and (%d,%d) both map to %d",
					prev[0], prev[1], point, trial, s)
			}
			seen[s] = [2]int{point, trial}
		}
	}
}

func TestSubSeedSensitiveToCampaignSeed(t *testing.T) {
	if SubSeed(1, 0, 0) == SubSeed(2, 0, 0) {
		t.Fatal("different campaign seeds produced the same shard seed")
	}
}

func TestSubRandStreamsDiffer(t *testing.T) {
	a, b := SubRand(1, 0, 0), SubRand(1, 0, 1)
	same := 0
	for i := 0; i < 16; i++ {
		if a.Float64() == b.Float64() {
			same++
		}
	}
	if same == 16 {
		t.Fatal("adjacent trial sub-streams are identical")
	}
}

// subRandOracle is the reference shard generator: a full math/rand source
// seeded with the shard seed. Stream must reproduce its draws exactly.
func subRandOracle(seed int64, point, trial int) *rand.Rand {
	return rand.New(rand.NewSource(SubSeed(seed, point, trial)))
}

// drawMixed takes draws values from r, cycling through every rand.Rand
// method a campaign might call, and returns them as bit patterns.
func drawMixed(r *rand.Rand, draws int) []uint64 {
	out := make([]uint64, 0, draws)
	for i := 0; len(out) < draws; i++ {
		switch i % 8 {
		case 0:
			out = append(out, r.Uint64())
		case 1:
			out = append(out, uint64(r.Int63()))
		case 2:
			out = append(out, math.Float64bits(r.Float64()))
		case 3:
			out = append(out, uint64(r.Intn(1000)))
		case 4:
			out = append(out, uint64(r.Int31n(1<<30+7)))
		case 5:
			out = append(out, math.Float64bits(r.NormFloat64()))
		case 6:
			out = append(out, math.Float64bits(r.ExpFloat64()))
		default:
			for _, v := range r.Perm(5) {
				out = append(out, uint64(v))
			}
		}
	}
	return out[:draws]
}

// checkSeed compares r, already seeded with seed, against a fresh
// math/rand source for draws draws.
func checkSeed(t testing.TB, r *rand.Rand, seed int64, draws int) {
	t.Helper()
	got := drawMixed(r, draws)
	want := drawMixed(rand.New(rand.NewSource(seed)), draws)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("seed %d: draw %d = %#x, math/rand gives %#x", seed, i, got[i], want[i])
		}
	}
}

// TestStreamMatchesMathRand is the differential test of the lazily seeded
// source against math/rand over edge-case and random seeds. 2000 draws cross
// the tap (273) and fresh-feed (334) boundaries and the 607-word wrap. One
// source is re-seeded for every seed, and also re-seeded after every boundary
// draw count, so stale register words from an earlier seed would show.
func TestStreamMatchesMathRand(t *testing.T) {
	seeds := []int64{0, 1, -1, int32max, -int32max, 2 * int32max, 89482311, math.MinInt64, math.MaxInt64}
	rng := rand.New(rand.NewSource(20121003))
	for i := 0; i < 300; i++ {
		seeds = append(seeds, int64(rng.Uint64()))
	}
	var src lazySource
	r := rand.New(&src)
	for _, seed := range seeds {
		r.Seed(seed)
		checkSeed(t, r, seed, 2000)
	}
	for _, k := range []int{0, 1, rngTap - 1, rngTap, rngFresh - 1, rngFresh, rngLen - 1, rngLen, 1000} {
		for _, seed := range seeds[:12] {
			r.Seed(^seed)
			for i := 0; i < k; i++ {
				r.Uint64()
			}
			r.Seed(seed)
			checkSeed(t, r, seed, 2000)
		}
	}
}

// TestStreamSubMatchesOracle checks Stream.Sub and SubRand against the
// math/rand shard generator over a campaign-shaped grid, reusing one Stream.
func TestStreamSubMatchesOracle(t *testing.T) {
	var s Stream
	for point := 0; point < 8; point++ {
		for trial := 0; trial < 40; trial++ {
			want := drawMixed(subRandOracle(3, point, trial), 64)
			for name, r := range map[string]*rand.Rand{"Sub": s.Sub(3, point, trial), "SubRand": SubRand(3, point, trial)} {
				got := drawMixed(r, 64)
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s(3,%d,%d): draw %d = %#x, oracle gives %#x", name, point, trial, i, got[i], want[i])
					}
				}
			}
		}
	}
}

// TestStreamSubAllocs pins the zero-allocation contract of re-seeding a
// worker's stream and drawing a trial's worth of numbers.
func TestStreamSubAllocs(t *testing.T) {
	var s Stream
	trial := 0
	allocs := testing.AllocsPerRun(100, func() {
		r := s.Sub(1, 2, trial)
		for i := 0; i < 12; i++ {
			r.Float64()
		}
		trial++
	})
	if allocs != 0 {
		t.Fatalf("Stream.Sub + 12 Float64 draws: %v allocs/op, want 0", allocs)
	}
}

// FuzzStreamMatchesMathRand compares the lazily seeded source with math/rand
// for any seed and draw count, after first running the reused source on a
// different seed.
func FuzzStreamMatchesMathRand(f *testing.F) {
	for _, seed := range []int64{0, 1, -1, int32max, math.MinInt64, math.MaxInt64} {
		f.Add(seed, uint16(rngLen+1))
	}
	f.Fuzz(func(t *testing.T, seed int64, draws uint16) {
		var src lazySource
		r := rand.New(&src)
		r.Seed(^seed)
		for i := 0; i < int(draws)%(rngLen+1); i++ {
			r.Uint64()
		}
		r.Seed(seed)
		checkSeed(t, r, seed, int(draws))
	})
}

// BenchmarkSubRand times one shard's set-up plus the dozen Float64 draws a
// campaign trial takes: a reused Stream against a fresh math/rand source.
func BenchmarkSubRand(b *testing.B) {
	for _, impl := range []struct {
		name string
		sub  func(seed int64, point, trial int) *rand.Rand
	}{
		{"stream", new(Stream).Sub},
		{"math-rand", subRandOracle},
	} {
		b.Run("impl="+impl.name, func(b *testing.B) {
			b.ReportAllocs()
			var sum float64
			for i := 0; i < b.N; i++ {
				r := impl.sub(1, 0, i)
				for k := 0; k < 12; k++ {
					sum += r.Float64()
				}
			}
			if sum < 0 {
				b.Fatal(sum)
			}
		})
	}
}
