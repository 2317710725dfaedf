package main

// draw is a small deterministic random stream: SplitMix64 over a state
// derived from a seed and coordinates. Every request of a run gets its own
// stream from (seed, request number), so the inputs of request i do not
// depend on how many requests came before it or on which connection sent it.
type draw struct{ s uint64 }

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// newDraw starts the stream for the given seed and coordinates.
func newDraw(seed int64, coords ...int) *draw {
	x := splitmix64(uint64(seed))
	for _, c := range coords {
		x = splitmix64(x ^ uint64(c))
	}
	return &draw{s: x}
}

func (d *draw) uint64() uint64 {
	d.s += 0x9e3779b97f4a7c15
	return splitmix64(d.s)
}

// float returns a uniform value in [0, 1).
func (d *draw) float() float64 { return float64(d.uint64()>>11) / (1 << 53) }

// between returns a uniform value in [lo, hi).
func (d *draw) between(lo, hi float64) float64 { return lo + (hi-lo)*d.float() }

// intn returns a uniform integer in [0, n).
func (d *draw) intn(n int) int { return int(d.uint64() % uint64(n)) }

// slot returns request i's slot in a mix of n slots. Each block of n
// consecutive request numbers takes every slot once, in an order the seed
// shuffles, so every block holds the mix exactly and no seed's inputs cost
// more than another's.
func slot(seed int64, i, n int) int {
	d := newDraw(seed, 102, i/n)
	perm := make([]int, n)
	for k := range perm {
		j := d.intn(k + 1)
		perm[k], perm[j] = perm[j], k
	}
	return perm[i%n]
}
