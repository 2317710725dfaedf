package delay

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// This file defines the canonical content fingerprint of a delay function —
// the identity the result cache (internal/memo, wired through core.Analyze)
// and every other content-addressed consumer key on. The contract, pinned by
// FuzzFingerprintCanonical and the unit tests:
//
//   - Canonical: semantically identical functions hash equal regardless of
//     how they were constructed. A Piecewise built in one go, one assembled
//     from redundantly split pieces (adjacent pieces with equal values), and
//     the Indexed view of either all share one fingerprint; likewise a
//     PiecewiseLinear with redundant collinear interior points.
//   - Exact on float bits: the hash covers the IEEE-754 bit patterns of the
//     canonical breakpoints and values, so any single mutated bit — an
//     ulp-adjacent breakpoint, a value off by one mantissa bit — yields a
//     different fingerprint. No epsilon ever enters the identity.
//   - Domain-separated by representation family: piecewise-constant and
//     piecewise-linear functions never collide structurally, because the
//     encoding leads with a family tag and the piece count.
//
// The fingerprint is truncated SHA-256 (16 bytes — the same width
// eval.Campaign.Fingerprint uses), so fingerprint equality is trustworthy
// but consumers that fold it into shorter keys must verify on use
// (internal/memo stores the full fingerprint beside every entry and treats a
// mismatch as a miss, never as a hit).

// FingerprintSize is the byte width of a Fingerprint.
const FingerprintSize = 16

// Fingerprint is the canonical content hash of a delay function.
type Fingerprint [FingerprintSize]byte

// String renders the fingerprint as lower-case hex — the spelling journal
// records and job manifests store.
func (fp Fingerprint) String() string { return hex.EncodeToString(fp[:]) }

// IsZero reports whether fp is the zero value (no fingerprint).
func (fp Fingerprint) IsZero() bool { return fp == Fingerprint{} }

// Fingerprinter is implemented by Function values that can produce (and
// possibly cache) their own canonical fingerprint. FingerprintOf consults it
// before falling back to the structural encodings it knows.
type Fingerprinter interface {
	Fingerprint() (Fingerprint, error)
}

// FingerprintOf computes the canonical fingerprint of f. Functions outside
// the canonical families (fault-injection wrappers, ad-hoc test doubles)
// return an error — the result cache treats those as unkeyable and simply
// analyzes them uncached, which is always sound.
func FingerprintOf(f Function) (Fingerprint, error) {
	switch v := f.(type) {
	case Fingerprinter:
		return v.Fingerprint()
	case *Piecewise:
		return v.fingerprint(), nil
	case *PiecewiseLinear:
		return v.fingerprint(), nil
	default:
		return Fingerprint{}, fmt.Errorf("delay: %T is not fingerprintable", f)
	}
}

// familyPiecewise / familyLinear are the domain-separation tags; they are
// part of the stable hash input and must never change.
const (
	familyPiecewise = "fnpr-delay/piecewise/v1\n"
	familyLinear    = "fnpr-delay/linear/v1\n"
)

// fingerprint hashes the canonical (compacted) form of p: adjacent pieces
// with bit-equal values merge, so every construction of the same step
// function lands on the same bytes. Runs in O(pieces); the only allocation
// is the slice h.Sum returns. The words go through a stack chunk, one hash
// Write per chunkSize bytes; SHA-256 sees the same byte stream as
// word-by-word writes.
func (p *Piecewise) fingerprint() Fingerprint {
	h := sha256.New()
	var chunk [chunkSize]byte
	n := copy(chunk[:], familyPiecewise)
	put := func(u uint64) {
		if n+8 > chunkSize {
			h.Write(chunk[:n])
			n = 0
		}
		binary.LittleEndian.PutUint64(chunk[n:], u)
		n += 8
	}
	// Canonical pieces: emit a (start, value) pair only where the value
	// changes, then the final breakpoint — exactly Compact() without
	// building it.
	pieces := 0
	for i := range p.vs {
		if i > 0 && floatBits(p.vs[i]) == floatBits(p.vs[i-1]) {
			continue
		}
		pieces++
	}
	put(uint64(pieces))
	for i := range p.vs {
		if i > 0 && floatBits(p.vs[i]) == floatBits(p.vs[i-1]) {
			continue
		}
		put(floatBits(p.xs[i]))
		put(floatBits(p.vs[i]))
	}
	put(floatBits(p.Domain()))
	h.Write(chunk[:n])
	var fp Fingerprint
	copy(fp[:], h.Sum(nil))
	return fp
}

// chunkSize is the byte width of the stack chunk fingerprints hash through.
const chunkSize = 512

// fingerprint hashes the canonical form of a piecewise-linear function:
// interior points that lie bit-exactly on the segment through their
// neighbours (equal slopes on both sides, compared on float bits) are
// redundant and dropped, so splitting a segment at a representable midpoint
// does not change the identity. It hashes through a chunk like the
// piecewise-constant fingerprint.
func (p *PiecewiseLinear) fingerprint() Fingerprint {
	h := sha256.New()
	var chunk [chunkSize]byte
	n := copy(chunk[:], familyLinear)
	put := func(u uint64) {
		if n+8 > chunkSize {
			h.Write(chunk[:n])
			n = 0
		}
		binary.LittleEndian.PutUint64(chunk[n:], u)
		n += 8
	}
	keep := p.canonicalPoints()
	put(uint64(len(keep)))
	for _, i := range keep {
		put(floatBits(p.xs[i]))
		put(floatBits(p.ys[i]))
	}
	h.Write(chunk[:n])
	var fp Fingerprint
	copy(fp[:], h.Sum(nil))
	return fp
}

// canonicalPoints returns the indices of the non-redundant breakpoints: the
// endpoints always, plus every interior point whose removal would change the
// function. An interior point is redundant when interpolating its neighbours
// at its x reproduces its y bit-exactly.
func (p *PiecewiseLinear) canonicalPoints() []int {
	keep := []int{0}
	for i := 1; i < len(p.xs)-1; i++ {
		a := keep[len(keep)-1]
		x0, y0 := p.xs[a], p.ys[a]
		x1, y1 := p.xs[i+1], p.ys[i+1]
		interp := y0 + (p.xs[i]-x0)/(x1-x0)*(y1-y0)
		if floatBits(interp) == floatBits(p.ys[i]) {
			continue
		}
		keep = append(keep, i)
	}
	return append(keep, len(p.xs)-1)
}

// floatBits is the identity the hash sees: raw IEEE-754 bits, so -0 and +0
// are distinct and every NaN payload is itself. Inputs are validated finite
// at construction, so neither case arises from the public constructors.
func floatBits(v float64) uint64 { return math.Float64bits(v) }

// Fingerprint implements Fingerprinter on the indexed view: the identity is
// the underlying function's, computed once and cached — sweeps share one
// Indexed across a whole Q grid, so the per-point fingerprint cost of a
// memoized analysis amortizes to a single hash per function.
func (ix *Indexed) Fingerprint() (Fingerprint, error) {
	ix.fpOnce.Do(func() { ix.fp = ix.p.fingerprint() })
	return ix.fp, nil
}
