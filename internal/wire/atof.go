package wire

import (
	"math"
	"math/big"
	"math/bits"
)

// float64 converts the decimal reading to the float64 strconv.ParseFloat
// returns for the same token, through the two fast paths ParseFloat itself
// tries first and in the same order: exact float64 arithmetic, then
// Eisel–Lemire (Lemire, "Number Parsing at a Gigabyte per Second", arXiv
// 2101.11408). It reports false when neither settles the value, for a
// truncated mantissa, or when the value overflows or is subnormal; the
// caller then hands the token to strconv.ParseFloat.
func (dec decimal) float64() (float64, bool) {
	if dec.trunc {
		return 0, false
	}
	if f, ok := exactFloat64(dec.mant, dec.exp, dec.neg); ok {
		return f, true
	}
	return eiselLemire64(dec.mant, dec.exp, dec.neg)
}

// float64pow10 holds the powers of ten a float64 represents exactly.
var float64pow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19,
	1e20, 1e21, 1e22,
}

// exactFloat64 computes ±mant × 10^exp with one float64 multiply or divide
// when both operands, and so the rounded result, are exact: mant below
// 2^52 and the power of ten at most 10^22, or a larger power whose excess
// moves into mant while mant stays at most 10^15. It is strconv's
// atof64exact.
func exactFloat64(mant uint64, exp int, neg bool) (float64, bool) {
	if mant>>52 != 0 {
		return 0, false
	}
	f := float64(mant)
	if neg {
		f = -f
	}
	switch {
	case exp == 0:
		return f, true
	case exp > 0 && exp <= 15+22:
		if exp > 22 {
			f *= float64pow10[exp-22]
			exp = 22
		}
		if f > 1e15 || f < -1e15 {
			return 0, false
		}
		return f * float64pow10[exp], true
	case exp < 0 && exp >= -22:
		return f / float64pow10[-exp], true
	}
	return 0, false
}

// pow10Min and pow10Max bound the powers of ten in pow10, both inclusive.
const (
	pow10Min = -348
	pow10Max = +347
)

// pow10[q-pow10Min] is 10^q as a 128-bit mantissa {low word, high word},
// shifted so the top bit of the high word is set and rounded down. It is
// strconv's detailedPowersOfTen, computed at init instead of listed.
var pow10 = powersOfTen()

func powersOfTen() (t [pow10Max - pow10Min + 1][2]uint64) {
	words := func(m *big.Int) [2]uint64 {
		return [2]uint64{m.Uint64(), new(big.Int).Rsh(m, 64).Uint64()}
	}
	p := big.NewInt(1) // 10^q
	for q := 0; q <= -pow10Min; q++ {
		if q <= pow10Max {
			// The top 128 bits of 10^q.
			m := new(big.Int)
			if n := p.BitLen(); n > 128 {
				m.Rsh(p, uint(n-128))
			} else {
				m.Lsh(p, uint(128-n))
			}
			t[q-pow10Min] = words(m)
		}
		if q > 0 {
			// 2^k / 10^q rounded down, with k chosen so the quotient has 128
			// bits: 10^q is in [2^(n-1), 2^n) and not a power of two.
			m := new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen()))
			t[-q-pow10Min] = words(m.Quo(m, p))
		}
		p.Mul(p, big.NewInt(10))
	}
	return t
}

// eiselLemire64 computes ±man × 10^exp10 rounded to the nearest float64,
// or reports false when the 128-bit approximation cannot decide the
// rounding or the result overflows or is subnormal.
//
// The body follows eiselLemire64 in Go's strconv/eisel_lemire.go
// (Copyright 2020 The Go Authors; BSD-style license), itself a port of the
// algorithm explained at https://nigeltao.github.io/blog/2020/eisel-lemire.html,
// whose section names the terse comments below use.
func eiselLemire64(man uint64, exp10 int, neg bool) (float64, bool) {
	// Exp10 Range.
	if man == 0 {
		if neg {
			return math.Float64frombits(0x8000000000000000), true // Negative zero.
		}
		return 0, true
	}
	if exp10 < pow10Min || pow10Max < exp10 {
		return 0, false
	}

	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	xHi, xLo := bits.Mul64(man, pow10[exp10-pow10Min][1])

	// Wider Approximation.
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow10[exp10-pow10Min][0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, false
		}
		xHi, xLo = mergedHi, mergedLo
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, false
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2 += 1
	}
	// retExp2 is a uint64: zero or underflow is subnormal float64 space,
	// 0x7FF or above is Inf/NaN space.
	if retExp2-1 >= 0x7FF-1 {
		return 0, false
	}
	retBits := retExp2<<52 | retMantissa&0x000FFFFFFFFFFFFF
	if neg {
		retBits |= 0x8000000000000000
	}
	return math.Float64frombits(retBits), true
}
