package delay

import (
	"errors"
	"fmt"

	"fnpr/internal/cache"
	"fnpr/internal/cfg"
)

// FromCFG builds the preemption delay function of Section IV:
//
//	fi(t) = max_{b in BB(t)} CRPD_b
//
// from the offset analysis of a (loop-collapsed) control-flow graph and a
// per-block CRPD bound. The result is piecewise constant with breakpoints at
// the block-window boundaries, defined on [0, WCET].
func FromCFG(off *cfg.Offsets, crpd map[cfg.BlockID]float64) (*Piecewise, error) {
	if off == nil {
		return nil, errors.New("delay: nil offsets")
	}
	g := off.Graph()
	for id := 0; id < g.Len(); id++ {
		if c, ok := crpd[cfg.BlockID(id)]; ok && c < 0 {
			return nil, fmt.Errorf("delay: negative CRPD %g for block %d", c, id)
		}
	}
	bounds := off.Boundaries()
	// The function's domain is [0, WCET]; window boundaries beyond WCET
	// (from the conservative smax+emax of non-final blocks) are clipped.
	xs := []float64{0}
	for _, b := range bounds {
		if b > 0 && b < off.WCET {
			xs = append(xs, b)
		}
	}
	xs = append(xs, off.WCET)
	vs := make([]float64, len(xs)-1)
	for i := 0; i < len(vs); i++ {
		mid := (xs[i] + xs[i+1]) / 2
		var v float64
		for _, b := range off.BB(mid) {
			if c := crpd[b]; c > v {
				v = c
			}
		}
		vs[i] = v
	}
	p, err := NewPiecewise(xs, vs)
	if err != nil {
		return nil, err
	}
	return p.Compact(), nil
}

// FromUCB is the end-to-end pipeline of Section IV: given the offsets of a
// loop-collapsed graph and the UCB analysis run on that same graph, build
// fi(t) using the UCB-only CRPD bound per block.
func FromUCB(off *cfg.Offsets, ucb *cache.UCBResult) (*Piecewise, error) {
	g := off.Graph()
	crpd := make(map[cfg.BlockID]float64, g.Len())
	for id := 0; id < g.Len(); id++ {
		crpd[cfg.BlockID(id)] = ucb.CRPD(cfg.BlockID(id))
	}
	return FromCFG(off, crpd)
}

// FromUCBAgainst builds fi(t) with the preempting workload's evicting cache
// blocks taken into account (only sets the preempters may touch can lose
// useful blocks).
func FromUCBAgainst(off *cfg.Offsets, ucb *cache.UCBResult, ecb cache.LineSet) (*Piecewise, error) {
	g := off.Graph()
	crpd := make(map[cfg.BlockID]float64, g.Len())
	for id := 0; id < g.Len(); id++ {
		crpd[cfg.BlockID(id)] = ucb.CRPDAgainst(cfg.BlockID(id), ecb)
	}
	return FromCFG(off, crpd)
}
