package core

import (
	"math/big"
	"slices"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/model"
)

// Milestones enumerates the critical objective values of Section 4.3.2: the
// positive values of F at which some deadline d̄_j(F) = r_j + F/w_j
// coincides with a release date r_k or with another deadline d̄_k(F). The
// relative order of all epochal times is constant between two consecutive
// milestones, which is what makes the binary search of Theorem 2 exact.
// There are at most n(n−1)/2 + n(n−1)/2 = n²−n of them; the returned slice
// is sorted in increasing order and duplicate-free.
func Milestones(inst *model.Instance) []*big.Rat {
	q := newInstance(inst)
	ms := milestones(newEpochs(q, flowDeadlines(q, nil), nil).times)
	out := make([]*big.Rat, len(ms))
	for i, m := range ms {
		out[i] = m.Rat()
	}
	return out
}

// milestones returns, sorted and distinct, the positive values of F at which
// two epochal times cross: a deadline form and a constant (a release, a held
// deadline, the horizon), or two deadline forms. Constants never cross, nor
// do forms of one slope. A deadline form anchored at an origin before its
// job's release crosses that release at F = w_j (r_j − o_j) > 0 (online
// residual solves); anchored at the release, at F = 0, which is discarded.
func milestones(times []affine.Form) []exact.Q {
	var out []exact.Q
	for a, fa := range times {
		for _, fb := range times[a+1:] {
			if f, ok := fa.Intersection(fb); ok && f.Sign() > 0 {
				out = append(out, f)
			}
		}
	}
	slices.SortFunc(out, exact.Q.Cmp)
	return slices.CompactFunc(out, func(a, b exact.Q) bool { return a.Cmp(b) == 0 })
}

// ObjectiveRanges turns the sorted milestones F_1 < ... < F_nq into the
// candidate search ranges [0, F_1], [F_1, F_2], ..., [F_nq, +∞). With no
// milestone the single range [0, +∞) covers everything.
func ObjectiveRanges(milestones []exact.Q) []affine.Range {
	out := make([]affine.Range, 0, len(milestones)+1)
	var lo exact.Q
	for i, c := range milestones {
		out = append(out, affine.Range{Lo: lo, Hi: &milestones[i]})
		lo = c
	}
	return append(out, affine.Range{Lo: lo})
}
