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
	ms := milestonesWithOrigins(q, q.release)
	out := make([]*big.Rat, len(ms))
	for i, m := range ms {
		out[i] = m.Rat()
	}
	return out
}

// milestonesWithOrigins generalizes Milestones to deadlines anchored at
// arbitrary flow origins o_j (used by the online residual re-solve, where a
// job's flow started at its original submission, before the residual
// instance's uniform release date).
func milestonesWithOrigins(inst *instance, origins []exact.Q) []exact.Q {
	var out []exact.Q
	add := func(f exact.Q) {
		if f.Sign() > 0 {
			out = append(out, f)
		}
	}
	dls := flowDeadlines(inst, origins)
	for j, dj := range dls {
		// Deadline j crosses release k: o_j + F/w_j = r_k. The k == j case
		// matters only when the origin precedes the release (online
		// residual solves): there d̄_j crosses its own release at
		// F = w_j (r_j − o_j) > 0; in the plain problem o_j = r_j gives
		// F = 0, which is discarded.
		for _, rk := range inst.release {
			if f, ok := dj.Intersection(affine.Const(rk)); ok {
				add(f)
			}
		}
		// Deadline j crosses deadline k (affine forms intersect at most
		// once; parallel when w_j == w_k).
		for _, dk := range dls[j+1:] {
			if f, ok := dj.Intersection(*dk); ok {
				add(f)
			}
		}
	}
	return sortDistinct(out)
}

// sortDistinct sorts the values in increasing order and drops duplicates,
// in place.
func sortDistinct(vals []exact.Q) []exact.Q {
	slices.SortFunc(vals, exact.Q.Cmp)
	return slices.CompactFunc(vals, func(a, b exact.Q) bool { return a.Cmp(b) == 0 })
}

// ObjectiveRanges turns the sorted milestones F_1 < ... < F_nq into the
// candidate search ranges [0, F_1], [F_1, F_2], ..., [F_nq, +∞). With no
// milestone the single range [0, +∞) covers everything.
func ObjectiveRanges(milestones []exact.Q) []affine.Range {
	return rangesFrom(exact.Q{}, milestones)
}

// rangesFrom turns sorted, distinct critical values above lo into the
// candidate ranges [lo, c_1], [c_1, c_2], ..., [c_n, +∞).
func rangesFrom(lo exact.Q, critical []exact.Q) []affine.Range {
	out := make([]affine.Range, 0, len(critical)+1)
	for i, c := range critical {
		out = append(out, affine.Range{Lo: lo, Hi: &critical[i]})
		lo = c
	}
	return append(out, affine.Range{Lo: lo})
}
