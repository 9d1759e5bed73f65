// Package intervals builds the epochal-time decomposition at the heart of
// every linear program in RR-5386: the release dates (and, where applicable,
// the deadlines) of all jobs are collected, sorted and deduplicated, and
// adjacent values delimit the time intervals I_1, ..., I_nint over which the
// LP fraction variables α^{(t)}_{i,j} are defined.
//
// Epochal times are affine.Forms: constant for release dates, affine in the
// objective F for the deadlines d̄_j(F) = r_j + F/w_j of Sections 4.3–4.4.
// Within a milestone range the relative order of all epochal times is
// constant, so sorting at any interior point of the range is exact.
package intervals

import (
	"math/big"
	"sort"

	"divflow/internal/affine"
)

// Interval is one epochal interval [Lo, Hi[ whose bounds may depend on F.
type Interval struct {
	Lo affine.Form
	Hi affine.Form
}

// Length returns Hi − Lo as an affine form (the RHS of the capacity rows).
func (iv Interval) Length() affine.Form { return iv.Hi.Sub(iv.Lo) }

// SortTimes sorts the forms by their value at the point at and removes
// duplicates (forms with equal value at at). When at is an interior point of
// a milestone range, equal-at-at implies equal-on-the-range, because every
// crossing of two distinct epochal-time forms is by definition a milestone
// and milestone ranges contain no milestone in their interior.
func SortTimes(times []affine.Form, at *big.Rat) []affine.Form {
	type keyed struct {
		f affine.Form
		v *big.Rat
	}
	ks := make([]keyed, len(times))
	for i, f := range times {
		ks[i] = keyed{f, f.Eval(at)}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].v.Cmp(ks[b].v) < 0 })
	out := make([]affine.Form, 0, len(ks))
	for i, k := range ks {
		if i > 0 && k.v.Cmp(ks[i-1].v) == 0 {
			continue
		}
		out = append(out, k.f)
	}
	return out
}

// Build sorts and deduplicates the epochal times at the point at and returns
// the nint−1 consecutive intervals they delimit. Fewer than two distinct
// times yield no interval.
func Build(times []affine.Form, at *big.Rat) []Interval {
	sorted := SortTimes(times, at)
	if len(sorted) < 2 {
		return nil
	}
	out := make([]Interval, len(sorted)-1)
	for i := range out {
		out[i] = Interval{Lo: sorted[i], Hi: sorted[i+1]}
	}
	return out
}

// FromConstants builds intervals from plain rational epochal times (release
// dates, fixed deadlines). Order does not depend on F.
func FromConstants(points []*big.Rat) []Interval {
	forms := make([]affine.Form, len(points))
	for i, p := range points {
		forms[i] = affine.Const(p)
	}
	return Build(forms, new(big.Rat))
}

// JobActive reports whether a job released at rel, with deadline dl (nil
// meaning "no deadline"), may be processed during an interval whose bounds
// are lo and hi. The paper's rules (1a)/(2a) and (2b): processing is allowed
// iff rel <= inf I and, when a deadline exists, dl >= sup I. All four
// arguments are values at one point of the objective range: a range LP
// evaluates each interval bound and each deadline form there once, not once
// per (interval, job) pair.
func JobActive(rel, dl, lo, hi *big.Rat) bool {
	return rel.Cmp(lo) <= 0 && (dl == nil || dl.Cmp(hi) >= 0)
}
