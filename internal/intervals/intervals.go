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
	"sort"

	"divflow/internal/affine"
	"divflow/internal/exact"
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
//
// rank[i] is the position of times[i] in the sorted result (duplicates share
// one). That is the whole epochal order in ints: a job released at times[a]
// and due at times[b] may be processed in the interval between sorted[t] and
// sorted[t+1] iff rank[a] <= t < rank[b] — the paper's rules (1a)/(2a) and
// (2b), release <= inf I_t and deadline >= sup I_t, with no further
// comparison of rationals.
func SortTimes(times []affine.Form, at exact.Q) (sorted []affine.Form, rank []int) {
	vals := make([]exact.Q, len(times))
	order := make([]int, len(times))
	for i, f := range times {
		vals[i] = f.Eval(at)
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return vals[order[a]].Cmp(vals[order[b]]) < 0 })
	sorted = make([]affine.Form, 0, len(times))
	rank = make([]int, len(times))
	for k, i := range order {
		if k == 0 || vals[i].Cmp(vals[order[k-1]]) != 0 {
			sorted = append(sorted, times[i])
		}
		rank[i] = len(sorted) - 1
	}
	return sorted, rank
}

// Build sorts and deduplicates the epochal times at the point at and returns
// the nint−1 consecutive intervals they delimit, interval t spanning
// sorted[t] to sorted[t+1], with SortTimes' ranks. Fewer than two distinct
// times yield no interval.
func Build(times []affine.Form, at exact.Q) ([]Interval, []int) {
	sorted, rank := SortTimes(times, at)
	if len(sorted) < 2 {
		return nil, rank
	}
	out := make([]Interval, len(sorted)-1)
	for i := range out {
		out[i] = Interval{Lo: sorted[i], Hi: sorted[i+1]}
	}
	return out, rank
}
