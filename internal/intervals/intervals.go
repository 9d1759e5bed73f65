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
	"slices"
	"unsafe"

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

// Sorter sorts epochal times into buffers it keeps — the values at the
// point, the order, the sorted times and their ranks — so a caller that sorts
// again and again, a milestone search laying out range after range, reuses
// them instead of allocating per sort. The zero value is ready to use. What a
// sort returns aliases the buffers and holds until the next sort.
type Sorter struct {
	vals   []exact.Q
	order  []int
	sorted []affine.Form
	rank   []int
}

// Bytes is what the sorter's buffers hold, at their capacities.
func (s *Sorter) Bytes() int {
	return cap(s.vals)*int(unsafe.Sizeof(exact.Q{})) + (cap(s.order)+cap(s.rank))*int(unsafe.Sizeof(0)) +
		cap(s.sorted)*int(unsafe.Sizeof(affine.Form{}))
}

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
func (s *Sorter) SortTimes(times []affine.Form, at exact.Q) (sorted []affine.Form, rank []int) {
	n := len(times)
	s.vals, s.order = slices.Grow(s.vals[:0], n), slices.Grow(s.order[:0], n)
	for i, f := range times {
		s.vals = append(s.vals, f.Eval(at))
		s.order = append(s.order, i)
	}
	vals := s.vals
	slices.SortStableFunc(s.order, func(a, b int) int { return vals[a].Cmp(vals[b]) })
	s.sorted, s.rank = slices.Grow(s.sorted[:0], n), slices.Grow(s.rank[:0], n)[:n]
	for k, i := range s.order {
		if k == 0 || vals[i].Cmp(vals[s.order[k-1]]) != 0 {
			s.sorted = append(s.sorted, times[i])
		}
		s.rank[i] = len(s.sorted) - 1
	}
	return s.sorted, s.rank
}

// Build sorts and deduplicates the epochal times at the point at and appends
// to dst the nint−1 consecutive intervals they delimit, interval t spanning
// sorted[t] to sorted[t+1]; it returns them with SortTimes' ranks. Fewer than
// two distinct times append no interval.
func (s *Sorter) Build(dst []Interval, times []affine.Form, at exact.Q) ([]Interval, []int) {
	sorted, rank := s.SortTimes(times, at)
	dst = slices.Grow(dst, max(len(sorted)-1, 0))
	for i := 1; i < len(sorted); i++ {
		dst = append(dst, Interval{Lo: sorted[i-1], Hi: sorted[i]})
	}
	return dst, rank
}
