package core

import (
	"fmt"
	"math/big"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// BestDeadline computes the exact minimum deadline for job k that keeps the
// instance deadline-feasible, holding every other job's deadline fixed (the
// entry deadlines[k] is ignored). It is the counter-offer half of admission
// control: when DeadlineFeasible rejects a requested deadline, BestDeadline
// names the earliest completion time the residual workload can still
// guarantee for the new job without breaking any admitted deadline.
//
// The search mirrors the milestone machinery of Theorem 2: job k's deadline
// is the affine form d̄_k(F) = F, so the candidate deadline is the LP
// objective itself. The epochal order of d̄_k against the constant release
// dates and deadlines changes only where F crosses one of them; between two
// consecutive crossings the interval structure is fixed, feasibility is
// monotone in F (a later deadline only loosens System (2)), and the search
// MinMaxWeightedFlow runs (rangeSearch) finds the leftmost feasible crossing
// range, whose minimal F is the exact global optimum.
//
// It returns (nil, nil) when no deadline works: the other jobs' deadlines
// are themselves infeasible once job k's work is added.
func BestDeadline(inst *model.Instance, deadlines []*big.Rat, k int, mode schedule.Model) (*big.Rat, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	if len(deadlines) != inst.N() {
		return nil, fmt.Errorf("core: %d deadlines for %d jobs", len(deadlines), inst.N())
	}
	if k < 0 || k >= inst.N() {
		return nil, fmt.Errorf("core: job index %d out of range", k)
	}
	q, dls := newInstance(inst), constDeadlines(deadlines)
	dls[k] = nil
	// A fixed window its job does not fit alone dooms every candidate F.
	for j, d := range dls {
		if d != nil && d.A.Cmp(earliestEnd(q, j, mode)) < 0 {
			return nil, nil
		}
	}
	// A nil solution: even an unbounded deadline for job k cannot satisfy
	// the fixed deadlines, so no counter-offer exists.
	_, _, sol, err := bestDeadlineSearch(q, dls, k, mode).leftmost()
	if err != nil || sol == nil {
		return nil, err
	}
	return sol.F.Rat(), nil
}

// bestDeadlineSearch sets up BestDeadline's ranges and epochal times over the
// other jobs' constant deadline forms (dls[k] is ignored).
func bestDeadlineSearch(inst *instance, fixed []*affine.Form, k int, mode schedule.Model) *rangeSearch {
	// Epochal times: the constants DeadlineFeasible uses (releases, the
	// other jobs' deadlines, the horizon) and job k's affine deadline
	// d̄_k(F) = F — without it no interval would end at F, and job k could
	// only run up to the constant epochal time before it.
	dls := append([]*affine.Form(nil), fixed...)
	dls[k] = nil
	h := horizon(inst, dls)
	fk := affine.New(exact.Q{}, exact.Int(1))
	dls[k] = &fk
	ep := newEpochs(inst, dls, affine.Const(h))

	// Milestones of this search: the values of F where d̄_k(F) = F crosses a
	// constant epochal time τ, i.e. F = τ. F must exceed job k's release (a
	// positive-cost job cannot finish at its release), so the candidate
	// ranges partition (r_k, +∞); the floor is job k finishing alone,
	// r_k + p_k.
	rk := inst.release[k]
	var cross []exact.Q
	for _, f := range ep.times {
		if f.IsConst() && f.A.Cmp(rk) > 0 {
			cross = append(cross, f.A)
		}
	}
	return newRangeSearch(inst, mode, ep, rangesFrom(rk, sortDistinct(cross)),
		earliestEnd(inst, k, mode), (*rangeSearch).floatProbe)
}
