package core

import (
	"fmt"
	"math/big"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// DeadlineFeasible decides, exactly, whether every job can be completed
// inside its executable window [r_j, d̄_j] (Lemma 1 / System (2)), in the
// given execution model (System (5) adds the per-job interval bound when
// mode is Preemptive). On success it also returns a schedule meeting all
// deadlines, reconstructed per Section 4.2 (divisible) or Section 4.4
// (preemptive, via Lawler–Labetoulle).
//
// deadlines must have one entry per job; nil entries mean "no deadline".
func DeadlineFeasible(inst *model.Instance, deadlines []*big.Rat, mode schedule.Model) (bool, *schedule.Schedule, error) {
	if err := inst.Validate(); err != nil {
		return false, nil, err
	}
	if len(deadlines) != inst.N() {
		return false, nil, fmt.Errorf("core: %d deadlines for %d jobs", len(deadlines), inst.N())
	}
	q, dls := newInstance(inst), constDeadlines(deadlines)
	// Reject trivially-impossible windows up front: the answer the LP and
	// its Farkas certificate would give, without the LP.
	for j, d := range dls {
		if d != nil && d.A.Cmp(earliestEnd(q, j, mode)) < 0 {
			return false, nil, nil
		}
	}
	rl := deadlineLP(q, dls, mode)
	sol, err := rl.solve()
	if err != nil {
		return false, nil, err
	}
	if sol == nil {
		return false, nil, nil
	}
	s, err := rl.extract(sol)
	if err != nil {
		return false, nil, err
	}
	return true, s, nil
}

// deadlineLP lays out System (2) (System (5) when mode is Preemptive) for the
// given constant deadline forms: a range LP on the single point F = 0, so
// that solving it decides feasibility.
func deadlineLP(inst *instance, dls []*affine.Form, mode schedule.Model) *rangeLP {
	ep := newEpochs(inst, dls, affine.Const(horizon(inst, dls)))
	return newRangeLP(inst, mode, ep, affine.Range{Hi: new(exact.Q)})
}

// horizon completes the epochal times of System (2) — all release dates and
// all (finite) deadlines — with an H large enough that jobs *without* a
// deadline always fit after the last release (H = r_max + Σ_j min_i c_{i,j}
// covers running them back to back on their fastest machines), and no
// earlier than any deadline. The extra epochal time only refines the
// interval decomposition; it never changes feasibility of System (2).
func horizon(inst *instance, dls []*affine.Form) exact.Q {
	var h exact.Q
	for _, r := range inst.release {
		if r.Cmp(h) > 0 {
			h = r
		}
	}
	for j := range inst.Jobs {
		h = h.Add(soloTime(inst, j, schedule.Preemptive))
	}
	for _, d := range dls {
		if d != nil && d.A.Cmp(h) > 0 {
			h = d.A
		}
	}
	return h
}
