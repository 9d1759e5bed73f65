package core

import (
	"fmt"
	"math/big"

	"divflow/internal/affine"
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
	// Reject trivially-impossible windows up front: the answer the LP and
	// its Farkas certificate would give, without the LP.
	for j, d := range deadlines {
		if d != nil && d.Cmp(earliestEnd(inst, j, mode)) < 0 {
			return false, nil, nil
		}
	}
	rl := deadlineLP(inst, deadlines, mode)
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
// given deadlines: a range LP on the single point F = 0, so that solving it
// decides feasibility.
func deadlineLP(inst *model.Instance, deadlines []*big.Rat, mode schedule.Model) *rangeLP {
	ep := newEpochs(inst, constDeadlines(deadlines), affine.Const(horizon(inst, deadlines)))
	return newRangeLP(inst, mode, ep, affine.Range{Lo: new(big.Rat), Hi: new(big.Rat)})
}

// horizon completes the epochal times of System (2) — all release dates and
// all (finite) deadlines — with an H large enough that jobs *without* a
// deadline always fit after the last release (H = r_max + Σ_j min_i c_{i,j}
// covers running them back to back on their fastest machines), and no
// earlier than any deadline. The extra epochal time only refines the
// interval decomposition; it never changes feasibility of System (2).
func horizon(inst *model.Instance, deadlines []*big.Rat) *big.Rat {
	h := new(big.Rat)
	for j := range inst.Jobs {
		if inst.Jobs[j].Release.Cmp(h) > 0 {
			h.Set(inst.Jobs[j].Release)
		}
	}
	for j := range inst.Jobs {
		h.Add(h, soloTime(inst, j, schedule.Preemptive))
	}
	for _, d := range deadlines {
		if d != nil && d.Cmp(h) > 0 {
			h.Set(d)
		}
	}
	return h
}
