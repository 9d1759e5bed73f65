package core

import (
	"errors"
	"fmt"
	"math/big"
	"slices"

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
// (preemptive, via Lawler–Labetoulle). It is the milestone search with every
// deadline held and no deadline form: one range, one LP (newSearch).
//
// deadlines must have one entry per job; nil entries mean "no deadline".
func DeadlineFeasible(inst *model.Instance, deadlines []*big.Rat, mode schedule.Model) (bool, *schedule.Schedule, error) {
	if err := checkDeadlines(inst, deadlines); err != nil {
		return false, nil, err
	}
	rl, sol, err := deadlineFeasible(newInstance(inst), heldQ(deadlines), mode)
	if rl == nil {
		return false, nil, err
	}
	s, err := rl.extract(sol)
	if err != nil {
		return false, nil, err
	}
	return true, s, nil
}

// deadlineFeasible is System (2) on q: the LP and its solution when every
// held deadline can be met, nil and no error when they cannot.
func deadlineFeasible(q *instance, held []*exact.Q, mode schedule.Model) (*rangeLP, *rangeSolution, error) {
	_, rl, sol, err := newSearchQ(q, mode, nil, held, (*rangeSearch).floatProbe).leftmost()
	if errors.Is(err, ErrDeadlinesInfeasible) {
		return nil, nil, nil
	} else if err != nil {
		return nil, nil, err
	}
	return rl, sol, nil
}

// BestDeadline computes the exact minimum deadline for job k that keeps the
// instance deadline-feasible, holding every other job's deadline fixed (the
// entry deadlines[k] is ignored). It is the counter-offer half of admission
// control: when DeadlineFeasible rejects a requested deadline, BestDeadline
// names the earliest completion time the residual workload can still
// guarantee for the new job without breaking any admitted deadline.
//
// It is the milestone search of Theorem 2 with job k's deadline the form
// d̄_k(F) = F, so the candidate deadline is the LP objective itself, and the
// other jobs' deadlines held (newSearch). The epochal order changes only
// where F crosses a constant epochal time; between two crossings feasibility
// is monotone in F (a later deadline only loosens System (2)), and the
// leftmost feasible range's minimal F is the exact global optimum.
//
// It returns (nil, nil) when no deadline works: the other jobs' deadlines
// are themselves infeasible once job k's work is added.
func BestDeadline(inst *model.Instance, deadlines []*big.Rat, k int, mode schedule.Model) (*big.Rat, error) {
	if err := checkDeadlines(inst, deadlines); err != nil {
		return nil, err
	}
	if k < 0 || k >= inst.N() {
		return nil, fmt.Errorf("core: job index %d out of range", k)
	}
	best, ok, err := bestDeadline(newInstance(inst), heldQ(deadlines), k, mode)
	if !ok {
		return nil, err
	}
	return best.Rat(), nil
}

// bestDeadline is BestDeadline's search on q: job k's deadline the form
// d̄_k(F) = F, every other held. ok is false when no deadline works, or on an
// error.
func bestDeadline(q *instance, held []*exact.Q, k int, mode schedule.Model) (best exact.Q, ok bool, err error) {
	dls, h := make([]*affine.Form, q.N()), slices.Clone(held)
	f := affine.New(exact.Q{}, exact.Int(1))
	dls[k], h[k] = &f, nil
	_, _, sol, err := newSearchQ(q, mode, dls, h, (*rangeSearch).floatProbe).leftmost()
	if errors.Is(err, ErrDeadlinesInfeasible) {
		return exact.Q{}, false, nil
	} else if err != nil {
		return exact.Q{}, false, err
	}
	return sol.F, true, nil
}

// checkDeadlines validates the instance and that deadlines has one entry per
// job.
func checkDeadlines(inst *model.Instance, deadlines []*big.Rat) error {
	if err := inst.Validate(); err != nil {
		return err
	}
	if len(deadlines) != inst.N() {
		return fmt.Errorf("core: %d deadlines for %d jobs", len(deadlines), inst.N())
	}
	return nil
}

// horizon completes the epochal times of a search in which some job has no
// deadline form: an H large enough that a job with neither a form nor a held
// deadline always fits after the last release (H = r_max + Σ_j min_i c_{i,j}
// covers running them back to back on their fastest machines), and no
// earlier than any held deadline. The extra epochal time only refines the
// interval decomposition; it never changes feasibility of System (2).
func horizon(inst *instance, ep epochs) exact.Q {
	var h exact.Q
	for _, r := range inst.release {
		if r.Cmp(h) > 0 {
			h = r
		}
	}
	for j := range inst.N() {
		h = h.Add(soloTime(inst, j, schedule.Preemptive))
	}
	for _, k := range ep.hard {
		if k >= 0 && ep.times[k].A.Cmp(h) > 0 {
			h = ep.times[k].A
		}
	}
	return h
}
