package core

import (
	"errors"
	"math/big"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// MakespanResult is the outcome of makespan minimization (Theorem 1).
type MakespanResult struct {
	// Makespan is the optimal C_max = r_n + Δ_n.
	Makespan *big.Rat
	// Schedule achieves the optimum in the divisible-load model.
	Schedule *schedule.Schedule
	// Intervals is the number of epochal intervals of LP (1).
	Intervals int
}

// MinMakespan solves the divisible-load makespan problem of Section 4.1
// exactly (Linear Program (1)). The epochal times are the distinct release
// dates; the final interval is open-ended with length Δ_n, modelled here as
// the LP objective F, so C_max = r_max + F.
func MinMakespan(inst *model.Instance) (*MakespanResult, error) {
	return minMakespan(inst, schedule.Divisible)
}

// MinMakespanPreemptive solves makespan minimization when jobs are
// preemptible but not divisible. With all release dates equal this is
// exactly the Lawler–Labetoulle linear system (System (4) in the paper,
// R||pmtn|C_max); arbitrary release dates are handled by the same interval
// decomposition used everywhere else, with the per-job per-interval bound
// (5b) added and the schedule rebuilt by the decomposition scheme. The
// paper walks through System (4) as its stepping stone to Section 4.4; this
// entry point reproduces that result directly.
func MinMakespanPreemptive(inst *model.Instance) (*MakespanResult, error) {
	return minMakespan(inst, schedule.Preemptive)
}

func minMakespan(inst *model.Instance, mode schedule.Model) (*MakespanResult, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	rl, rMax := makespanLP(newInstance(inst), mode)
	sol, err := rl.solve()
	if err != nil {
		return nil, err
	}
	if sol == nil {
		// Every valid instance admits a schedule (run everything after
		// r_max), so infeasibility indicates a programming error.
		return nil, errors.New("core: makespan LP unexpectedly infeasible")
	}
	s, err := rl.extract(sol)
	if err != nil {
		return nil, err
	}
	return &MakespanResult{Makespan: rMax.Add(sol.F).Rat(), Schedule: s, Intervals: len(rl.ivs)}, nil
}

// makespanLP lays out the makespan LP and returns it with r_max. Epochal
// times: distinct release dates, and r_max + F. At any F > 0 the latter sorts
// last, so the finite intervals between consecutive releases are followed by
// the final one, [r_max, r_max + F], whose length is F = Δ_n.
func makespanLP(inst *instance, mode schedule.Model) (*rangeLP, exact.Q) {
	var rMax exact.Q
	for _, r := range inst.release {
		if r.Cmp(rMax) > 0 {
			rMax = r
		}
	}
	ep := newEpochs(inst, nil, nil)
	ep.times = append(ep.times, affine.New(rMax, exact.Int(1)))
	return newRangeLP(inst, mode, ep, affine.Range{}), rMax
}
