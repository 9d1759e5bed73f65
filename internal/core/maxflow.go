package core

import (
	"fmt"
	"math/big"
	"time"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// Result is the outcome of max-weighted-flow minimization.
type Result struct {
	// Objective is the exact optimal value of max_j w_j (C_j − r_j).
	Objective *big.Rat
	// Schedule achieves the optimum in the requested execution model.
	Schedule *schedule.Schedule
	// Range is the milestone range the optimum lies in.
	Range affine.Range
	// NumMilestones is the number of distinct milestones of the instance.
	NumMilestones int
	// LPSolves counts exact LP solves performed: one when the float probes
	// located the optimal range, more when the search had to walk.
	LPSolves int
	// Probes counts the float range LPs that located that range: one or
	// none when it is the range of the single-job bound the search starts
	// from (flowFloor), O(log NumMilestones) when the load pushes the
	// optimum far above it; a probe's answer is never trusted, its basis is
	// verified exactly.
	Probes int
	// Solver tallies the hybrid-engine paths those solves took.
	Solver stats.SolverTally
	// Wall is the wall-clock duration of the whole solve (milestone
	// enumeration through schedule extraction): the per-solve latency the
	// telemetry layer exports, timed here so every caller measures the same
	// span.
	Wall time.Duration
}

// MinMaxWeightedFlow computes the exact optimal maximum weighted flow in the
// divisible-load model (Theorem 2): milestones are enumerated, a binary
// search locates the first milestone range on which LP (3) is feasible, and
// the LP's minimal F on that range is the global optimum. The search starts
// from the single-job lower bound, probes in float64 and certifies with one
// exact solve (see rangeSearch).
func MinMaxWeightedFlow(inst *model.Instance) (*Result, error) {
	return minMaxWeightedFlow(inst, nil, nil, schedule.Divisible, (*rangeSearch).floatProbe)
}

// MinMaxWeightedFlowPreemptive computes the exact optimal maximum weighted
// flow when jobs are preemptible but not divisible (Section 4.4): the range
// LP gains the per-job per-interval bound (5b), and the schedule is rebuilt
// with the Lawler–Labetoulle decomposition.
func MinMaxWeightedFlowPreemptive(inst *model.Instance) (*Result, error) {
	return minMaxWeightedFlow(inst, nil, nil, schedule.Preemptive, (*rangeSearch).floatProbe)
}

// MinMaxWeightedFlowFrom solves the same problem with each job's flow
// measured from origins[j] instead of its release date, and every held
// deadline kept: the objective is max_j w_j (C_j − o_j), with o_j <= r_j,
// over the schedules that complete job j by deadlines[j]. A nil deadlines
// slice, or a nil entry, holds no deadline. This is the primitive behind the
// online adaptation sketched in the paper's conclusion: at every event the
// scheduler re-solves the offline problem on the residual work, with origins
// remembering how long each job has already been in the system and the held
// deadlines what admission promised. A held deadline caps its job's window
// at min(o_j + F/w_j, D_j); when no schedule meets them all the error is
// ErrDeadlinesInfeasible. The result is a function of the arguments alone:
// nothing is carried from one call to the next.
func MinMaxWeightedFlowFrom(inst *model.Instance, origins, deadlines []*big.Rat, mode schedule.Model) (*Result, error) {
	if len(origins) != inst.N() {
		return nil, fmt.Errorf("core: %d origins for %d jobs", len(origins), inst.N())
	}
	if deadlines != nil && len(deadlines) != inst.N() {
		return nil, fmt.Errorf("core: %d deadlines for %d jobs", len(deadlines), inst.N())
	}
	for j, o := range origins {
		if o == nil || o.Cmp(inst.Jobs[j].Release) > 0 {
			return nil, fmt.Errorf("core: origin of job %d must exist and precede its release", j)
		}
	}
	return minMaxWeightedFlow(inst, origins, deadlines, mode, (*rangeSearch).floatProbe)
}

func minMaxWeightedFlow(inst *model.Instance, origins, deadlines []*big.Rat, mode schedule.Model, probe probeFunc) (*Result, error) {
	start := nowFunc()
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	q := newInstance(inst)
	s := newSearch(q, mode, flowDeadlines(q, origins), deadlines, probe)
	k, rl, sol, err := s.leftmost()
	if err != nil {
		return nil, err
	}
	sched, err := rl.extract(sol)
	if err != nil {
		return nil, err
	}
	return &Result{
		Objective:     sol.F.Rat(),
		Schedule:      sched,
		Range:         s.ranges[k],
		NumMilestones: len(s.ranges) - 1,
		LPSolves:      s.solves,
		Probes:        s.probes,
		Solver:        s.tally,
		Wall:          nowFunc().Sub(start),
	}, nil
}

// exactAll converts rationals to exact.Q, nil reading as 0.
func exactAll(rats []*big.Rat) []exact.Q {
	out := make([]exact.Q, len(rats))
	for j, x := range rats {
		out[j] = exact.FromRat(x)
	}
	return out
}

// heldQ converts held deadlines to exact.Q, a nil entry (or slice) holding
// none.
func heldQ(deadlines []*big.Rat) []*exact.Q {
	if deadlines == nil {
		return nil
	}
	vals := exactAll(deadlines)
	out := make([]*exact.Q, len(deadlines))
	for j, d := range deadlines {
		if d != nil {
			out[j] = &vals[j]
		}
	}
	return out
}
