package core

import (
	"fmt"

	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// Estimate is the outcome of the float64 fast path.
type Estimate struct {
	// Objective approximates the optimal max weighted flow.
	Objective float64
	// NumMilestones mirrors Result; LPSolves counts the range LPs solved,
	// all in float64 unless a probe stalled and the exact engine stood in.
	// The probe that located the answer's range is also the answer, so an
	// instance whose single-job bound falls in its optimal range costs one.
	NumMilestones int
	LPSolves      int
}

// EstimateMinMaxWeightedFlow is the float64 fast path for large instances:
// the search MinMaxWeightedFlow runs, stopped before its certifying solve.
// Milestones and interval structure stay exact (rational), but each range
// LP is solved with the float64 simplex, and no schedule is extracted. The
// result approximates the exact optimum to solver tolerance; it exists so
// the solver can be driven at scales where the exact rational simplex gets
// expensive, and as the reference implementation an operator would deploy
// inside an online scheduler loop where timing matters more than the last
// decimal. For exact results and schedules use MinMaxWeightedFlow /
// MinMaxWeightedFlowPreemptive.
func EstimateMinMaxWeightedFlow(inst *model.Instance, mode schedule.Model) (*Estimate, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	q := newInstance(inst)
	s := newSearch(q, mode, flowDeadlines(q, nil), nil, (*rangeSearch).floatProbe)
	defer s.done()
	k, sol, err := s.locate()
	if err != nil {
		return nil, err
	}
	if sol == nil { // range k was never probed: the last one, or an exact solve stood in
		sol = s.float(k)
	}
	if sol == nil || sol.Status != lp.Optimal {
		return nil, fmt.Errorf("core: float range LP on %v did not reach an optimum", s.ranges[k])
	}
	return &Estimate{
		Objective:     sol.Objective,
		NumMilestones: len(s.ranges) - 1,
		LPSolves:      s.probes + s.solves,
	}, nil
}
