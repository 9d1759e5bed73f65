package core

import (
	"errors"
	"fmt"
	"time"

	"divflow/internal/exact"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// Residual is the offline problem the paper's online adaptation re-solves at
// an event, stated in exact.Q as the online side keeps it: the outstanding
// work, every job released at Now. Job k has waited since Origin[k] (its flow
// origin, at or before Now), has weight Weight[k], and costs Cost[i·n+k] on
// machine i, n = len(Weight) — the time its remaining work takes there, zero
// where machine i cannot run it. The solvers read the slices as they stand
// and never write them.
//
// Its entry points are the online path's solves — the policy's re-solve
// (MinMaxWeightedFlow), admission's feasibility check (DeadlineFeasible) and
// its counter-offer (BestDeadline) — on the same search the offline entry
// points run, with no *big.Rat in or out. Each validates the residual first:
// a malformed one is an error.
type Residual struct {
	Now    exact.Q
	M      int
	Origin []exact.Q
	Weight []exact.Q
	Cost   []exact.Q
}

// Piece is one piece of a plan: machine Machine runs job Job over
// [Start, End).
type Piece struct {
	Machine, Job int
	Start, End   exact.Q
}

// Plan is the answer of a residual re-solve.
type Plan struct {
	// Objective is the exact optimal max weighted flow, max_k w_k (C_k − o_k).
	Objective exact.Q
	// Pieces is a schedule achieving it, as MinMaxWeightedFlowFrom lists it.
	Pieces []Piece
	// Solver and Wall are Result's: the hybrid-engine paths of the exact
	// solves, and the wall time of the whole solve.
	Solver stats.SolverTally
	Wall   time.Duration
}

// instance checks the residual — what model.Instance.Validate checks of an
// instance, and that no origin is after Now — and states it as the solvers'
// instance: every release Now, the weights and costs as they are.
func (r *Residual) instance() (*instance, error) {
	n, m := len(r.Weight), r.M
	switch {
	case n == 0:
		return nil, errors.New("core: residual has no jobs")
	case m <= 0:
		return nil, errors.New("core: residual has no machines")
	case len(r.Origin) != n:
		return nil, fmt.Errorf("core: %d origins for %d residual jobs", len(r.Origin), n)
	case len(r.Cost) != m*n:
		return nil, fmt.Errorf("core: %d costs for %d machines and %d residual jobs", len(r.Cost), m, n)
	case r.Now.Sign() < 0:
		return nil, fmt.Errorf("core: residual released at %v, before 0", r.Now)
	}
	for k := range n {
		if r.Weight[k].Sign() <= 0 {
			return nil, fmt.Errorf("core: residual job %d needs Weight > 0", k)
		}
		if r.Origin[k].Cmp(r.Now) > 0 {
			return nil, fmt.Errorf("core: origin %v of residual job %d is after its release %v", r.Origin[k], k, r.Now)
		}
		runnable := false
		for i := range m {
			switch r.Cost[i*n+k].Sign() {
			case -1:
				return nil, fmt.Errorf("core: residual cost[%d][%d] must be > 0", i, k)
			case 1:
				runnable = true
			}
		}
		if !runnable {
			return nil, fmt.Errorf("core: residual job %d cannot run on any machine", k)
		}
	}
	release := make([]exact.Q, n)
	for k := range release {
		release[k] = r.Now
	}
	return &instance{n: n, m: m, cost: r.Cost, release: release, weight: r.Weight}, nil
}

// MinMaxWeightedFlow is MinMaxWeightedFlowFrom on the residual, its origins
// kept and no deadline held: the policy's re-solve. The plan's pieces are
// the schedule's, in its order, in exact.Q.
func (r *Residual) MinMaxWeightedFlow(mode schedule.Model) (*Plan, error) {
	start := nowFunc()
	q, err := r.instance()
	if err != nil {
		return nil, err
	}
	s := newSearchQ(q, mode, flowDeadlinesQ(q, r.Origin), nil, (*rangeSearch).floatProbe)
	_, rl, sol, err := s.leftmost()
	if err != nil {
		return nil, err
	}
	// A divisible schedule has a piece per nonzero fraction at most.
	nonzero := 0
	for _, x := range sol.x[fCol+1:] {
		if x.Sign() != 0 {
			nonzero++
		}
	}
	plan := &Plan{Objective: sol.F, Pieces: make([]Piece, 0, nonzero), Solver: s.tally}
	err = rl.pieces(sol, func(i, j int, start, end, _ exact.Q) {
		plan.Pieces = append(plan.Pieces, Piece{Machine: i, Job: j, Start: start, End: end})
	})
	if err != nil {
		return nil, err
	}
	plan.Wall = nowFunc().Sub(start)
	return plan, nil
}

// DeadlineFeasible is DeadlineFeasible's verdict on the residual: whether a
// schedule completes every job k with held[k] != nil by *held[k]. No schedule
// is extracted. held has one entry per job.
func (r *Residual) DeadlineFeasible(held []*exact.Q, mode schedule.Model) (bool, error) {
	q, err := r.withHeld(held)
	if err != nil {
		return false, err
	}
	rl, _, err := deadlineFeasible(q, held, mode)
	return rl != nil, err
}

// BestDeadline is BestDeadline on the residual: the earliest deadline job k
// can be promised with every other held deadline kept (held[k] is ignored);
// ok is false when none works.
func (r *Residual) BestDeadline(held []*exact.Q, k int, mode schedule.Model) (best exact.Q, ok bool, err error) {
	q, err := r.withHeld(held)
	if err != nil {
		return exact.Q{}, false, err
	}
	if k < 0 || k >= q.N() {
		return exact.Q{}, false, fmt.Errorf("core: job index %d out of range", k)
	}
	return bestDeadline(q, held, k, mode)
}

// withHeld checks the residual and that held has one entry per job.
func (r *Residual) withHeld(held []*exact.Q) (*instance, error) {
	q, err := r.instance()
	if err != nil {
		return nil, err
	}
	if len(held) != q.N() {
		return nil, fmt.Errorf("core: %d deadlines for %d jobs", len(held), q.N())
	}
	return q, nil
}
