// Package sim is an exact discrete-event simulator for *online* scheduling
// of divisible requests, used to reproduce the comparison sketched in the
// conclusion of RR-5386: a simple online adaptation of the offline
// max-weighted-flow algorithm (with preemption) against classical heuristics
// such as Minimum Completion Time.
//
// The simulator reveals each job only at its release date, asks the policy
// for an allocation (which machine works on which job) at every event (job
// release, job completion, or a policy-requested review point), advances
// simulated time exactly with rational arithmetic, and records every run as
// schedule pieces so that the resulting trajectory can be validated by the
// same exact validator as the offline schedules and measured with the same
// metrics.
//
// Each thing the package keeps has one form, the one it exports: a job is a
// JobState wherever it appears (the engine's map, a policy's Snapshot,
// Remove's result, EngineState), an executed piece a PieceState, and
// OnlineMWF's plan cache an MWFPlanState (its PlanPieceState plan, fingerprint
// and counters), so ExportState and ExportPlanState copy rather than convert.
//
// Inside the package every rational is an exact.Q, the immutable word-sized
// value the solvers compute with: the engine's clock and methods, all the
// forms above, the policies' keys, and the core.Residual a re-solve hands the
// offline solver and the plan it gets back. *big.Rat remains at two edges
// only — the model.Instance that Run takes, and the schedule.Schedule that
// Engine.Schedule converts the trace to — each converting once where a value
// crosses.
//
// Snapshot.Residual is the one place a view of outstanding work becomes an
// offline problem: OnlineMWF re-solves the engine's own snapshot through it,
// and the scheduling service's admission check runs it on a snapshot of the
// shard's whole census (queued and live jobs, plus the candidate).
package sim

import (
	"fmt"
	"math/big"

	"divflow/internal/core"
	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// Snapshot is the information available to an online policy at a decision
// point. Residual turns it into the offline problem the paper's online
// adaptation re-solves.
type Snapshot struct {
	Now  exact.Q
	Jobs []JobState // released, incomplete, ordered by release then ID
	M    int        // number of machines
	// Cost returns c_{i,j} for machine i and *job ID* j, with ok=false
	// for an ineligible machine.
	Cost CostFunc
}

// Residual returns the residual offline problem of the view — the one
// construction of it, for OnlineMWF's re-solve and the scheduling service's
// admission check alike. Residual job k is Jobs[k]: released at Now, its flow
// origin its release, with cost remaining · c_{i,j} on every eligible machine.
// An eligible machine whose cost is not positive is an error; the rest of the
// residual's checks are core's, made by the solve.
func (s *Snapshot) Residual() (*core.Residual, error) {
	n := len(s.Jobs)
	vals := make([]exact.Q, (2+s.M)*n)
	r := &core.Residual{Now: s.Now, M: s.M, Origin: vals[:n:n], Weight: vals[n : 2*n : 2*n], Cost: vals[2*n:]}
	for k := range s.Jobs {
		jv := &s.Jobs[k]
		r.Origin[k], r.Weight[k] = jv.Release, jv.Weight
		for i := range s.M {
			c, ok := s.Cost(i, jv.ID)
			if !ok {
				continue
			}
			if r.Cost[i*n+k] = jv.Remaining.Mul(c); r.Cost[i*n+k].Sign() <= 0 {
				return nil, fmt.Errorf("sim: job %d costs %v on eligible machine %d, want > 0", jv.ID, r.Cost[i*n+k], i)
			}
		}
	}
	return r, nil
}

// Allocation is a policy decision: MachineJob[i] is the job ID machine i
// works on until the next event (-1 for idle). Several machines may share a
// job (the divisible model); policies emulating non-divisible execution
// simply never do that. Review, when later than the decision time, requests
// an extra decision point no later than that absolute time; the zero value
// requests none.
type Allocation struct {
	MachineJob []int
	Review     exact.Q
}

// Policy is an online scheduling strategy.
type Policy interface {
	// Name identifies the policy in reports.
	Name() string
	// Reset clears internal state before a fresh run.
	Reset()
	// Assign picks the allocation to apply from s.Now onward.
	Assign(s *Snapshot) Allocation
}

// Result is the outcome of one simulated run.
type Result struct {
	Policy   string
	Schedule *schedule.Schedule
	// MaxWeightedFlow and SumFlow are the exact metrics of the run;
	// MaxStretch is nil when the instance lacks sizes.
	MaxWeightedFlow *big.Rat
	MaxStretch      *big.Rat
	SumFlow         *big.Rat
	Makespan        *big.Rat
	// Decisions counts policy invocations; Preemptions counts pieces
	// beyond the first per job (an indication of policy churn).
	Decisions   int
	Preemptions int
}

// Run simulates the policy on the instance from time zero until every job
// completes. It returns an error if the policy emits an invalid allocation
// (unknown, unreleased, finished or ineligible job) or stalls (leaves work
// undone with no upcoming event). It is a closed-world replay built on the
// same Engine that powers the divflowd scheduling service.
func Run(inst *model.Instance, p Policy) (*Result, error) {
	if err := inst.Validate(); err != nil {
		return nil, err
	}
	n := inst.N()
	e := NewEngine(inst.M(), instanceCost(inst), p)
	release := make([]exact.Q, n)
	for j := range inst.Jobs {
		release[j] = exact.FromRat(inst.Jobs[j].Release)
	}
	nextRelease := 0 // jobs are sorted by release date

	for e.CompletedCount() < n {
		// Reveal everything released by now.
		for nextRelease < n && release[nextRelease].Cmp(e.now) <= 0 {
			job := &inst.Jobs[nextRelease]
			if err := e.Add(nextRelease, release[nextRelease], exact.FromRat(job.Weight), exact.FromRat(job.Size)); err != nil {
				return nil, err
			}
			nextRelease++
		}
		if err := e.Decide(); err != nil {
			return nil, err
		}
		// Next event: the engine's (completion or review point), capped by
		// the next release.
		next, ok := e.NextEvent()
		if nextRelease < n && (!ok || release[nextRelease].Cmp(next) < 0) {
			next, ok = release[nextRelease], true
		}
		if !ok || next.Cmp(e.now) <= 0 {
			return nil, fmt.Errorf("sim: policy %s stalled at t=%v with %d jobs unfinished",
				p.Name(), e.now, n-e.CompletedCount())
		}
		if _, err := e.AdvanceTo(next); err != nil {
			return nil, err
		}
	}

	return summarize(inst, p.Name(), e.Schedule(), e.Decisions())
}

// instanceCost is the instance's cost matrix as a CostFunc, converted to
// exact.Q once; a zero entry is an ineligible machine (finite costs are
// positive).
func instanceCost(inst *model.Instance) CostFunc {
	cost := make([][]exact.Q, inst.M())
	for i := range cost {
		cost[i] = make([]exact.Q, inst.N())
		for j := range cost[i] {
			if c, ok := inst.Cost(i, j); ok {
				cost[i][j] = exact.FromRat(c)
			}
		}
	}
	return func(i, j int) (exact.Q, bool) {
		c := cost[i][j]
		return c, c.Sign() > 0
	}
}

func summarize(inst *model.Instance, name string, sched *schedule.Schedule, decisions int) (*Result, error) {
	// The online trajectory must be a valid divisible-model schedule.
	if err := sched.Validate(inst, schedule.Divisible, nil); err != nil {
		return nil, fmt.Errorf("sim: produced an invalid schedule: %w", err)
	}
	mwf, err := sched.MaxWeightedFlow(inst)
	if err != nil {
		return nil, err
	}
	sum, err := sched.SumFlow(inst)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Policy:          name,
		Schedule:        sched,
		MaxWeightedFlow: mwf,
		SumFlow:         sum,
		Makespan:        sched.Makespan(),
		Decisions:       decisions,
	}
	sized := true
	for j := range inst.Jobs {
		if inst.Jobs[j].Size == nil {
			sized = false
			break
		}
	}
	if sized {
		st, err := sched.MaxStretch(inst)
		if err != nil {
			return nil, err
		}
		res.MaxStretch = st
	}
	perJob := make(map[int]int)
	for i := range sched.Pieces {
		perJob[sched.Pieces[i].Job]++
	}
	for _, c := range perJob {
		res.Preemptions += c - 1
	}
	return res, nil
}
