// Package divflow is an exact, pure-Go implementation of the scheduling
// results of "Off-line scheduling of divisible requests on an heterogeneous
// collection of databanks" (Arnaud Legrand, Alan Su, Frédéric Vivien, INRIA
// RR-5386 / IPDPS 2005 HiCOMB workshop).
//
// The paper studies the scheduling of divisible requests — genomic motif
// searches against replicated protein databanks — on unrelated machines,
// and proves that the following problems are solvable exactly in polynomial
// time:
//
//   - makespan minimization in the divisible-load model (Theorem 1);
//   - deadline feasibility (Lemma 1);
//   - minimization of the maximum weighted flow max_j w_j (C_j − r_j) in
//     the divisible-load model (Theorem 2), via an exact binary search over
//     "milestone" objective values;
//   - the same objective with preemption but no divisibility (Section 4.4),
//     via the Lawler–Labetoulle schedule reconstruction.
//
// This package is the public facade: it re-exports the platform/application
// model and the solvers. Supporting subsystems live in internal/ packages
// (exact rational simplex, interval machinery, Lawler–Labetoulle
// decomposition, online simulator, synthetic GriPPS workload).
//
// # Quick start
//
//	jobs := []divflow.Job{{
//	    Name:    "blast-vs-swissprot",
//	    Release: big.NewRat(0, 1),
//	    Weight:  big.NewRat(1, 1),
//	    Size:    big.NewRat(40, 1),
//	    Databanks: []string{"swissprot"},
//	}}
//	machines := []divflow.Machine{{
//	    Name:         "node-a",
//	    InverseSpeed: big.NewRat(1, 2),
//	    Databanks:    []string{"swissprot"},
//	}}
//	inst, err := divflow.NewInstance(jobs, machines)
//	...
//	res, err := divflow.MinMaxWeightedFlow(inst)
//	fmt.Println(res.Objective, res.Schedule)
//
// All quantities are exact rationals (math/big.Rat); every returned
// schedule passes an exact validator for its execution model.
package divflow

import (
	"math/big"

	"divflow/internal/core"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/sim"
)

// Job is one divisible request (see model.Job).
type Job = model.Job

// Machine is one compute resource hosting databanks (see model.Machine).
type Machine = model.Machine

// Instance is a complete problem instance (see model.Instance).
type Instance = model.Instance

// Schedule is an executable plan; see its Validate method for the exact
// invariants of each execution model.
type Schedule = schedule.Schedule

// Piece is one maximal run of a job on a machine.
type Piece = schedule.Piece

// ExecutionModel selects between the paper's two execution models.
type ExecutionModel = schedule.Model

// Execution models.
const (
	// Divisible allows concurrent execution of one job's parts on several
	// machines (Section 3).
	Divisible = schedule.Divisible
	// Preemptive allows interrupting jobs but never runs one job on two
	// machines at once (Section 4.4).
	Preemptive = schedule.Preemptive
)

// Result is the outcome of max-weighted-flow minimization.
type Result = core.Result

// MakespanResult is the outcome of makespan minimization.
type MakespanResult = core.MakespanResult

// NewInstance builds a uniform-machines-with-restricted-availabilities
// instance: c_{i,j} = Size_j · InverseSpeed_i where machine i hosts job j's
// databanks, +∞ elsewhere.
func NewInstance(jobs []Job, machines []Machine) (*Instance, error) {
	return model.NewInstance(jobs, machines)
}

// NewUnrelated builds a fully unrelated instance from an explicit cost
// matrix cost[machine][job]; nil entries mean the job cannot run there.
func NewUnrelated(jobs []Job, machines []Machine, cost [][]*big.Rat) (*Instance, error) {
	return model.NewUnrelated(jobs, machines, cost)
}

// MinMakespan solves makespan minimization exactly (Theorem 1).
func MinMakespan(inst *Instance) (*MakespanResult, error) {
	return core.MinMakespan(inst)
}

// MinMakespanPreemptive solves makespan minimization when jobs are
// preemptible but not divisible — the Lawler–Labetoulle System (4) the
// paper builds on, generalized to release dates.
func MinMakespanPreemptive(inst *Instance) (*MakespanResult, error) {
	return core.MinMakespanPreemptive(inst)
}

// DeadlineFeasible decides deadline feasibility exactly (Lemma 1 /
// System (2)); nil deadlines are unconstrained. On success it returns a
// schedule meeting every deadline in the requested execution model.
func DeadlineFeasible(inst *Instance, deadlines []*big.Rat, m ExecutionModel) (bool, *Schedule, error) {
	return core.DeadlineFeasible(inst, deadlines, m)
}

// MinMaxWeightedFlow minimizes max_j w_j (C_j − r_j) exactly in the
// divisible-load model (Theorem 2).
func MinMaxWeightedFlow(inst *Instance) (*Result, error) {
	return core.MinMaxWeightedFlow(inst)
}

// MinMaxWeightedFlowPreemptive minimizes the same objective with preemption
// but no divisibility (Section 4.4).
func MinMaxWeightedFlowPreemptive(inst *Instance) (*Result, error) {
	return core.MinMaxWeightedFlowPreemptive(inst)
}

// Milestones enumerates the critical objective values of Section 4.3.2.
func Milestones(inst *Instance) []*big.Rat {
	return core.Milestones(inst)
}

// Estimate is the outcome of the float64 fast path.
type Estimate = core.Estimate

// EstimateMinMaxWeightedFlow approximates the optimum with a float64 LP
// backend (milestones stay exact); no schedule is produced. Use it at
// scales where the exact rational simplex is too slow.
func EstimateMinMaxWeightedFlow(inst *Instance, m ExecutionModel) (*Estimate, error) {
	return core.EstimateMinMaxWeightedFlow(inst, m)
}

// OnlinePolicy is an online scheduling strategy for SimulateOnline.
type OnlinePolicy = sim.Policy

// OnlineResult is the outcome of one simulated online run.
type OnlineResult = sim.Result

// SimulateOnline replays the instance through an online policy (jobs are
// revealed at their release dates) and returns exact metrics of the
// resulting execution.
func SimulateOnline(inst *Instance, p OnlinePolicy) (*OnlineResult, error) {
	return sim.Run(inst, p)
}

// Online policy constructors (see internal/sim for semantics).
var (
	// NewFCFS is first-come-first-served.
	NewFCFS = func() OnlinePolicy { return sim.NewFCFS() }
	// NewMCT is the Minimum Completion Time heuristic the paper compares
	// against.
	NewMCT = func() OnlinePolicy { return sim.NewMCT() }
	// NewSRPT is shortest-remaining-processing-time-first.
	NewSRPT = func() OnlinePolicy { return sim.NewSRPT() }
	// NewGreedyWeightedFlow serves the currently worst weighted flow first.
	NewGreedyWeightedFlow = func() OnlinePolicy { return sim.NewGreedyWeightedFlow() }
	// NewOnlineMWF is the paper's online adaptation of the offline
	// algorithm (conclusion).
	NewOnlineMWF = func() OnlinePolicy { return sim.NewOnlineMWF() }
	// NewOnlineMWFPreemptive uses the Section 4.4 preemptive solver inside
	// the online adaptation.
	NewOnlineMWFPreemptive = func() OnlinePolicy { return sim.NewOnlineMWFPreemptive() }
	// NewOnlineMWFLazy re-solves only when new jobs arrive, serving every
	// other event from the cached plan: far fewer LP solves, and a different
	// policy, not a faster implementation of NewOnlineMWF — an eager re-solve
	// at a completion may pick another optimal residual schedule, so later
	// arrivals meet a different state (on 60 measured seeds the max weighted
	// flow differed on 2; see sim.OnlineMWF.LazyResolve).
	NewOnlineMWFLazy = func() OnlinePolicy { return sim.NewOnlineMWFLazy() }
)
