package main

import (
	"fmt"
	"math/big"

	"divflow/internal/core"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// offlineOutcome is what the four offline requests returned for one
// instance; verifyOffline checks it outside the measured wall.
type offlineOutcome struct {
	mwf, pre *core.Result
	mk       *core.MakespanResult
	dls      []*big.Rat
	feasible bool
	dlSched  *schedule.Schedule
}

// flowDeadlines returns d̄_j = r_j + scale·F/w_j: at scale 1 the deadlines an
// optimal max-weighted-flow schedule meets exactly.
func flowDeadlines(inst *model.Instance, f, scale *big.Rat) []*big.Rat {
	out := make([]*big.Rat, inst.N())
	for j := range inst.Jobs {
		d := new(big.Rat).Quo(f, inst.Jobs[j].Weight)
		d.Mul(d, scale)
		out[j] = d.Add(d, inst.Jobs[j].Release)
	}
	return out
}

// offlinePass issues the four offline requests against every instance and
// times each; a non-nil recorder also gets every request as a span.
func offlinePass(insts []offlineInstance, rec *spanRecorder) (*passResult, []offlineOutcome, error) {
	res := &passResult{counts: map[string]int64{}}
	outs := make([]offlineOutcome, len(insts))
	one := big.NewRat(1, 1)
	cpu0, t0 := cpuTime(), now()
	for k := range insts {
		inst := insts[k].inst
		o := &outs[k]
		var err error
		s := now()
		if o.mwf, err = core.MinMaxWeightedFlow(inst); err != nil {
			return nil, nil, fmt.Errorf("instance %d: MinMaxWeightedFlow: %w", k, err)
		}
		res.request(rec, "core.mwf", k, s)
		if insts[k].preemptive {
			s = now()
			if o.pre, err = core.MinMaxWeightedFlowPreemptive(inst); err != nil {
				return nil, nil, fmt.Errorf("instance %d: MinMaxWeightedFlowPreemptive: %w", k, err)
			}
			res.request(rec, "core.mwf_pre", k, s)
			res.counts["lp_solves"] += int64(o.pre.LPSolves)
			res.solver.Merge(o.pre.Solver)
		}
		s = now()
		if o.mk, err = core.MinMakespan(inst); err != nil {
			return nil, nil, fmt.Errorf("instance %d: MinMakespan: %w", k, err)
		}
		res.request(rec, "core.makespan", k, s)
		o.dls = flowDeadlines(inst, o.mwf.Objective, one)
		s = now()
		if o.feasible, o.dlSched, err = core.DeadlineFeasible(inst, o.dls, schedule.Divisible); err != nil {
			return nil, nil, fmt.Errorf("instance %d: DeadlineFeasible: %w", k, err)
		}
		res.request(rec, "core.deadline", k, s)
		res.jobs += inst.N()
		res.counts["lp_solves"] += int64(o.mwf.LPSolves)
		res.solver.Merge(o.mwf.Solver)
		res.counts["milestones"] += int64(o.mwf.NumMilestones)
	}
	res.wall, res.cpu = since(t0), cpuTime()-cpu0
	res.attempted = len(res.requests)

	// Flow statistics of the divisible optimum, exactly.
	for k := range insts {
		inst := insts[k].inst
		flows, err := outs[k].mwf.Schedule.Flows(inst)
		if err != nil {
			return nil, nil, fmt.Errorf("instance %d: flows: %w", k, err)
		}
		for j, f := range flows {
			res.noteFlow(f, new(big.Rat).Mul(inst.Jobs[j].Weight, f))
		}
		res.closeWindow()
	}
	return res, outs, nil
}

// verifyOffline checks every returned schedule in its own model and the
// relations the paper's theorems impose between the four answers.
func verifyOffline(insts []offlineInstance, outs []offlineOutcome, rec *spanRecorder) error {
	almost := big.NewRat(999, 1000)
	for k := range insts {
		inst := insts[k].inst
		o := &outs[k]
		o.mwf.Schedule.Pieces = tamper(o.mwf.Schedule.Pieces)
		s := now()
		err := o.mwf.Schedule.Validate(inst, schedule.Divisible, nil)
		rec.add("schedule.validate", k, -1, s, now())
		if err != nil {
			return fmt.Errorf("instance %d: divisible schedule: %w", k, err)
		}
		if o.pre != nil {
			if err := o.pre.Schedule.Validate(inst, schedule.Preemptive, nil); err != nil {
				return fmt.Errorf("instance %d: preemptive schedule: %w", k, err)
			}
			if o.pre.Objective.Cmp(o.mwf.Objective) < 0 {
				return fmt.Errorf("instance %d: preemptive optimum %v below divisible optimum %v",
					k, o.pre.Objective, o.mwf.Objective)
			}
		}
		if err := o.mk.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
			return fmt.Errorf("instance %d: makespan schedule: %w", k, err)
		}
		if got, err := o.mwf.Schedule.MaxWeightedFlow(inst); err != nil || got.Cmp(o.mwf.Objective) != 0 {
			return fmt.Errorf("instance %d: schedule achieves max weighted flow %v, solver claims %v (err %v)",
				k, got, o.mwf.Objective, err)
		}
		if o.mk.Schedule.Makespan().Cmp(o.mk.Makespan) != 0 {
			return fmt.Errorf("instance %d: makespan schedule ends at %v, solver claims %v",
				k, o.mk.Schedule.Makespan(), o.mk.Makespan)
		}
		if !o.feasible {
			return fmt.Errorf("instance %d: deadlines r_j + F*/w_j reported infeasible", k)
		}
		if err := o.dlSched.Validate(inst, schedule.Divisible, o.dls); err != nil {
			return fmt.Errorf("instance %d: deadline schedule: %w", k, err)
		}
		tight, _, err := core.DeadlineFeasible(inst, flowDeadlines(inst, o.mwf.Objective, almost), schedule.Divisible)
		if err != nil {
			return fmt.Errorf("instance %d: DeadlineFeasible (tightened): %w", k, err)
		}
		if tight {
			return fmt.Errorf("instance %d: deadlines r_j + 0.999·F*/w_j reported feasible, so F* is not optimal", k)
		}
	}
	return nil
}
