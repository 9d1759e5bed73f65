package core

import (
	"math/big"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
)

func TestOriginsValidation(t *testing.T) {
	inst := oneMachine(t, []model.Job{{Name: "J", Release: r(5, 1), Weight: r(1, 1), Size: r(2, 1)}})
	if _, err := MinMaxWeightedFlowFrom(inst, nil, nil, schedule.Divisible); err == nil {
		t.Error("wrong origin count must error")
	}
	if _, err := MinMaxWeightedFlowFrom(inst, []*big.Rat{nil}, nil, schedule.Divisible); err == nil {
		t.Error("nil origin must error")
	}
	if _, err := MinMaxWeightedFlowFrom(inst, []*big.Rat{r(6, 1)}, nil, schedule.Divisible); err == nil {
		t.Error("origin after release must error")
	}
}

func TestOriginsEqualReleasesMatchPlainSolver(t *testing.T) {
	inst := oneMachine(t, []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
		{Name: "b", Release: r(1, 1), Weight: r(2, 1), Size: r(3, 1)},
	})
	plain, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	origins := []*big.Rat{r(0, 1), r(1, 1)}
	withO, err := MinMaxWeightedFlowFrom(inst, origins, nil, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Objective.Cmp(withO.Objective) != 0 {
		t.Errorf("origins==releases gave %v, plain solver %v", withO.Objective, plain.Objective)
	}
}

func TestEarlierOriginsRaiseObjective(t *testing.T) {
	// A job that has already waited 10 seconds before the residual solve
	// accumulates that wait in its flow: the optimum must grow by exactly
	// w * 10 here (single machine, single job: C - o = c + (r - o)).
	inst := oneMachine(t, []model.Job{{Name: "J", Release: r(10, 1), Weight: r(2, 1), Size: r(3, 1)}})
	plain, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	// Flow from release: C = 13, flow 3, weighted 6.
	if plain.Objective.Cmp(r(6, 1)) != 0 {
		t.Fatalf("plain objective = %v, want 6", plain.Objective)
	}
	res, err := MinMaxWeightedFlowFrom(inst, []*big.Rat{r(0, 1)}, nil, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	// Flow from origin 0: C = 13, weighted 26.
	if res.Objective.Cmp(r(26, 1)) != 0 {
		t.Errorf("origin-0 objective = %v, want 26", res.Objective)
	}
}

func TestOriginsSingleJobMilestone(t *testing.T) {
	// The self-crossing milestone F = w (r - o) must be enumerated, or the
	// search would start in a range where the deadline precedes the
	// release (the bug class caught by the online simulator).
	inst := oneMachine(t, []model.Job{{Name: "J", Release: r(7, 1), Weight: r(1, 1), Size: r(1, 1)}})
	qi := newInstance(inst)
	ms := milestones(newEpochs(qi, flowDeadlines(qi, []*big.Rat{r(0, 1)}), nil).times)
	if len(ms) != 1 || ms[0].Cmp(q(7, 1)) != 0 {
		t.Fatalf("milestones = %v, want [7]", ms)
	}
	res, err := MinMaxWeightedFlowFrom(inst, []*big.Rat{r(0, 1)}, nil, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective.Cmp(r(8, 1)) != 0 { // C = 8, origin 0, w = 1
		t.Errorf("objective = %v, want 8", res.Objective)
	}
}

func TestOriginsPreemptiveMode(t *testing.T) {
	jobs := []model.Job{
		{Name: "a", Release: r(2, 1), Weight: r(1, 1), Size: r(4, 1)},
		{Name: "b", Release: r(2, 1), Weight: r(1, 1), Size: r(4, 1)},
	}
	machines := []model.Machine{
		{Name: "m0", InverseSpeed: r(1, 1)},
		{Name: "m1", InverseSpeed: r(1, 1)},
	}
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		t.Fatal(err)
	}
	origins := []*big.Rat{r(0, 1), r(2, 1)}
	res, err := MinMaxWeightedFlowFrom(inst, origins, nil, schedule.Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, schedule.Preemptive, nil); err != nil {
		t.Fatal(err)
	}
	// Job a measures flow from 0 (has waited 2 s already): both jobs need
	// 4 s from t=2 on their own machine; flows: a: 6, b: 4 -> optimum 6.
	if res.Objective.Cmp(r(6, 1)) != 0 {
		t.Errorf("objective = %v, want 6", res.Objective)
	}
}
