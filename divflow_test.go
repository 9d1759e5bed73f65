package divflow

import (
	"math/big"
	"testing"

	"divflow/internal/workload"
)

func rr(a, b int64) *big.Rat { return big.NewRat(a, b) }

// TestFacadeEndToEnd exercises the public API exactly as a downstream user
// would: build an instance, solve all objectives, validate, simulate.
func TestFacadeEndToEnd(t *testing.T) {
	jobs := []Job{
		{Name: "q1", Release: rr(0, 1), Weight: rr(2, 1), Size: rr(4, 1), Databanks: []string{"sp"}},
		{Name: "q2", Release: rr(1, 1), Weight: rr(1, 1), Size: rr(6, 1)},
	}
	machines := []Machine{
		{Name: "a", InverseSpeed: rr(1, 2), Databanks: []string{"sp"}},
		{Name: "b", InverseSpeed: rr(1, 1)},
	}
	inst, err := NewInstance(jobs, machines)
	if err != nil {
		t.Fatal(err)
	}

	mwf, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := mwf.Schedule.Validate(inst, Divisible, nil); err != nil {
		t.Fatal(err)
	}

	pre, err := MinMaxWeightedFlowPreemptive(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := pre.Schedule.Validate(inst, Preemptive, nil); err != nil {
		t.Fatal(err)
	}
	if pre.Objective.Cmp(mwf.Objective) < 0 {
		t.Fatalf("preemptive %v beat divisible %v", pre.Objective, mwf.Objective)
	}

	mk, err := MinMakespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if mk.Makespan.Sign() <= 0 {
		t.Fatalf("makespan = %v", mk.Makespan)
	}

	ok, _, err := DeadlineFeasible(inst, []*big.Rat{mk.Makespan, mk.Makespan}, Divisible)
	if err != nil || !ok {
		t.Fatalf("optimal makespan must be deadline-feasible: %v %v", ok, err)
	}

	ms := Milestones(inst)
	if len(ms) == 0 {
		t.Error("expected at least one milestone for distinct releases/weights")
	}
}

func TestFacadeUnrelated(t *testing.T) {
	jobs := []Job{{Name: "j", Release: rr(0, 1), Weight: rr(1, 1)}}
	machines := []Machine{{Name: "a"}, {Name: "b"}}
	cost := [][]*big.Rat{{rr(2, 1)}, {nil}}
	inst, err := NewUnrelated(jobs, machines, cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective.Cmp(rr(2, 1)) != 0 {
		t.Errorf("objective = %v, want 2", res.Objective)
	}
}

func TestFacadeOnlinePolicies(t *testing.T) {
	cfg := workload.Default()
	cfg.Jobs = 4
	inst := workload.MustGenerate(cfg)
	for _, mk := range []func() OnlinePolicy{
		NewFCFS, NewMCT, NewSRPT, NewGreedyWeightedFlow, NewOnlineMWF,
	} {
		p := mk()
		res, err := SimulateOnline(inst, p)
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if res.MaxWeightedFlow.Sign() <= 0 {
			t.Errorf("%s: non-positive MWF", p.Name())
		}
	}
}
