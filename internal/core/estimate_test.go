package core

import (
	"math"
	"testing"

	"divflow/internal/schedule"
	"divflow/internal/workload"
)

func TestEstimateTracksExact(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 5
		inst := workload.MustGenerate(cfg)
		exact, err := MinMaxWeightedFlow(inst)
		if err != nil {
			t.Fatal(err)
		}
		est, err := EstimateMinMaxWeightedFlow(inst, schedule.Divisible)
		if err != nil {
			t.Fatal(err)
		}
		want, _ := exact.Objective.Float64()
		if math.Abs(est.Objective-want) > 1e-6*(1+want) {
			t.Errorf("seed %d: estimate %v vs exact %v", seed, est.Objective, want)
		}
		if est.NumMilestones != exact.NumMilestones {
			t.Errorf("seed %d: milestone counts differ: %d vs %d",
				seed, est.NumMilestones, exact.NumMilestones)
		}
		// The probe that located the range is the estimate; only the last
		// range, which the search never probes, costs one more.
		solves := exact.Probes
		if exact.Range.Hi == nil {
			solves++
		}
		if est.LPSolves != solves {
			t.Errorf("seed %d: %d float LPs behind the estimate, want the search's %d probes and no second one of the range they found",
				seed, est.LPSolves, solves)
		}
	}
}

func TestEstimatePreemptiveMode(t *testing.T) {
	cfg := workload.Default()
	cfg.Jobs = 4
	inst := workload.MustGenerate(cfg)
	exact, err := MinMaxWeightedFlowPreemptive(inst)
	if err != nil {
		t.Fatal(err)
	}
	est, err := EstimateMinMaxWeightedFlow(inst, schedule.Preemptive)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := exact.Objective.Float64()
	if math.Abs(est.Objective-want) > 1e-6*(1+want) {
		t.Errorf("preemptive estimate %v vs exact %v", est.Objective, want)
	}
}

func TestEstimateScalesBeyondExactComfort(t *testing.T) {
	if testing.Short() {
		t.Skip("larger instance")
	}
	cfg := workload.Default()
	cfg.Jobs = 12
	cfg.Machines = 4
	cfg.Databanks = 4
	inst := workload.MustGenerate(cfg)
	est, err := EstimateMinMaxWeightedFlow(inst, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if est.Objective <= 0 {
		t.Errorf("objective = %v", est.Objective)
	}
	if est.LPSolves > est.NumMilestones+2 {
		t.Errorf("binary search degenerated: %d solves for %d milestones",
			est.LPSolves, est.NumMilestones)
	}
}
