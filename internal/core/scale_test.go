package core

import (
	"fmt"
	"math/big"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
)

// scaledInstance returns inst with every release date and cost multiplied by
// k: the same problem in another unit of time.
func scaledInstance(t *testing.T, inst *model.Instance, k *big.Rat) *model.Instance {
	t.Helper()
	jobs := make([]model.Job, inst.N())
	for j := range jobs {
		jobs[j] = inst.Jobs[j].Clone()
		jobs[j].Release.Mul(jobs[j].Release, k)
	}
	cost := make([][]*big.Rat, inst.M())
	for i := range cost {
		cost[i] = make([]*big.Rat, inst.N())
		for j := range cost[i] {
			if c, ok := inst.Cost(i, j); ok {
				cost[i][j] = new(big.Rat).Mul(c, k)
			}
		}
	}
	out, err := model.NewUnrelated(jobs, inst.Machines, cost)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// scaledTimes returns xs multiplied by k, nil entries staying nil.
func scaledTimes(xs []*big.Rat, k *big.Rat) []*big.Rat {
	out := make([]*big.Rat, len(xs))
	for i, x := range xs {
		if x != nil {
			out[i] = new(big.Rat).Mul(x, k)
		}
	}
	return out
}

// TestSolversAreScaleInvariant runs the solvers on the differential suite's
// instances in a unit of time K times smaller — every release, cost, flow
// origin and deadline multiplied by K. With K = 2^64 + 1 the rationals they
// are handed no longer fit the two words of an exact.Q and take its math/big
// path, and many of the quotients they form fit again; with K = 2^50 + 1 they
// are handed words, and the products and sums they form overflow them on the
// way. Whatever path each value takes, the answers must be exactly K times
// the unscaled ones: the optimal max weighted flow in both models (with the
// schedule achieving it), the optimal makespan, deadline feasibility and
// every counter-offer — and every schedule must validate over big.Rat on the
// scaled instance. A build that wraps a value instead of escaping fails it:
// one that truncates what it is handed at the first K, one whose word
// arithmetic wraps at the second.
func TestSolversAreScaleInvariant(t *testing.T) {
	for _, bits := range []uint{64, 50} {
		k := new(big.Rat).SetInt(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), bits), big.NewInt(1)))
		t.Run(fmt.Sprintf("K=2^%d+1", bits), func(t *testing.T) { scaleInvariant(t, k) })
	}
}

func scaleInvariant(t *testing.T, k *big.Rat) {
	times := func(x *big.Rat) *big.Rat { return new(big.Rat).Mul(x, k) }
	valid := func(label string, s *schedule.Schedule, inst *model.Instance, mode schedule.Model, deadlines []*big.Rat) {
		t.Helper()
		if err := s.Validate(inst, mode, deadlines); err != nil {
			t.Fatalf("%s: the scaled schedule does not validate: %v", label, err)
		}
	}
	checked := 0
	for _, tc := range searchCases(t) {
		huge, origins := scaledInstance(t, tc.inst, k), scaledTimes(tc.origins, k)
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			label := fmt.Sprintf("%s, %v", tc.label, mode)
			want, err := MinMaxWeightedFlowFrom(tc.inst, tc.origins, nil, mode)
			if err != nil {
				t.Fatal(err)
			}
			got, err := MinMaxWeightedFlowFrom(huge, origins, nil, mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if got.Objective.Cmp(times(want.Objective)) != 0 {
				t.Fatalf("%s: max weighted flow %v, want K times %v", label, got.Objective, want.Objective)
			}
			valid(label, got.Schedule, huge, mode, nil)
			achieved := new(big.Rat)
			for j, c := range got.Schedule.Completions(huge.N()) {
				f := new(big.Rat).Sub(c, origins[j])
				if f.Mul(f, huge.Jobs[j].Weight).Cmp(achieved) > 0 {
					achieved = f
				}
			}
			if achieved.Cmp(got.Objective) != 0 {
				t.Fatalf("%s: the scaled schedule reaches %v, the objective is %v", label, achieved, got.Objective)
			}

			wantMk, err := minMakespan(tc.inst, mode)
			if err != nil {
				t.Fatal(err)
			}
			gotMk, err := minMakespan(huge, mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if gotMk.Makespan.Cmp(times(wantMk.Makespan)) != 0 {
				t.Fatalf("%s: makespan %v, want K times %v", label, gotMk.Makespan, wantMk.Makespan)
			}
			valid(label+" makespan", gotMk.Schedule, huge, mode, nil)

			// Deadlines the optimal schedule meets with a fifth to spare, then
			// ones only half its flow allows; every third job has none.
			for _, slack := range []*big.Rat{r(6, 5), r(1, 2)} {
				deadlines := make([]*big.Rat, tc.inst.N())
				for j := range deadlines {
					if j%3 != 2 {
						d := new(big.Rat).Quo(want.Objective, tc.inst.Jobs[j].Weight)
						deadlines[j] = d.Add(d.Mul(d, slack), tc.origins[j])
					}
				}
				scaled := scaledTimes(deadlines, k)
				wantOK, _, err := DeadlineFeasible(tc.inst, deadlines, mode)
				if err != nil {
					t.Fatal(err)
				}
				gotOK, s, err := DeadlineFeasible(huge, scaled, mode)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if gotOK != wantOK {
					t.Fatalf("%s, deadlines at %v of the optimal flow: feasible %v, unscaled %v", label, slack, gotOK, wantOK)
				}
				if gotOK {
					valid(label+" deadlines", s, huge, mode, scaled)
				}
				for j := range deadlines {
					wantBest, err := BestDeadline(tc.inst, deadlines, j, mode)
					if err != nil {
						t.Fatal(err)
					}
					gotBest, err := BestDeadline(huge, scaled, j, mode)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					if (gotBest == nil) != (wantBest == nil) || (gotBest != nil && gotBest.Cmp(times(wantBest)) != 0) {
						t.Fatalf("%s, deadlines at %v of the optimal flow: counter-offer for job %d %v, want K times %v",
							label, slack, j, gotBest, wantBest)
					}
				}
				checked++
			}
		}
	}
	t.Logf("%d scaled deadline sets and their instances checked", checked)
}
