package core

import (
	"errors"
	"math/big"
	"math/rand"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// heldCase is one instance of the held-deadline property test: origins up to
// 2 before the releases and, on about half the jobs, a held deadline.
type heldCase struct {
	inst               *model.Instance
	origins, deadlines []*big.Rat
	uncapped           *Result
}

// newHeldCase draws case seed in mode: 3–7 jobs on 2–4 machines, related or
// unrelated, equal or stretch weights. About half the jobs hold
// D_j = r_j + (0.5…1.3)·(C_j − r_j) of the uncapped optimal schedule, so
// some caps are loose, some bind and some cannot be met.
func newHeldCase(t *testing.T, seed int64, mode schedule.Model) heldCase {
	t.Helper()
	cfg := workload.Default()
	cfg.Seed = seed
	cfg.Jobs = 3 + int(seed%5)
	cfg.Machines = 2 + int(seed%3)
	cfg.Unrelated = seed%2 == 1
	inst := workload.MustGenerate(cfg)
	if seed%3 == 0 {
		inst.WeightsForStretch()
	}
	rng := rand.New(rand.NewSource(seed))
	origins := make([]*big.Rat, inst.N())
	for j := range origins {
		origins[j] = new(big.Rat).Sub(inst.Jobs[j].Release, big.NewRat(int64(rng.Intn(9)), 4))
	}
	uncapped, err := MinMaxWeightedFlowFrom(inst, origins, nil, mode)
	if err != nil {
		t.Fatalf("seed %d, %v: %v", seed, mode, err)
	}
	done := uncapped.Schedule.Completions(inst.N())
	deadlines := make([]*big.Rat, inst.N())
	for j := range deadlines {
		if rng.Intn(2) == 0 {
			continue
		}
		d := new(big.Rat).Sub(done[j], inst.Jobs[j].Release)
		d.Mul(d, big.NewRat(int64(50+rng.Intn(81)), 100))
		deadlines[j] = d.Add(d, inst.Jobs[j].Release)
	}
	return heldCase{inst, origins, deadlines, uncapped}
}

// cappedWindows returns min(o_j + F/w_j, D_j) for every job: the windows a
// schedule of max weighted flow F from the origins that meets the held
// deadlines keeps.
func (c heldCase) cappedWindows(f *big.Rat) []*big.Rat {
	out := make([]*big.Rat, c.inst.N())
	for j, job := range c.inst.Jobs {
		w := new(big.Rat).Quo(f, job.Weight)
		w.Add(w, c.origins[j])
		if d := c.deadlines[j]; d != nil && d.Cmp(w) < 0 {
			w.Set(d)
		}
		out[j] = w
	}
	return out
}

// TestHeldDeadlinesAreHardCaps holds MinMaxWeightedFlowFrom with held
// deadlines to DeadlineFeasible, over 300 seeds in both execution models:
//
//   - it refuses with ErrDeadlinesInfeasible exactly when DeadlineFeasible
//     refuses the held deadlines, and without an LP when a job misses its
//     deadline even alone;
//   - otherwise its schedule is valid, meets every held deadline, and no
//     weighted flow from its origin exceeds the objective F*;
//   - F* is the least such objective: the windows min(o_j + F/w_j, D_j) are
//     feasible at F* and infeasible at F*·(1 − 10⁻⁶).
//
// Without a held deadline the call is the uncapped one, bit for bit: the
// same objective, probes and exact solves.
func TestHeldDeadlinesAreHardCaps(t *testing.T) {
	below := big.NewRat(999999, 1000000)
	var feasible, refused, early, binding int
	var cappedMilestones, cappedProbes, plainMilestones, plainProbes int
	for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
		for seed := int64(0); seed < 300; seed++ {
			c := newHeldCase(t, seed, mode)
			ok, _, err := DeadlineFeasible(c.inst, c.deadlines, mode)
			if err != nil {
				t.Fatal(err)
			}
			res, err := MinMaxWeightedFlowFrom(c.inst, c.origins, c.deadlines, mode)
			if errors.Is(err, ErrDeadlinesInfeasible) {
				if ok {
					t.Errorf("seed %d, %v: refused held deadlines DeadlineFeasible meets", seed, mode)
				}
				refused++
				// A deadline its job misses even alone is refused before
				// any LP; any other refusal is the last range's.
				q := newInstance(c.inst)
				s := newSearch(q, mode, flowDeadlines(q, c.origins), c.deadlines, honestProbe)
				alone := false
				for j, d := range c.deadlines {
					alone = alone || d != nil && exact.FromRat(d).Cmp(earliestEnd(q, j, mode)) < 0
				}
				if _, _, _, err := s.leftmost(); !errors.Is(err, ErrDeadlinesInfeasible) || alone != (s.solves == 0) {
					t.Errorf("seed %d, %v: refused (%v) after %d exact solves; a job misses its deadline alone: %v",
						seed, mode, err, s.solves, alone)
				}
				if alone {
					early++
				}
				continue
			} else if err != nil {
				t.Fatalf("seed %d, %v: %v", seed, mode, err)
			}
			if !ok {
				t.Fatalf("seed %d, %v: F* = %v under held deadlines DeadlineFeasible refuses", seed, mode, res.Objective)
			}
			feasible++
			cappedMilestones += res.NumMilestones
			cappedProbes += res.Probes
			plainMilestones += c.uncapped.NumMilestones
			plainProbes += c.uncapped.Probes
			if res.Objective.Cmp(c.uncapped.Objective) > 0 {
				binding++
			}

			if err := res.Schedule.Validate(c.inst, mode, c.deadlines); err != nil {
				t.Fatalf("seed %d, %v: %v", seed, mode, err)
			}
			for j, done := range res.Schedule.Completions(c.inst.N()) {
				flow := new(big.Rat).Sub(done, c.origins[j])
				if flow.Mul(flow, c.inst.Jobs[j].Weight).Cmp(res.Objective) > 0 {
					t.Errorf("seed %d, %v: job %d weighted flow %v above F* = %v", seed, mode, j, flow, res.Objective)
				}
			}
			for _, tc := range []struct {
				f    *big.Rat
				want bool
			}{{res.Objective, true}, {new(big.Rat).Mul(res.Objective, below), false}} {
				got, _, err := DeadlineFeasible(c.inst, c.cappedWindows(tc.f), mode)
				if err != nil {
					t.Fatal(err)
				}
				if got != tc.want {
					t.Errorf("seed %d, %v: capped windows at F = %v feasible %v, want %v (F* = %v)",
						seed, mode, tc.f, got, tc.want, res.Objective)
				}
			}
			if seed%10 == 0 {
				none, err := MinMaxWeightedFlowFrom(c.inst, c.origins, make([]*big.Rat, c.inst.N()), mode)
				if err != nil {
					t.Fatal(err)
				}
				if u := c.uncapped; none.Objective.Cmp(u.Objective) != 0 || none.Probes != u.Probes || none.LPSolves != u.LPSolves {
					t.Errorf("seed %d, %v: no held deadline gave F = %v after %d probes and %d solves, nil deadlines %v, %d, %d",
						seed, mode, none.Objective, none.Probes, none.LPSolves, u.Objective, u.Probes, u.LPSolves)
				}
			}
		}
	}
	t.Logf("%d feasible, %d refused (%d without an LP); the cap binds in %d; over the feasible ones milestones %d → %d and probes %d → %d with the held deadlines",
		feasible, refused, early, binding, plainMilestones, cappedMilestones, plainProbes, cappedProbes)
	if feasible < 100 || refused < 100 || binding < 10 {
		t.Errorf("%d feasible, %d refused, %d binding: the cases no longer cover all three outcomes", feasible, refused, binding)
	}
}
