package sim

import (
	"fmt"
	"math/big"
	"testing"

	"divflow/internal/model"
	"divflow/internal/workload"
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

// TestEngineIsScaleInvariant drives the engine and every policy through
// exact.Q's math/big escape: each instance is run again in a unit of time K
// times smaller, every release and cost multiplied by K. With K = 2^64 + 1
// the clock, the releases and the costs no longer fit the two words of a Q;
// with K = 2^50 + 1 they do, and the sums and products the engine and the
// policies form overflow them. The four heuristics compare only times and
// works that all scale by K, so each must execute the unscaled trace piece
// for piece: the same machine, job and fraction, start and end K times
// theirs. The online-MWF variants must run to completion with a trace that
// validates over big.Rat on the scaled instance; they are not held to K times
// their traces, because a degenerate residual LP may settle on another of its
// optimal vertices in the scaled unit.
func TestEngineIsScaleInvariant(t *testing.T) {
	online := []func() Policy{
		func() Policy { return NewOnlineMWF() },
		func() Policy { return NewOnlineMWFLazy() },
		func() Policy { return NewOnlineMWFPreemptive() },
	}
	for _, bits := range []uint{64, 50} {
		k := new(big.Rat).SetInt(new(big.Int).Add(new(big.Int).Lsh(big.NewInt(1), bits), big.NewInt(1)))
		t.Run(fmt.Sprintf("K=2^%d+1", bits), func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				cfg := workload.Default()
				cfg.Seed, cfg.Jobs, cfg.MeanInterarrival = seed, 8, 2
				inst := workload.MustGenerate(cfg)
				huge := scaledInstance(t, inst, k)
				for name, mk := range heuristicPolicies {
					want, err := Run(inst, mk())
					if err != nil {
						t.Fatalf("seed %d, %s: %v", seed, name, err)
					}
					got, err := Run(huge, mk())
					if err != nil {
						t.Fatalf("seed %d, %s, scaled: %v", seed, name, err)
					}
					if len(got.Schedule.Pieces) != len(want.Schedule.Pieces) {
						t.Fatalf("seed %d, %s: %d pieces scaled, %d unscaled", seed, name, len(got.Schedule.Pieces), len(want.Schedule.Pieces))
					}
					for p := range want.Schedule.Pieces {
						w, g := &want.Schedule.Pieces[p], &got.Schedule.Pieces[p]
						if g.Machine != w.Machine || g.Job != w.Job || g.Fraction.Cmp(w.Fraction) != 0 ||
							g.Start.Cmp(new(big.Rat).Mul(w.Start, k)) != 0 || g.End.Cmp(new(big.Rat).Mul(w.End, k)) != 0 {
							t.Fatalf("seed %d, %s: scaled piece %d is %+v, want K times %+v", seed, name, p, *g, *w)
						}
					}
				}
				for _, mk := range online {
					p := mk()
					if _, err := Run(huge, p); err != nil {
						t.Fatalf("seed %d, %s, scaled: %v", seed, p.Name(), err)
					}
				}
			}
		})
	}
}
