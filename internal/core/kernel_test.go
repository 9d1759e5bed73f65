package core

import (
	"fmt"
	"math/big"
	"testing"

	"divflow/internal/lp"
	"divflow/internal/schedule"
)

// TestVerifiedBasesAreNearlyTriangular pins the property the sparse exact
// factorization (lp.basisFactor) rests on: the bases the hybrid engine has to
// verify on range LPs are permuted triangles but for a small block, so
// peeling singletons leaves little to eliminate. Over every range of the
// differential suite's flow and BestDeadline searches, and the makespan and
// deadline LPs of each instance, in both models, the rows left after the peel
// (lp.Solution.Kernel) stay under 15 % of the rows factored (6 % measured on
// the offline-exact benchmark). An LP shape that breaks this — more coupled
// rows per job, say — shows here before it shows as a slower trajectory. The
// searches themselves must not have moved: each instance still costs the one
// exact solve recorded in parentCounts, and no more probes (recordedCeiling).
func TestVerifiedBasesAreNearlyTriangular(t *testing.T) {
	kernel, rows, verified, other := 0, 0, 0, 0
	solve := func(label string, rl *rangeLP) {
		t.Helper()
		p := rangeProblem(rl)
		sol, err := lp.SolveHybrid(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sol.Method != lp.MethodFloatVerified {
			other++ // nothing was factored to prove it
			return
		}
		verified++
		kernel += sol.Kernel
		rows += p.NumRows()
	}
	for _, ps := range probeSearches(t) {
		for k := range ps.s.ranges {
			solve(ps.label, ps.s.rangeLP(k))
		}
	}
	var counts recordedCeiling
	for _, tc := range searchCases(t) {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			rl, _ := makespanLP(newInstance(tc.inst), mode)
			solve(tc.label+" makespan", rl)

			opt, err := minMaxWeightedFlow(tc.inst, tc.origins, nil, mode, honestProbe)
			if err != nil {
				t.Fatal(err)
			}
			counts.check(t, fmt.Sprintf("%s, %v", tc.label, mode), opt)
			// Deadlines the optimal schedule meets with a fifth to spare, then
			// ones only half its flow allows (mostly infeasible: the Farkas
			// certificate factors a basis too).
			for _, scale := range []*big.Rat{r(6, 5), r(1, 2)} {
				deadlines := make([]*big.Rat, tc.inst.N())
				for j := range deadlines {
					d := new(big.Rat).Quo(opt.Objective, tc.inst.Jobs[j].Weight)
					d.Add(d.Mul(d, scale), tc.origins[j])
					if d.Cmp(tc.inst.Jobs[j].Release) > 0 {
						deadlines[j] = d
					}
				}
				solve(tc.label+" deadlines", newSearch(newInstance(tc.inst), mode, nil, deadlines, honestProbe).rangeLP(0))
			}
		}
	}
	counts.done(t)
	if verified < 200 || other > verified/10 {
		t.Errorf("%d solves float-verified and %d settled otherwise; want the suite to exercise the factorization", verified, other)
	}
	if 100*kernel > 15*rows {
		t.Errorf("%d of %d factored rows were left to eliminate (%.1f %%), want at most 15 %%",
			kernel, rows, 100*float64(kernel)/float64(rows))
	}
	t.Logf("%d verified solves: %d of %d rows left after the peel (%.1f %%); %d solves settled without a factorization",
		verified, kernel, rows, 100*float64(kernel)/float64(rows), other)
}
