package core

import (
	"math/big"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

func q(a, b int64) exact.Q { return exact.New(a, b) }

// oneMachine builds an instance with a single unit-speed machine.
func oneMachine(t *testing.T, jobs []model.Job) *model.Instance {
	t.Helper()
	inst, err := model.NewInstance(jobs, []model.Machine{{Name: "m", InverseSpeed: r(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

func TestMinMakespanSingleJob(t *testing.T) {
	inst := oneMachine(t, []model.Job{{Name: "J", Release: r(0, 1), Weight: r(1, 1), Size: r(5, 1)}})
	res, err := MinMakespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Cmp(r(5, 1)) != 0 {
		t.Errorf("makespan = %v, want 5", res.Makespan)
	}
	if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMakespanPerfectSplit(t *testing.T) {
	// One job, two unrelated machines with costs 2 and 6. The divisible
	// optimum processes fractions in parallel: T with T/2 + T/6 = 1,
	// i.e. T = 3/2.
	jobs := []model.Job{{Name: "J", Release: r(0, 1), Weight: r(1, 1)}}
	machines := []model.Machine{{Name: "a"}, {Name: "b"}}
	cost := [][]*big.Rat{{r(2, 1)}, {r(6, 1)}}
	inst, err := model.NewUnrelated(jobs, machines, cost)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinMakespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Cmp(r(3, 2)) != 0 {
		t.Errorf("makespan = %v, want 3/2", res.Makespan)
	}
	if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Error(err)
	}
}

func TestMinMakespanLateRelease(t *testing.T) {
	// Work 1 at r=0 and work 2 at r=10 on a unit machine: C_max = 12.
	inst := oneMachine(t, []model.Job{
		{Name: "J0", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
		{Name: "J1", Release: r(10, 1), Weight: r(1, 1), Size: r(2, 1)},
	})
	res, err := MinMakespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Cmp(r(12, 1)) != 0 {
		t.Errorf("makespan = %v, want 12", res.Makespan)
	}
}

func TestMinMakespanEqualReleases(t *testing.T) {
	// All jobs released together: the LP degenerates to a single open
	// interval. Two unit jobs on a unit machine: C_max = 2.
	inst := oneMachine(t, []model.Job{
		{Name: "a", Release: r(3, 1), Weight: r(1, 1), Size: r(1, 1)},
		{Name: "b", Release: r(3, 1), Weight: r(1, 1), Size: r(1, 1)},
	})
	res, err := MinMakespan(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan.Cmp(r(5, 1)) != 0 {
		t.Errorf("makespan = %v, want 5", res.Makespan)
	}
}

// TestMakespanIsExactOptimum cross-checks Theorem 1 against the independent
// System (2) path: the reported makespan M* must be deadline-feasible while
// M*(1 − 1e-6) must not.
func TestMakespanIsExactOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		cfg.Machines = 3
		inst := workload.MustGenerate(cfg)
		res, err := MinMakespan(inst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		if got := res.Schedule.Makespan(); got.Cmp(res.Makespan) > 0 {
			t.Fatalf("seed %d: schedule makespan %v exceeds reported %v", seed, got, res.Makespan)
		}
		same := func(f *big.Rat) []*big.Rat {
			out := make([]*big.Rat, inst.N())
			for j := range out {
				out[j] = f
			}
			return out
		}
		ok, _, err := DeadlineFeasible(inst, same(res.Makespan), schedule.Divisible)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: M* = %v not deadline-feasible", seed, res.Makespan)
		}
		slightly := new(big.Rat).Mul(res.Makespan, r(999999, 1000000))
		ok, _, err = DeadlineFeasible(inst, same(slightly), schedule.Divisible)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			t.Fatalf("seed %d: M* = %v is not optimal (smaller deadline feasible)", seed, res.Makespan)
		}
	}
}

func TestDeadlineFeasibleSimple(t *testing.T) {
	inst := oneMachine(t, []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
		{Name: "b", Release: r(1, 1), Weight: r(1, 1), Size: r(2, 1)},
	})
	// Total work 4 from t=0; b released at 1. Deadlines 4 and 4: feasible.
	ok, s, err := DeadlineFeasible(inst, []*big.Rat{r(4, 1), r(4, 1)}, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("want feasible")
	}
	if err := s.Validate(inst, schedule.Divisible, []*big.Rat{r(4, 1), r(4, 1)}); err != nil {
		t.Error(err)
	}
	// Deadline 3 for both: 4 units of work by t=3 is impossible.
	ok, _, err = DeadlineFeasible(inst, []*big.Rat{r(3, 1), r(3, 1)}, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("want infeasible")
	}
}

func TestDeadlineFeasibleNilDeadlines(t *testing.T) {
	inst := oneMachine(t, []model.Job{
		{Name: "a", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
		{Name: "b", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
	})
	// Only job a constrained: needs deadline >= 2 (b can wait).
	ok, s, err := DeadlineFeasible(inst, []*big.Rat{r(2, 1), nil}, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("want feasible with one nil deadline")
	}
	if err := s.Validate(inst, schedule.Divisible, []*big.Rat{r(2, 1), nil}); err != nil {
		t.Error(err)
	}
	ok, _, err = DeadlineFeasible(inst, []*big.Rat{r(1, 1), nil}, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deadline 1 for 2 units of work must be infeasible")
	}
}

func TestDeadlineBeforeRelease(t *testing.T) {
	inst := oneMachine(t, []model.Job{{Name: "a", Release: r(5, 1), Weight: r(1, 1), Size: r(1, 1)}})
	ok, _, err := DeadlineFeasible(inst, []*big.Rat{r(5, 1)}, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("deadline at release must be infeasible (positive costs)")
	}
}

func TestDeadlineMonotone(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		inst := workload.MustGenerate(cfg)
		res, err := MinMakespan(inst)
		if err != nil {
			t.Fatal(err)
		}
		// Feasible at M*, must stay feasible at 2*M*.
		mk := func(f *big.Rat) []*big.Rat {
			out := make([]*big.Rat, inst.N())
			for j := range out {
				out[j] = f
			}
			return out
		}
		double := new(big.Rat).Mul(res.Makespan, r(2, 1))
		ok, _, err := DeadlineFeasible(inst, mk(double), schedule.Divisible)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			t.Fatalf("seed %d: doubling deadlines lost feasibility", seed)
		}
	}
}

func TestMilestonesTwoJobs(t *testing.T) {
	// J0: r=0, w=1 (deadline F); J1: r=6, w=2 (deadline 6 + F/2).
	// Crossings: d0 = r1 at F=6; d1 = r0 at F=-12 (discarded);
	// d0 = d1 at F = 6/(1-1/2) = 12.
	inst := oneMachine(t, []model.Job{
		{Name: "J0", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
		{Name: "J1", Release: r(6, 1), Weight: r(2, 1), Size: r(1, 1)},
	})
	ms := Milestones(inst)
	if len(ms) != 2 {
		t.Fatalf("milestones = %v, want [6 12]", ms)
	}
	if ms[0].Cmp(r(6, 1)) != 0 || ms[1].Cmp(r(12, 1)) != 0 {
		t.Errorf("milestones = %v, %v; want 6, 12", ms[0], ms[1])
	}
}

func TestMilestonesBoundAndOrder(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 6
		inst := workload.MustGenerate(cfg)
		ms := Milestones(inst)
		n := inst.N()
		if len(ms) > n*n-n {
			t.Fatalf("seed %d: %d milestones exceeds n^2-n = %d", seed, len(ms), n*n-n)
		}
		for k := 1; k < len(ms); k++ {
			if ms[k-1].Cmp(ms[k]) >= 0 {
				t.Fatalf("seed %d: milestones not strictly increasing", seed)
			}
		}
		for _, m := range ms {
			if m.Sign() <= 0 {
				t.Fatalf("seed %d: non-positive milestone %v", seed, m)
			}
		}
	}
}

func TestObjectiveRanges(t *testing.T) {
	rs := ObjectiveRanges([]exact.Q{q(2, 1), q(5, 1)})
	if len(rs) != 3 {
		t.Fatalf("got %d ranges", len(rs))
	}
	if rs[0].Lo.Sign() != 0 || rs[0].Hi.Cmp(q(2, 1)) != 0 {
		t.Errorf("range 0 = %v", rs[0])
	}
	if rs[2].Hi != nil || rs[2].Lo.Cmp(q(5, 1)) != 0 {
		t.Errorf("range 2 = %v", rs[2])
	}
	if one := ObjectiveRanges(nil); len(one) != 1 || one[0].Hi != nil {
		t.Errorf("empty milestones should give [0,inf), got %v", one)
	}
}

func TestMWFSingleJob(t *testing.T) {
	inst := oneMachine(t, []model.Job{{Name: "J", Release: r(3, 1), Weight: r(2, 1), Size: r(5, 1)}})
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	// C = 8, flow 5, weighted flow 10.
	if res.Objective.Cmp(r(10, 1)) != 0 {
		t.Errorf("objective = %v, want 10", res.Objective)
	}
}

func TestMWFTwoJobsAnalytic(t *testing.T) {
	// Unit machine, both jobs at r=0, sizes 2 and 2, weights 1 and 3.
	// The machine finishes at 4 whatever the order; putting J1 first gives
	// C1 = 2, C0 = 4 -> max(4, 6) = 6, which is optimal.
	inst := oneMachine(t, []model.Job{
		{Name: "J0", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
		{Name: "J1", Release: r(0, 1), Weight: r(3, 1), Size: r(2, 1)},
	})
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.Objective.Cmp(r(6, 1)) != 0 {
		t.Errorf("objective = %v, want 6", res.Objective)
	}
	if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Error(err)
	}
	got, err := res.Schedule.MaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if got.Cmp(res.Objective) != 0 {
		t.Errorf("schedule MWF %v != objective %v", got, res.Objective)
	}
}

// optimalityProbe checks that F* is feasible and F*(1−1e−6) is not, using
// the independent deadline-feasibility path.
func optimalityProbe(t *testing.T, inst *model.Instance, f *big.Rat, mode schedule.Model, seed int64) {
	t.Helper()
	deadlinesAt := func(obj *big.Rat) []*big.Rat {
		out := make([]*big.Rat, inst.N())
		for j := range out {
			d := new(big.Rat).Quo(obj, inst.Jobs[j].Weight)
			out[j] = d.Add(d, inst.Jobs[j].Release)
		}
		return out
	}
	ok, _, err := DeadlineFeasible(inst, deadlinesAt(f), mode)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatalf("seed %d: F* = %v not feasible", seed, f)
	}
	below := new(big.Rat).Mul(f, r(999999, 1000000))
	ok, _, err = DeadlineFeasible(inst, deadlinesAt(below), mode)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatalf("seed %d: F* = %v is not optimal: %v also feasible", seed, f, below)
	}
}

func TestMWFIsExactOptimum(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		cfg.Machines = 3
		inst := workload.MustGenerate(cfg)
		res, err := MinMaxWeightedFlow(inst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
			t.Fatalf("seed %d: invalid schedule: %v", seed, err)
		}
		got, err := res.Schedule.MaxWeightedFlow(inst)
		if err != nil {
			t.Fatal(err)
		}
		if got.Cmp(res.Objective) > 0 {
			t.Fatalf("seed %d: schedule MWF %v exceeds objective %v", seed, got, res.Objective)
		}
		optimalityProbe(t, inst, res.Objective, schedule.Divisible, seed)
	}
}

func TestMWFPreemptiveIsExactOptimum(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		cfg.Machines = 3
		inst := workload.MustGenerate(cfg)
		res, err := MinMaxWeightedFlowPreemptive(inst)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := res.Schedule.Validate(inst, schedule.Preemptive, nil); err != nil {
			t.Fatalf("seed %d: invalid preemptive schedule: %v", seed, err)
		}
		optimalityProbe(t, inst, res.Objective, schedule.Preemptive, seed)
	}
}

func TestPreemptiveNeverBeatsDivisible(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		inst := workload.MustGenerate(cfg)
		div, err := MinMaxWeightedFlow(inst)
		if err != nil {
			t.Fatal(err)
		}
		pre, err := MinMaxWeightedFlowPreemptive(inst)
		if err != nil {
			t.Fatal(err)
		}
		if pre.Objective.Cmp(div.Objective) < 0 {
			t.Fatalf("seed %d: preemptive %v < divisible %v (divisibility generalizes preemption)",
				seed, pre.Objective, div.Objective)
		}
	}
}

// approxMinMaxWeightedFlow is the "naive" alternative the paper argues
// against in Section 4.3.1, kept as an independent oracle for
// MinMaxWeightedFlow: a plain binary search on the objective value using
// deadline-feasibility tests, stopped when the bracket is smaller than eps.
// It cannot return the exact optimum (the search may never attain an
// arbitrary rational) but brackets it: lo is infeasible (or 0), hi feasible
// and achieved by the returned schedule, hi − lo <= eps.
func approxMinMaxWeightedFlow(t *testing.T, inst *model.Instance, mode schedule.Model, eps *big.Rat) (lo, hi *big.Rat, sched *schedule.Schedule) {
	t.Helper()
	feasible := func(f *big.Rat) (bool, *schedule.Schedule) {
		dls := make([]*big.Rat, inst.N())
		for j := range dls {
			d := new(big.Rat).Quo(f, inst.Jobs[j].Weight)
			dls[j] = d.Add(d, inst.Jobs[j].Release)
		}
		ok, s, err := DeadlineFeasible(inst, dls, mode)
		if err != nil {
			t.Fatal(err)
		}
		return ok, s
	}
	lo, hi = new(big.Rat), big.NewRat(1, 1)
	for {
		ok, s := feasible(hi)
		if ok {
			sched = s
			break
		}
		lo.Set(hi)
		hi = new(big.Rat).Mul(hi, big.NewRat(2, 1))
	}
	for new(big.Rat).Sub(hi, lo).Cmp(eps) > 0 {
		mid := new(big.Rat).Add(lo, hi)
		mid.Quo(mid, big.NewRat(2, 1))
		if ok, s := feasible(mid); ok {
			hi, sched = mid, s
		} else {
			lo = mid
		}
	}
	return lo, hi, sched
}

func TestApproxBracketsExact(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 4
		inst := workload.MustGenerate(cfg)
		exact, err := MinMaxWeightedFlow(inst)
		if err != nil {
			t.Fatal(err)
		}
		lo, hi, sched := approxMinMaxWeightedFlow(t, inst, schedule.Divisible, r(1, 1000))
		if exact.Objective.Cmp(lo) <= 0 {
			t.Fatalf("seed %d: exact %v <= approx lower bound %v", seed, exact.Objective, lo)
		}
		if exact.Objective.Cmp(hi) > 0 {
			t.Fatalf("seed %d: exact %v > approx upper bound %v", seed, exact.Objective, hi)
		}
		if sched == nil {
			t.Fatalf("seed %d: approx returned no schedule", seed)
		}
	}
}

func TestMWFStretchObjective(t *testing.T) {
	// With w_j = 1/W_j the objective is max stretch. Single machine, two
	// equal jobs at t=0 with sizes 1 and 4: optimum shares so that both
	// stretches are equal. Known result: the machine is busy [0,5];
	// serving small-first gives stretches 1 and 5/4; optimum is
	// max-stretch 5/4? Check against the schedule metric instead of a
	// hand value, plus the boundary probe.
	inst := oneMachine(t, []model.Job{
		{Name: "small", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
		{Name: "big", Release: r(0, 1), Weight: r(1, 1), Size: r(4, 1)},
	})
	inst.WeightsForStretch()
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	st, err := res.Schedule.MaxStretch(inst)
	if err != nil {
		t.Fatal(err)
	}
	if st.Cmp(res.Objective) > 0 {
		t.Errorf("schedule stretch %v exceeds objective %v", st, res.Objective)
	}
	optimalityProbe(t, inst, res.Objective, schedule.Divisible, -1)
	// Analytic: last completion is 5; the small job's stretch would be 5
	// if it ended last. The optimum equalizes: small ends at S, big at 5;
	// stretch = max(S/1, 5/4) minimized at S = 5/4 (feasible: 5/4 >= 1).
	if res.Objective.Cmp(r(5, 4)) != 0 {
		t.Errorf("max stretch = %v, want 5/4", res.Objective)
	}
}

func TestMWFRespectsDatabanks(t *testing.T) {
	// Job bound to a databank present only on the slow machine must not
	// touch the fast one.
	jobs := []model.Job{
		{Name: "bound", Release: r(0, 1), Weight: r(1, 1), Size: r(4, 1), Databanks: []string{"rare"}},
		{Name: "free", Release: r(0, 1), Weight: r(1, 1), Size: r(4, 1)},
	}
	machines := []model.Machine{
		{Name: "fast", InverseSpeed: r(1, 4)},
		{Name: "slow", InverseSpeed: r(1, 1), Databanks: []string{"rare"}},
	}
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		t.Fatal(err)
	}
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Schedule.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatal(err)
	}
	for _, p := range res.Schedule.Pieces {
		if p.Job == 0 && p.Machine == 0 {
			t.Fatal("databank-bound job ran on a machine without the bank")
		}
	}
}

func TestMWFReportsSearchStats(t *testing.T) {
	cfg := workload.Default()
	cfg.Jobs = 5
	inst := workload.MustGenerate(cfg)
	res, err := MinMaxWeightedFlow(inst)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumMilestones < 0 || res.LPSolves < 1 {
		t.Errorf("stats: milestones=%d solves=%d", res.NumMilestones, res.LPSolves)
	}
	// Binary search: solves should be O(log(#ranges)) + 1, certainly no
	// more than #ranges + 1.
	if res.LPSolves > res.NumMilestones+2 {
		t.Errorf("too many LP solves: %d for %d milestones", res.LPSolves, res.NumMilestones)
	}
	if !res.Range.Contains(exact.FromRat(res.Objective)) {
		t.Errorf("objective %v outside reported range %v", res.Objective, res.Range)
	}
}
