package core

import (
	"errors"
	"fmt"
	"math/big"
	"math/rand"
	"testing"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

// referenceResult is what the all-exact bisection returns.
type referenceResult struct {
	k      int
	sol    *rangeSolution
	sched  *schedule.Schedule
	solves int
}

// referenceMWF is the search minMaxWeightedFlow ran before it located with
// float probes: a bisection whose every step is a full exact solve of the
// range LP, and a final exact solve of the leftmost feasible range. It is
// the reference the shared rangeSearch is compared against.
func referenceMWF(t *testing.T, inst *model.Instance, origins []*big.Rat, mode schedule.Model) referenceResult {
	t.Helper()
	q := newInstance(inst)
	flow := newSearch(q, mode, flowDeadlines(q, origins), nil, honestProbe)
	ranges, ep := flow.ranges, flow.ep
	solves := 0
	solveOne := func(k int) (*rangeLP, *rangeSolution) {
		rl := newRangeLP(q, mode, ep, ranges[k])
		sol, err := rl.solve()
		if err != nil {
			t.Fatal(err)
		}
		solves++
		return rl, sol
	}
	lo, hi := 0, len(ranges)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if _, sol := solveOne(mid); sol != nil {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	rl, sol := solveOne(lo)
	if sol == nil {
		t.Fatal("reference: final milestone range infeasible")
	}
	sched, err := rl.extract(sol)
	if err != nil {
		t.Fatal(err)
	}
	return referenceResult{k: lo, sol: sol, sched: sched, solves: solves}
}

// sameAsReference requires the bit-identical outcome: objective, range and
// every schedule piece — the same optimal vertex.
func sameAsReference(t *testing.T, label string, got *Result, want referenceResult, ranges []affine.Range) {
	t.Helper()
	if exact.FromRat(got.Objective).Cmp(want.sol.F) != 0 {
		t.Fatalf("%s: objective %v, reference %v", label, got.Objective, want.sol.F)
	}
	if rg := ranges[want.k]; got.Range.Lo.Cmp(rg.Lo) != 0 || (got.Range.Hi == nil) != (rg.Hi == nil) ||
		(rg.Hi != nil && got.Range.Hi.Cmp(*rg.Hi) != 0) {
		t.Fatalf("%s: range %v, reference %v", label, got.Range, rg)
	}
	if len(got.Schedule.Pieces) != len(want.sched.Pieces) {
		t.Fatalf("%s: %d schedule pieces, reference %d", label, len(got.Schedule.Pieces), len(want.sched.Pieces))
	}
	for i, p := range got.Schedule.Pieces {
		q := want.sched.Pieces[i]
		if p.Machine != q.Machine || p.Job != q.Job || p.Start.Cmp(q.Start) != 0 ||
			p.End.Cmp(q.End) != 0 || p.Fraction.Cmp(q.Fraction) != 0 {
			t.Fatalf("%s: piece %d = %+v, reference %+v", label, i, p, q)
		}
	}
}

// The probes a search can be handed. honest is the production one; the
// others put their question about range k to the exact engine, off the
// search's books.
var (
	honestProbe probeFunc = (*rangeSearch).floatProbe
	// rightProbe is never wrong: it asks the exact engine.
	rightProbe probeFunc = func(s *rangeSearch, k int) (*lp.FloatSolution, error) {
		sol, err := s.rangeLP(k).solve()
		if err != nil {
			return nil, err
		}
		if sol == nil {
			return &lp.FloatSolution{Status: lp.Infeasible}, nil
		}
		return &lp.FloatSolution{Status: lp.Optimal}, nil
	}
	// lyingProbe is never right: it reports the opposite of the truth.
	lyingProbe probeFunc = func(s *rangeSearch, k int) (*lp.FloatSolution, error) {
		sol, err := s.rangeLP(k).solve()
		if err != nil {
			return nil, err
		}
		if sol != nil {
			return &lp.FloatSolution{Status: lp.Infeasible}, nil
		}
		return &lp.FloatSolution{Status: lp.Optimal}, nil
	}
	// stalledProbe never answers.
	stalledProbe probeFunc = func(*rangeSearch, int) (*lp.FloatSolution, error) {
		return nil, errors.New("float simplex stalled")
	}
	// staleProbe answers honestly and hands over a basis of the right shape
	// that solves nothing: the slacks and artificials every solve starts
	// from, which the same rows with no coefficient in them end on — and on
	// which the completion rows' artificials carry value.
	staleProbe probeFunc = func(s *rangeSearch, k int) (*lp.FloatSolution, error) {
		fs, err := s.floatProbe(k)
		if err != nil {
			return nil, err
		}
		rl := s.rangeLP(k)
		s.buf.tab.Reset(rl.numVars, rl.sense)
		s.buf.tab.SetRHS(len(rl.sense)-1, 1)
		blank, err := s.buf.tab.Minimize(fCol)
		if err != nil {
			return nil, err
		}
		fs.Basis = blank.Basis
		return fs, nil
	}
	// misshapenProbe answers honestly and hands over the basis of another
	// problem altogether: min x over x <= 1.
	misshapenProbe probeFunc = func(s *rangeSearch, k int) (*lp.FloatSolution, error) {
		fs, err := s.floatProbe(k)
		if err != nil {
			return nil, err
		}
		var tab lp.FloatTableau
		tab.Reset(1, []lp.Sense{lp.LE})
		tab.Set(0, 0, 1)
		tab.SetRHS(0, 1)
		other, err := tab.Minimize(0)
		if err != nil {
			return nil, err
		}
		fs.Basis = other.Basis
		return fs, nil
	}
)

// flowRanges is the milestone ranges of the flow search over inst, origins.
func flowRanges(inst *model.Instance, origins []*big.Rat) []affine.Range {
	q := newInstance(inst)
	return newSearch(q, schedule.Divisible, flowDeadlines(q, origins), nil, honestProbe).ranges
}

// releaseOrigins returns the default flow origins: the release dates.
func releaseOrigins(inst *model.Instance) []*big.Rat {
	out := make([]*big.Rat, inst.N())
	for j := range out {
		out[j] = inst.Jobs[j].Release
	}
	return out
}

// searchCase is one instance of the differential suite.
type searchCase struct {
	label   string
	inst    *model.Instance
	origins []*big.Rat
}

// searchCases generates the seeded instances: uniform and unrelated costs,
// equal and stretch weights, and the online residual shape (every job
// released together, flow origins before that).
func searchCases(t *testing.T) []searchCase {
	t.Helper()
	var out []searchCase
	for seed := int64(0); seed < 10; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 3 + int(seed%4)
		cfg.Unrelated = seed%2 == 1
		inst := workload.MustGenerate(cfg)
		label := fmt.Sprintf("seed %d", seed)
		if seed%3 != 0 {
			inst.WeightsForStretch()
			label += " stretch-weights"
		} else {
			label += " equal-weights"
		}
		if cfg.Unrelated {
			label += " unrelated"
		}
		out = append(out, searchCase{label, inst, releaseOrigins(inst)})

		// The residual an online re-solve sees: everything already
		// released, each job's flow running since its original arrival.
		rng := rand.New(rand.NewSource(seed))
		cfg.MeanInterarrival = 0
		res := workload.MustGenerate(cfg)
		if seed%3 != 0 {
			res.WeightsForStretch()
		}
		origins := make([]*big.Rat, res.N())
		for j := range origins {
			origins[j] = new(big.Rat).Sub(res.Jobs[j].Release, big.NewRat(int64(rng.Intn(12)), int64(1+rng.Intn(3))))
		}
		out = append(out, searchCase{label + " residual", res, origins})
	}
	return out
}

// TestRangeSearchMatchesReference is the differential test: over seeded
// random instances and both execution models, the locate-then-certify search
// returns what the all-exact bisection returns, bit for bit, under every
// probe — and the honest probe never costs more exact solves than the
// reference spent. The search starts at its floor, not in the middle, so a
// probe that never answers costs it one exact solve per question it asked,
// not the reference's count. The basis the honest probe hands the certifying
// solve is never rejected; a stale one and one of another shape always are,
// at the price of that one failed check: the engine's own float pass then
// finds the vertex the reference found, and no exact solve is added.
func TestRangeSearchMatchesReference(t *testing.T) {
	probes := []struct {
		name  string
		probe probeFunc
	}{{"honest", honestProbe}, {"right", rightProbe}, {"lying", lyingProbe}, {"stalled", stalledProbe},
		{"stale", staleProbe}, {"misshapen", misshapenProbe}}
	handed := 0
	for _, tc := range searchCases(t) {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			want := referenceMWF(t, tc.inst, tc.origins, mode)
			ranges := flowRanges(tc.inst, tc.origins)
			var honest *Result
			for _, p := range probes {
				label := fmt.Sprintf("%s, %v, %s probe", tc.label, mode, p.name)
				got, err := minMaxWeightedFlow(tc.inst, tc.origins, nil, mode, p.probe)
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				sameAsReference(t, label, got, want, ranges)
				switch p.name {
				case "honest":
					honest = got
					handed += got.Solver.WarmHits
					if got.LPSolves > want.solves {
						t.Errorf("%s: %d exact solves, the reference needed %d", label, got.LPSolves, want.solves)
					}
					if got.Solver.WarmMisses != 0 {
						t.Errorf("%s: the basis the search's own probe ended on was rejected (%+v)", label, got.Solver)
					}
				case "right":
					// One proof, or two when the optimum sits on a milestone.
					if got.LPSolves > 2 {
						t.Errorf("%s: %d exact solves behind a probe that is never wrong", label, got.LPSolves)
					}
				case "stalled":
					// The stand-ins locate exactly, so the proof is one solve.
					if got.LPSolves != got.Probes+1 {
						t.Errorf("%s: %d probes, %d exact solves; want one per unanswered probe plus the proof",
							label, got.Probes, got.LPSolves)
					}
				case "stale", "misshapen":
					if got.LPSolves != honest.LPSolves || got.Solver.WarmHits != 0 || got.Solver.WarmMisses != honest.Solver.WarmHits {
						t.Errorf("%s: %d exact solves, tally %+v; want the honest probe's %d solves and each of its %d hits a miss",
							label, got.LPSolves, got.Solver, honest.LPSolves, honest.Solver.WarmHits)
					}
				}
			}
		}
	}
	if handed == 0 {
		t.Error("no search of the suite handed a probe's basis to its certifying solve")
	}
}

// TestRangeSearchCertifyFromAnywhere starts the certifying walk at every
// range in turn: whatever the probes had pointed at, the proof ends on the
// reference's range with the reference's optimum.
func TestRangeSearchCertifyFromAnywhere(t *testing.T) {
	for _, tc := range searchCases(t)[:8] {
		want := referenceMWF(t, tc.inst, tc.origins, schedule.Divisible)
		ranges := flowRanges(tc.inst, tc.origins)
		for start := range ranges {
			q := newInstance(tc.inst)
			s := newSearch(q, schedule.Divisible, flowDeadlines(q, tc.origins), nil, honestProbe)
			k, _, sol, err := s.certify(start, nil)
			if err != nil {
				t.Fatal(err)
			}
			if sol == nil || k != want.k || sol.F.Cmp(want.sol.F) != 0 {
				t.Fatalf("%s: certify from range %d ended on range %d, want range %d with F = %v",
					tc.label, start, k, want.k, want.sol.F)
			}
		}
	}
}

// TestRangeSearchOptimumOnMilestone builds instances whose optimum lands
// exactly on a milestone: on one unit machine job A (released at 0, size s,
// weight w) alone sets F* = w·s, and job B is released exactly when A ends,
// so d̄_A crosses r_B at F = w·s too. The range above that milestone is
// feasible with its minimum on its lower end — the one case where an exact
// solve proves nothing about the ranges below and the search must walk left.
func TestRangeSearchOptimumOnMilestone(t *testing.T) {
	for _, tc := range []struct{ size, weight *big.Rat }{
		{r(2, 1), r(1, 1)}, {r(3, 2), r(2, 1)}, {r(5, 1), r(1, 3)}, {r(7, 3), r(3, 2)},
	} {
		inst := oneMachine(t, []model.Job{
			{Name: "A", Release: r(0, 1), Weight: tc.weight, Size: tc.size},
			{Name: "B", Release: tc.size, Weight: r(1, 100), Size: r(1, 1)},
		})
		fstar := exact.FromRat(new(big.Rat).Mul(tc.weight, tc.size))
		origins := releaseOrigins(inst)
		want := referenceMWF(t, inst, origins, schedule.Divisible)
		ranges := flowRanges(inst, origins)
		if want.sol.F.Cmp(fstar) != 0 || ranges[want.k].Hi == nil || ranges[want.k].Hi.Cmp(fstar) != 0 {
			t.Fatalf("size %v weight %v: reference found F = %v on %v, want %v at the range's upper end",
				tc.size, tc.weight, want.sol.F, ranges[want.k], fstar)
		}
		for _, probe := range []probeFunc{honestProbe, rightProbe, lyingProbe, stalledProbe} {
			got, err := minMaxWeightedFlow(inst, origins, nil, schedule.Divisible, probe)
			if err != nil {
				t.Fatal(err)
			}
			sameAsReference(t, "optimum on milestone", got, want, ranges)
		}
		// Started on the range whose lower end is F*, the walk goes left.
		q := newInstance(inst)
		s := newSearch(q, schedule.Divisible, flowDeadlines(q, origins), nil, honestProbe)
		k, _, sol, err := s.certify(want.k+1, nil)
		if err != nil {
			t.Fatal(err)
		}
		if k != want.k || sol.F.Cmp(fstar) != 0 || s.solves != 2 {
			t.Errorf("certify from the range above the milestone: range %d, F = %v after %d solves; want range %d, %v, 2",
				k, sol.F, s.solves, want.k, fstar)
		}
	}
}

// seededSearch is the flow search of tc opened at the given floor instead of
// flowFloor's; any value up to the optimum is a floor.
func seededSearch(tc searchCase, mode schedule.Model, floor exact.Q, probe probeFunc) *rangeSearch {
	q := newInstance(tc.inst)
	flow := newSearch(q, mode, flowDeadlines(q, tc.origins), nil, probe)
	return newRangeSearch(q, mode, flow.ep, flow.ranges, floor, probe)
}

// TestRangeSearchSeedEdges walks the places a floor can fall: on a milestone
// (the range below it, the leftmost the reference bisection reports), inside
// range 0, inside the optimal range, above every milestone, and in a search
// with one range — then hands the seed to probes that lie. Whatever the seed
// and whatever the probes say, the search ends on the reference's range with
// its optimum and schedule.
func TestRangeSearchSeedEdges(t *testing.T) {
	run := func(label string, s *rangeSearch, want referenceResult) {
		t.Helper()
		k, rl, sol, err := s.leftmost()
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if sol == nil || k != want.k {
			t.Fatalf("%s: ended on range %d with %+v, reference range %d with F = %v", label, k, sol, want.k, want.sol.F)
		}
		sched, err := rl.extract(sol)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		sameAsReference(t, label, &Result{Objective: sol.F.Rat(), Schedule: sched, Range: s.ranges[k]}, want, s.ranges)
	}
	// An instance whose optimum has ranges to cross on either side.
	var tc searchCase
	var want referenceResult
	var ranges []affine.Range
	for _, c := range searchCases(t) {
		w := referenceMWF(t, c.inst, c.origins, schedule.Divisible)
		if rgs := flowRanges(c.inst, c.origins); w.k >= 3 && w.k+3 < len(rgs) {
			tc, want, ranges = c, w, rgs
			break
		}
	}
	if tc.inst == nil {
		t.Fatal("no instance of the suite has its optimum three ranges from either end")
	}
	last := len(ranges) - 1

	for k := 0; k < want.k; k++ {
		// On milestone F_{k+1}, the upper end of range k and the lower of k+1.
		if s := seededSearch(tc, schedule.Divisible, *ranges[k].Hi, honestProbe); s.lo != k {
			t.Errorf("floor on the upper end of range %d seeds range %d", k, s.lo)
		}
		// Strictly inside range k.
		if s := seededSearch(tc, schedule.Divisible, ranges[k].Interior(), honestProbe); s.lo != k {
			t.Errorf("floor inside range %d seeds range %d", k, s.lo)
		}
	}
	s := seededSearch(tc, schedule.Divisible, exact.Q{}, honestProbe)
	run("floor 0", s, want)
	if s.probes == 0 || s.solves != 1 {
		t.Errorf("floor 0: %d probes and %d exact solves, want a gallop from range 0 and one proof", s.probes, s.solves)
	}
	s = seededSearch(tc, schedule.Divisible, want.sol.F, honestProbe)
	run("floor at the optimum", s, want)
	if s.probes != 1 || s.solves != 1 {
		t.Errorf("floor at the optimum: %d probes and %d exact solves, want 1 and 1", s.probes, s.solves)
	}

	// A probe that lies "feasible" at the seed, far below the optimum:
	// certify walks right. One that lies "infeasible" from a seed on the
	// optimal range all the way up: the gallop runs off the end, the
	// bisection too, and certify walks left from the last range.
	s = seededSearch(tc, schedule.Divisible, exact.Q{}, lyingProbe)
	run("lying feasible at the seed", s, want)
	if s.probes != 1 || s.solves != want.k+1 {
		t.Errorf("lying feasible at the seed: %d probes and %d exact solves, want 1 and the %d-range walk", s.probes, s.solves, want.k+1)
	}
	s = seededSearch(tc, schedule.Divisible, want.sol.F, lyingProbe)
	run("lying infeasible all the way up", s, want)
	if s.solves != last-want.k+1 {
		t.Errorf("lying infeasible all the way up: %d exact solves, want the walk down from range %d to %d", s.solves, last, want.k)
	}

	// Above every milestone: on one unit machine A (size 10) alone needs
	// F = 10, and the one milestone is where d̄_A crosses r_B = 1.
	inst := oneMachine(t, []model.Job{
		{Name: "A", Release: r(0, 1), Weight: r(1, 1), Size: r(10, 1)},
		{Name: "B", Release: r(1, 1), Weight: r(1, 1), Size: r(1, 1)},
	})
	above := searchCase{"floor above every milestone", inst, releaseOrigins(inst)}
	// One range: a job alone, whose floor is its optimum.
	inst = oneMachine(t, []model.Job{{Name: "J", Release: r(2, 1), Weight: r(3, 1), Size: r(5, 1)}})
	single := searchCase{"a single range", inst, releaseOrigins(inst)}
	for _, c := range []searchCase{above, single} {
		want := referenceMWF(t, c.inst, c.origins, schedule.Divisible)
		for _, probe := range []probeFunc{honestProbe, lyingProbe, stalledProbe} {
			q := newInstance(c.inst)
			s := newSearch(q, schedule.Divisible, flowDeadlines(q, c.origins), nil, probe)
			run(c.label, s, want)
			if last := len(s.ranges) - 1; want.k != last || s.lo != last || s.probes != 0 || s.solves != 1 {
				t.Errorf("%s: seeded range %d of %d, %d probes, %d exact solves; want the last range, no probe, one solve",
					c.label, s.lo, len(s.ranges), s.probes, s.solves)
			}
		}
	}
}

// TestFloorIsALowerBound holds the single-job bounds to the optima they seed
// the searches below, over big.Rat: flowFloor never exceeds the exact optimal
// max weighted flow (so the seeded range is never right of the optimal one),
// earliestEnd never the exact counter-offer, in both execution models and
// with flow origins before the releases — and both are tight for a job alone.
func TestFloorIsALowerBound(t *testing.T) {
	modes := []schedule.Model{schedule.Divisible, schedule.Preemptive}
	tight := 0
	for _, tc := range searchCases(t) {
		for _, mode := range modes {
			want := referenceMWF(t, tc.inst, tc.origins, mode)
			q := newInstance(tc.inst)
			floor := flowFloor(q, flowDeadlines(q, tc.origins), mode)
			switch floor.Cmp(want.sol.F) {
			case 1:
				t.Errorf("%s, %v: floor %v above the optimum %v", tc.label, mode, floor, want.sol.F)
			case 0:
				tight++
			}
			if s := newSearch(q, mode, flowDeadlines(q, tc.origins), nil, honestProbe); s.lo > want.k {
				t.Errorf("%s, %v: seeded range %d, right of the optimal range %d", tc.label, mode, s.lo, want.k)
			}
		}
	}
	if tight == 0 {
		t.Error("no instance of the suite has its optimum on its floor")
	}
	for _, ps := range probeSearches(t) {
		if ps.k < 0 {
			continue
		}
		best, err := BestDeadline(ps.inst, ps.deadlines, ps.k, ps.s.mode)
		if err != nil {
			t.Fatal(err)
		}
		if floor := earliestEnd(ps.s.inst, ps.k, ps.s.mode); best == nil || floor.Cmp(exact.FromRat(best)) > 0 {
			t.Errorf("%s: floor %v above the counter-offer %v", ps.label, floor, best)
		}
	}

	// One job on machines of cost 2 and 6, released at 4, flowing since 1,
	// weight 3: alone it ends at 4 + 3/2 spread over both, at 4 + 2 on the
	// faster one, and nothing delays it.
	inst, err := model.NewUnrelated([]model.Job{{Name: "J", Release: r(4, 1), Weight: r(3, 1)}},
		[]model.Machine{{Name: "a"}, {Name: "b"}}, [][]*big.Rat{{r(2, 1)}, {r(6, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	origins := []*big.Rat{r(1, 1)}
	for mode, end := range map[schedule.Model]*big.Rat{schedule.Divisible: r(11, 2), schedule.Preemptive: r(6, 1)} {
		if got := earliestEnd(newInstance(inst), 0, mode); got.Cmp(exact.FromRat(end)) != 0 {
			t.Errorf("%v: job alone ends at %v, want %v", mode, got, end)
		}
		flow := new(big.Rat).Sub(end, origins[0])
		flow.Mul(flow, inst.Jobs[0].Weight)
		got, err := minMaxWeightedFlow(inst, origins, nil, mode, honestProbe)
		if err != nil {
			t.Fatal(err)
		}
		q := newInstance(inst)
		if floor := flowFloor(q, flowDeadlines(q, origins), mode); floor.Cmp(exact.FromRat(flow)) != 0 || got.Objective.Cmp(flow) != 0 {
			t.Errorf("%v: floor %v and optimum %v, want both %v", mode, floor, got.Objective, flow)
		}
		best, err := BestDeadline(inst, []*big.Rat{nil}, 0, mode)
		if err != nil || best == nil || best.Cmp(end) != 0 {
			t.Errorf("%v: counter-offer %v (err %v), want the floor %v", mode, best, err, end)
		}
	}
}

// TestTrivialWindowsRejectedAsTheLPWould pins the early rejection to the
// answer it replaces: a deadline below r_j + p_j is refused without an LP, and
// on both sides of that boundary the refusal agrees with the range LP solved
// regardless (the one range of DeadlineFeasible's search, which it reaches
// only past the shortcut) — d = r + p is feasible for a lone job, d = r + p − ε is not, in
// both models; BestDeadline gives the same verdict on a fixed window.
func TestTrivialWindowsRejectedAsTheLPWould(t *testing.T) {
	// Job K, released long after J's window, rides along so that BestDeadline
	// has a job to make an offer to.
	inst, err := model.NewUnrelated(
		[]model.Job{{Name: "J", Release: r(4, 1), Weight: r(1, 1)}, {Name: "K", Release: r(20, 1), Weight: r(1, 1)}},
		[]model.Machine{{Name: "a"}, {Name: "b"}}, [][]*big.Rat{{r(2, 1), r(1, 1)}, {r(6, 1), r(1, 1)}})
	if err != nil {
		t.Fatal(err)
	}
	eps := r(1, 1000)
	for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
		end := earliestEnd(newInstance(inst), 0, mode).Rat()
		for _, tc := range []struct {
			d    *big.Rat
			want bool
		}{
			{end, true},
			{new(big.Rat).Add(end, eps), true},
			{new(big.Rat).Sub(end, eps), false},
			{new(big.Rat).Add(inst.Jobs[0].Release, eps), false},
		} {
			dls := []*big.Rat{tc.d, nil}
			sol, err := newSearch(newInstance(inst), mode, nil, dls, honestProbe).rangeLP(0).solve()
			if err != nil {
				t.Fatal(err)
			}
			ok, _, err := DeadlineFeasible(inst, dls, mode)
			if err != nil {
				t.Fatal(err)
			}
			if ok != tc.want || (sol != nil) != tc.want {
				t.Errorf("%v, deadline %v: DeadlineFeasible %v, the LP alone %v, want %v", mode, tc.d, ok, sol != nil, tc.want)
			}
			offer, err := BestDeadline(inst, dls, 1, mode)
			if err != nil {
				t.Fatal(err)
			}
			if (offer != nil) != tc.want {
				t.Errorf("%v, J due at %v: counter-offer for K %v, want one iff J's window is feasible", mode, tc.d, offer)
			}
		}
	}
}

// TestBestDeadlineReturnsTheMinimum pins the repro of the missing epochal
// time: job k's own deadline form delimits an interval, so its counter-offer
// is not snapped up to the next constant epochal time.
func TestBestDeadlineReturnsTheMinimum(t *testing.T) {
	inst := oneMachine(t, []model.Job{
		{Name: "A", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
		{Name: "K", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
	})
	got, err := BestDeadline(inst, []*big.Rat{r(10, 1), nil}, 1, schedule.Divisible)
	if err != nil {
		t.Fatal(err)
	}
	if got == nil || got.Cmp(r(1, 1)) != 0 {
		t.Errorf("BestDeadline = %v, want 1 (K runs first, A still ends by 10)", got)
	}
}

// TestBestDeadlineBracketedByFeasibility checks BestDeadline against the
// decision procedure it optimizes over: the instance is feasible with job k
// due at the answer, and infeasible with it due 999/1000 of the way down
// from the answer to r_k.
func TestBestDeadlineBracketedByFeasibility(t *testing.T) {
	almost := r(999, 1000)
	for seed := int64(0); seed < 12; seed++ {
		cfg := workload.Default()
		cfg.Seed = seed
		cfg.Jobs = 3 + int(seed%4)
		cfg.Unrelated = seed%2 == 1
		inst := workload.MustGenerate(cfg)
		mode := schedule.Divisible
		if seed%3 == 2 {
			mode = schedule.Preemptive
		}
		// Deadlines an optimal schedule meets with a fifth to spare; every
		// third job has none.
		opt, err := minMaxWeightedFlow(inst, nil, nil, mode, honestProbe)
		if err != nil {
			t.Fatal(err)
		}
		deadlines := make([]*big.Rat, inst.N())
		for j := range deadlines {
			if j%3 == 2 {
				continue
			}
			d := new(big.Rat).Quo(opt.Objective, inst.Jobs[j].Weight)
			d.Mul(d, r(6, 5))
			deadlines[j] = d.Add(d, inst.Jobs[j].Release)
		}
		for k := range inst.Jobs {
			best, err := BestDeadline(inst, deadlines, k, mode)
			if err != nil {
				t.Fatal(err)
			}
			if best == nil {
				t.Fatalf("seed %d job %d: no counter-offer although the other deadlines are loose", seed, k)
			}
			with := func(d *big.Rat) bool {
				dls := append([]*big.Rat(nil), deadlines...)
				dls[k] = d
				ok, _, err := DeadlineFeasible(inst, dls, mode)
				if err != nil {
					t.Fatal(err)
				}
				return ok
			}
			if !with(best) {
				t.Errorf("seed %d job %d: infeasible at the counter-offer %v", seed, k, best)
			}
			rk := inst.Jobs[k].Release
			below := new(big.Rat).Sub(best, rk)
			below.Add(below.Mul(below, almost), rk)
			if with(below) {
				t.Errorf("seed %d job %d: still feasible at %v, below the counter-offer %v", seed, k, below, best)
			}
		}
	}
}

// TestBestDeadlineNoCounterOffer keeps the other half of the contract: when
// the fixed deadlines cannot be met with job k's work added, there is no
// deadline to offer.
func TestBestDeadlineNoCounterOffer(t *testing.T) {
	inst := oneMachine(t, []model.Job{
		{Name: "A", Release: r(0, 1), Weight: r(1, 1), Size: r(2, 1)},
		{Name: "K", Release: r(0, 1), Weight: r(1, 1), Size: r(1, 1)},
	})
	// A needs the machine through 2 whatever K does, so a deadline of 3/2
	// is lost before K is considered.
	got, err := BestDeadline(inst, []*big.Rat{r(3, 2), nil}, 1, schedule.Divisible)
	if err != nil || got != nil {
		t.Errorf("BestDeadline = %v, %v; want no counter-offer", got, err)
	}
}
