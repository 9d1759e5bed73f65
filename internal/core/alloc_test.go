package core

import (
	"math/big"
	"math/rand"
	"runtime"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/schedule"
)

// solveGoldenSweep runs the golden instances through the solvers a request
// reaches: MinMaxWeightedFlow, its preemptive form on the two smaller
// shapes, MinMakespan, and DeadlineFeasible at the optimum's windows
// r_j + F*/w_j.
func solveGoldenSweep(tb testing.TB, insts []goldenInstance) {
	one := big.NewRat(1, 1)
	for _, g := range insts {
		mwf, err := MinMaxWeightedFlow(g.inst)
		if err != nil {
			tb.Fatalf("%s: %v", g.label, err)
		}
		if g.inst.N() <= 10 {
			if _, err := MinMaxWeightedFlowPreemptive(g.inst); err != nil {
				tb.Fatalf("%s: %v", g.label, err)
			}
		}
		if _, err := MinMakespan(g.inst); err != nil {
			tb.Fatalf("%s: %v", g.label, err)
		}
		if ok, _, err := DeadlineFeasible(g.inst, flowWindows(g.inst, mwf.Objective, one), schedule.Divisible); err != nil || !ok {
			tb.Fatalf("%s: deadlines at the optimum: %v, %v", g.label, ok, err)
		}
	}
}

// BenchmarkSolveGolden is one sweep of the golden instances per op: what
// the solve path allocates (B/op, allocs/op) and how long it takes.
func BenchmarkSolveGolden(b *testing.B) {
	insts := goldenInstances()
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		solveGoldenSweep(b, insts)
	}
}

// resolveResidualSweep re-solves the residuals drawn from the golden
// instances (goldenResiduals), as the online policy does at an arrival: both
// models on the two smaller shapes, the divisible one on the largest.
func resolveResidualSweep(tb testing.TB, residuals []goldenResidual) {
	for _, gr := range residuals {
		for _, mode := range residualModes(gr.inst.N()) {
			if _, err := gr.res.MinMaxWeightedFlow(mode); err != nil {
				tb.Fatalf("%s: %v", gr.label, err)
			}
		}
	}
}

// BenchmarkResolveResidual is one re-solve sweep of the golden residuals per
// op: what the online path's solve allocates and how long it takes.
func BenchmarkResolveResidual(b *testing.B) {
	residuals := goldenResiduals(b)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		resolveResidualSweep(b, residuals)
	}
}

// cappedResidual is a residual shaped like replay-sla's at an arrival with
// every job holding a deadline: what a re-solve that keeps the held deadlines
// (a capped re-solve) solves.
type cappedResidual struct {
	res  *Residual
	held []*exact.Q
}

// cappedResiduals draws count residuals for the capped re-solve, seeded:
// 3–7 jobs on 2–4 machines of inverse speed 1/3, 1/2 or 1; every job released
// at Now with its flow origin up to 2 before, weight 1–3, size k/4 for k in
// 1…20, and a held deadline Now + slack·size, slack 0.5–3, drawn as
// bench/inputs.go draws one. A draw whose deadlines no schedule meets is
// skipped.
func cappedResiduals(tb testing.TB, count int) []cappedResidual {
	tb.Helper()
	rng := rand.New(rand.NewSource(19))
	var out []cappedResidual
	for len(out) < count {
		n, m := 3+rng.Intn(5), 2+rng.Intn(3)
		now := exact.New(int64(rng.Intn(40)), 4)
		res := &Residual{Now: now, M: m, Origin: make([]exact.Q, n), Weight: make([]exact.Q, n), Cost: make([]exact.Q, m*n)}
		held := make([]*exact.Q, n)
		speeds := make([]exact.Q, m)
		for i := range speeds {
			speeds[i] = exact.New(1, []int64{1, 2, 3}[rng.Intn(3)])
		}
		for k := range n {
			size := exact.New(int64(1+rng.Intn(20)), 4)
			res.Origin[k] = now.Sub(exact.New(int64(rng.Intn(9)), 4))
			res.Weight[k] = exact.Int(int64(1 + rng.Intn(3)))
			for i := range m {
				res.Cost[i*n+k] = size.Mul(speeds[i])
			}
			d := exact.New(int64(10+rng.Intn(51)), 20).Mul(size).Add(now)
			held[k] = &d
		}
		ok, err := res.DeadlineFeasible(held, schedule.Divisible)
		if err != nil {
			tb.Fatal(err)
		}
		if ok {
			out = append(out, cappedResidual{res, held})
		}
	}
	return out
}

// cappedSweep re-solves every capped residual in the divisible model: the
// search Residual.MinMaxWeightedFlow runs, with every deadline held, its
// plan's pieces read off the optimal range's layout. It returns the
// milestone ranges, the optimal range's intervals and the float probes,
// summed over the sweep.
func cappedSweep(tb testing.TB, residuals []cappedResidual) (ranges, intervals, probes int) {
	for _, c := range residuals {
		q, err := c.res.withHeld(c.held)
		if err != nil {
			tb.Fatal(err)
		}
		s := newSearchQ(q, schedule.Divisible, flowDeadlinesQ(q, c.res.Origin), c.held, (*rangeSearch).floatProbe)
		_, rl, sol, err := s.leftmost()
		if err == nil {
			err = rl.pieces(sol, func(int, int, exact.Q, exact.Q, exact.Q) {})
		}
		if err != nil {
			tb.Fatal(err)
		}
		ranges, intervals, probes = ranges+len(s.ranges), intervals+len(rl.ivs), probes+s.probes
		s.done()
	}
	return ranges, intervals, probes
}

// cappedCount is how many capped residuals a sweep re-solves.
const cappedCount = 128

// BenchmarkCappedResolve is one capped re-solve sweep per op: what a re-solve
// that keeps every held deadline costs, and per solve the milestone ranges,
// the optimal range's intervals and the float probes that make it dearer
// than the blind one (BenchmarkResolveResidual).
func BenchmarkCappedResolve(b *testing.B) {
	residuals := cappedResiduals(b, cappedCount)
	b.ReportAllocs()
	b.ResetTimer()
	var ranges, intervals, probes int
	for range b.N {
		r, i, p := cappedSweep(b, residuals)
		ranges, intervals, probes = ranges+r, intervals+i, probes+p
	}
	solves := float64(b.N * len(residuals))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/solves, "ns/solve")
	b.ReportMetric(float64(ranges)/solves, "ranges/solve")
	b.ReportMetric(float64(intervals)/solves, "intervals/solve")
	b.ReportMetric(float64(probes)/solves, "probes/solve")
}

// solveSweepBytes, resolveSweepBytes and cappedSweepBytes are what one warm
// sweep of each allocated when last measured (amd64, go1.24): the figures
// TestSolveBytesBudget holds the solve paths to, with 15 % of headroom.
const (
	solveSweepBytes   uint64 = 1_423_776
	resolveSweepBytes uint64 = 550_872
	cappedSweepBytes  uint64 = 1_687_016
)

// TestSolveBytesBudget holds the bytes one sweep allocates to its recorded
// figure + 15 %: the golden instances through the offline entry points
// (solveGoldenSweep), the residuals drawn from them through the re-solve
// (resolveResidualSweep) and the capped residuals through the capped
// re-solve (cappedSweep). A first sweep warms what lp keeps between solves;
// the second, on this goroutine alone, is measured. The race detector's
// instrumentation allocates on its own, so it skips there.
func TestSolveBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	insts, residuals, capped := goldenInstances(), goldenResiduals(t), cappedResiduals(t, cappedCount)
	for _, sweep := range []struct {
		name     string
		run      func()
		recorded uint64
	}{
		{"solve", func() { solveGoldenSweep(t, insts) }, solveSweepBytes},
		{"re-solve", func() { resolveResidualSweep(t, residuals) }, resolveSweepBytes},
		{"capped re-solve", func() { cappedSweep(t, capped) }, cappedSweepBytes},
	} {
		sweep.run()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sweep.run()
		runtime.ReadMemStats(&after)
		got := after.TotalAlloc - before.TotalAlloc
		t.Logf("one %s sweep allocated %d bytes (%d objects)", sweep.name, got, after.Mallocs-before.Mallocs)
		if limit := sweep.recorded * 115 / 100; got > limit {
			t.Errorf("one %s sweep allocated %d bytes, budget %d (%d + 15 %%)", sweep.name, got, limit, sweep.recorded)
		}
	}
}
