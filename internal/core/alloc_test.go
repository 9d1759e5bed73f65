package core

import (
	"math/big"
	"runtime"
	"testing"

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

// solveSweepBytes and resolveSweepBytes are what one warm sweep of each
// allocated when last measured (amd64, go1.24): the figures
// TestSolveBytesBudget holds the solve paths to, with 15 % of headroom.
const (
	solveSweepBytes   uint64 = 3_387_496
	resolveSweepBytes uint64 = 933_992
)

// TestSolveBytesBudget holds the bytes one sweep allocates to its recorded
// figure + 15 %: the golden instances through the offline entry points
// (solveGoldenSweep) and the residuals drawn from them through the re-solve
// (resolveResidualSweep). A first sweep warms what lp keeps between solves;
// the second, on this goroutine alone, is measured. The race detector's
// instrumentation allocates on its own, so it skips there.
func TestSolveBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	insts, residuals := goldenInstances(), goldenResiduals(t)
	for _, sweep := range []struct {
		name     string
		run      func()
		recorded uint64
	}{
		{"solve", func() { solveGoldenSweep(t, insts) }, solveSweepBytes},
		{"re-solve", func() { resolveResidualSweep(t, residuals) }, resolveSweepBytes},
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
