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

// solveSweepBytes is what one warm sweep allocated when it was last
// measured (amd64, go1.24): the figure TestSolveBytesBudget holds the solve
// path to, with 15 % of headroom.
const solveSweepBytes uint64 = 8_193_584

// TestSolveBytesBudget holds the bytes one sweep of the golden instances
// allocates to solveSweepBytes + 15 %. A first sweep warms what lp keeps
// between solves; the second, on this goroutine alone, is measured. The race
// detector's instrumentation allocates on its own, so it skips there.
func TestSolveBytesBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	insts := goldenInstances()
	solveGoldenSweep(t, insts)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	solveGoldenSweep(t, insts)
	runtime.ReadMemStats(&after)
	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("one sweep allocated %d bytes (%d objects)", got, after.Mallocs-before.Mallocs)
	if limit := solveSweepBytes * 115 / 100; got > limit {
		t.Errorf("one sweep allocated %d bytes, budget %d (%d + 15 %%)", got, limit, solveSweepBytes)
	}
}
