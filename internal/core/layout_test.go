package core

import (
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"sync"
	"testing"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/intervals"
	"divflow/internal/lp"
	"divflow/internal/schedule"
)

// newRangeLP is a fresh layout of range rg: a zero rangeLP laid once.
func newRangeLP(inst *instance, mode schedule.Model, ep epochs, rg affine.Range) *rangeLP {
	r := new(rangeLP)
	r.lay(inst, mode, ep, rg)
	return r
}

// makespanLP is a fresh layout of the makespan LP, with r_max.
func makespanLP(inst *instance, mode schedule.Model) (*rangeLP, exact.Q) {
	ep, rMax := makespanEpochs(inst)
	return newRangeLP(inst, mode, ep, affine.Range{}), rMax
}

// solve builds and solves the layout's LP in a workspace of its own,
// minimizing F: the all-exact solve of the reference search and of the probes
// that ask the exact engine. It returns (nil, nil) when the range admits no
// feasible schedule.
func (r *rangeLP) solve() (*rangeSolution, error) {
	w := lp.TakeWorkspace()
	defer lp.ReturnWorkspace(w)
	r.build(w.Fill())
	return r.solveWith(w.Fill(), nil, nil)
}

// sameLayout compares two layouts field by field — every field but the
// sort's buffers, which hold nothing a fill reads — and names the first that
// differs, or returns "".
func sameLayout(got, want *rangeLP) string {
	qs := func(a, b exact.Q) bool { return a.Cmp(b) == 0 }
	forms := func(a, b affine.Form) bool { return qs(a.A, b.A) && qs(a.B, b.B) }
	switch {
	case got.inst != want.inst:
		return "inst"
	case got.mode != want.mode:
		return "mode"
	case !slices.EqualFunc(got.ivs, want.ivs, func(a, b intervals.Interval) bool { return forms(a.Lo, b.Lo) && forms(a.Hi, b.Hi) }):
		return fmt.Sprintf("ivs %v, want %v", got.ivs, want.ivs)
	case !qs(got.rg.Lo, want.rg.Lo) || (got.rg.Hi == nil) != (want.rg.Hi == nil) || got.rg.Hi != nil && !qs(*got.rg.Hi, *want.rg.Hi):
		return fmt.Sprintf("rg %v, want %v", got.rg, want.rg)
	case got.numVars != want.numVars:
		return fmt.Sprintf("numVars %d, want %d", got.numVars, want.numVars)
	case !slices.Equal(got.cols, want.cols):
		return fmt.Sprintf("cols %v, want %v", got.cols, want.cols)
	case !slices.Equal(got.costAt, want.costAt):
		return fmt.Sprintf("costAt %v, want %v", got.costAt, want.costAt)
	case !slices.Equal(got.rows, want.rows):
		return fmt.Sprintf("rows %v, want %v", got.rows, want.rows)
	case !slices.Equal(got.terms, want.terms):
		return fmt.Sprintf("terms %v, want %v", got.terms, want.terms)
	case !slices.EqualFunc(got.vals, want.vals, qs):
		return fmt.Sprintf("vals %v, want %v", got.vals, want.vals)
	case !slices.Equal(got.sense, want.sense):
		return fmt.Sprintf("sense %v, want %v", got.sense, want.sense)
	}
	return ""
}

// TestRelaidLayoutMatchesFresh: a layout re-laid in place is the layout a
// fresh rangeLP lays, field by field. One rangeLP is re-laid for every range
// of every golden instance's searches, in both models: max weighted flow
// without held deadlines and with them (some binding, some loose, some jobs
// holding none), System (2) at those deadlines, and the makespan LP. The
// ranges of a search are taken first, last, second, second to last, …, so
// every lay follows one of another size, and the layout comes to each
// instance from another. Each is compared with newRangeLP's.
func TestRelaidLayoutMatchesFresh(t *testing.T) {
	// sameLayout must see every field a fill reads: one added to rangeLP
	// joins it.
	if n := reflect.TypeOf(rangeLP{}).NumField(); n != 12 {
		t.Fatalf("rangeLP has %d fields, sameLayout compares 11 and the sort's buffers", n)
	}
	var used rangeLP
	laid := 0
	check := func(label string, q *instance, mode schedule.Model, ep epochs, rg affine.Range) {
		t.Helper()
		used.lay(q, mode, ep, rg)
		if diff := sameLayout(&used, newRangeLP(q, mode, ep, rg)); diff != "" {
			t.Fatalf("%s, %v, range %v: the re-laid layout's %s", label, mode, rg, diff)
		}
		laid++
	}
	for _, g := range goldenInstances() {
		mwf, err := MinMaxWeightedFlow(g.inst)
		if err != nil {
			t.Fatal(err)
		}
		held := make([]*big.Rat, g.inst.N())
		loose, binding := flowWindows(g.inst, mwf.Objective, r(6, 5)), flowWindows(g.inst, mwf.Objective, r(9, 10))
		for j := range held {
			switch j % 3 {
			case 0:
				held[j] = binding[j]
			case 1:
				held[j] = loose[j]
			}
		}
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			q := newInstance(g.inst)
			for _, c := range []struct {
				label string
				dls   []*affine.Form
				held  []*big.Rat
			}{
				{"flow", flowDeadlines(q, nil), nil},
				{"flow, held", flowDeadlines(q, nil), held},
				{"System (2)", nil, held},
			} {
				s := newSearch(q, mode, c.dls, c.held, honestProbe)
				for lo, hi := 0, len(s.ranges)-1; lo <= hi; lo, hi = lo+1, hi-1 {
					check(g.label+" "+c.label, q, mode, s.ep, s.ranges[lo])
					check(g.label+" "+c.label, q, mode, s.ep, s.ranges[hi])
				}
			}
			ep, _ := makespanEpochs(q)
			check(g.label+" makespan", q, mode, ep, affine.Range{})
		}
	}
	t.Logf("%d layouts re-laid alike", laid)
}

// layoutAnswers solves instances through every entry point that lays ranges
// out — both max-weighted-flow models, makespan, DeadlineFeasible and
// BestDeadline at the optimum's windows — and re-solves residuals, and writes
// each answer as one line: the exact optimum or verdict, the search's
// counters, and the schedule or plan.
func layoutAnswers(insts []goldenInstance, residuals []goldenResidual) ([]string, error) {
	var out []string
	for _, g := range insts {
		mwf, err := MinMaxWeightedFlow(g.inst)
		if err != nil {
			return nil, err
		}
		pre, err := MinMaxWeightedFlowPreemptive(g.inst)
		if err != nil {
			return nil, err
		}
		mk, err := MinMakespan(g.inst)
		if err != nil {
			return nil, err
		}
		windows := flowWindows(g.inst, mwf.Objective, r(1, 1))
		ok, sched, err := DeadlineFeasible(g.inst, windows, schedule.Divisible)
		if err != nil {
			return nil, err
		}
		best, err := BestDeadline(g.inst, windows, g.inst.N()-1, schedule.Divisible)
		if err != nil {
			return nil, err
		}
		for _, res := range []*Result{mwf, pre} {
			out = append(out, fmt.Sprintf("%s %s %d %d %s", g.label, res.Objective.RatString(), res.Probes, res.LPSolves, scheduleDigest(res.Schedule)))
		}
		out = append(out, fmt.Sprintf("%s makespan %s %d %s", g.label, mk.Makespan.RatString(), mk.Intervals, scheduleDigest(mk.Schedule)),
			fmt.Sprintf("%s deadlines %v %s best %v", g.label, ok, scheduleDigest(sched), best))
	}
	for _, gr := range residuals {
		plan, err := gr.res.MinMaxWeightedFlow(schedule.Divisible)
		if err != nil {
			return nil, err
		}
		out = append(out, fmt.Sprintf("%s residual %v %v", gr.label, plan.Objective, plan.Pieces))
	}
	return out, nil
}

// TestSearchesShareNoLayout runs the searches of the golden instances and
// residuals on 8 goroutines at once, each taking lp's spare workspace and the
// layouts kept with it, and holds every answer to a serial run's. Two searches
// that shared a layout would lay ranges over each other's; under the race
// detector they would also be reported.
func TestSearchesShareNoLayout(t *testing.T) {
	const workers = 8
	insts, residuals := goldenInstances()[:8], goldenResiduals(t)[:8] // the 6×3 and 10×3 shapes
	want, err := layoutAnswers(insts, residuals)
	if err != nil {
		t.Fatal(err)
	}
	got := make([][]string, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[w], errs[w] = layoutAnswers(insts, residuals)
		}()
	}
	wg.Wait()
	for w := range workers {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for k := range want {
			if got[w][k] != want[k] {
				t.Fatalf("goroutine %d answered\n%s\nserially\n%s", w, got[w][k], want[k])
			}
		}
	}
}
