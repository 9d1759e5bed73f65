package core

import (
	"fmt"
	"math/big"
	"math/rand"
	"strings"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
)

// goldenResidual is a residual drawn from a golden instance, with the same
// problem stated for MinMaxWeightedFlowFrom.
type goldenResidual struct {
	label   string
	res     *Residual
	inst    *model.Instance // every job released at res.Now, the residual's costs
	origins []*big.Rat      // the residual's origins
}

// goldenResiduals draws one residual from each golden instance, as the
// online adaptation forms them: at Now, the instance's last release plus a
// seeded delay, each job keeps a seeded remaining fraction of its work
// (1/4 … 1) and its release as its flow origin, so the origins lie before Now.
func goldenResiduals(tb testing.TB) []goldenResidual {
	tb.Helper()
	rng := rand.New(rand.NewSource(51))
	var out []goldenResidual
	for _, g := range goldenInstances() {
		n, m := g.inst.N(), g.inst.M()
		now := new(big.Rat).Add(g.inst.Jobs[n-1].Release, big.NewRat(int64(rng.Intn(8)), 2))
		res := &Residual{Now: exact.FromRat(now), M: m, Origin: make([]exact.Q, n), Weight: make([]exact.Q, n), Cost: make([]exact.Q, m*n)}
		jobs := make([]model.Job, n)
		origins := make([]*big.Rat, n)
		cost := make([][]*big.Rat, m)
		for i := range cost {
			cost[i] = make([]*big.Rat, n)
		}
		for j := range n {
			job := g.inst.Jobs[j]
			rem := big.NewRat(int64(1+rng.Intn(4)), 4)
			jobs[j] = model.Job{Release: now, Weight: job.Weight}
			origins[j] = job.Release
			res.Origin[j], res.Weight[j] = exact.FromRat(job.Release), exact.FromRat(job.Weight)
			for i := range m {
				if c, ok := g.inst.Cost(i, j); ok {
					cost[i][j] = new(big.Rat).Mul(rem, c)
					res.Cost[i*n+j] = exact.FromRat(cost[i][j])
				}
			}
		}
		inst, err := model.NewUnrelated(jobs, make([]model.Machine, m), cost)
		if err != nil {
			tb.Fatalf("%s: %v", g.label, err)
		}
		out = append(out, goldenResidual{g.label, res, inst, origins})
	}
	return out
}

// residualModes is the models a residual is re-solved in: both on the two
// smaller shapes, as solveGoldenSweep solves the preemptive model.
func residualModes(n int) []schedule.Model {
	if n <= 10 {
		return []schedule.Model{schedule.Divisible, schedule.Preemptive}
	}
	return []schedule.Model{schedule.Divisible}
}

// TestResidualMatchesMinMaxWeightedFlowFrom holds the residual re-solve to
// the offline entry point it replaces on the online path: on residuals drawn
// from the golden instances, with origins before Now, Residual's
// MinMaxWeightedFlow and MinMaxWeightedFlowFrom on the same problem give the
// same exact F* and the same pieces — machine, job, start and end, in order —
// and the same solver tally.
func TestResidualMatchesMinMaxWeightedFlowFrom(t *testing.T) {
	pieces := 0
	for _, gr := range goldenResiduals(t) {
		for _, mode := range residualModes(gr.inst.N()) {
			label := fmt.Sprintf("%s, %v", gr.label, mode)
			plan, err := gr.res.MinMaxWeightedFlow(mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			want, err := MinMaxWeightedFlowFrom(gr.inst, gr.origins, nil, mode)
			if err != nil {
				t.Fatalf("%s: %v", label, err)
			}
			if plan.Objective.Cmp(exact.FromRat(want.Objective)) != 0 {
				t.Fatalf("%s: F* = %v from the residual, %v from MinMaxWeightedFlowFrom", label, plan.Objective, want.Objective)
			}
			if plan.Solver != want.Solver {
				t.Errorf("%s: solver tally %+v from the residual, %+v from MinMaxWeightedFlowFrom", label, plan.Solver, want.Solver)
			}
			if len(plan.Pieces) != len(want.Schedule.Pieces) {
				t.Fatalf("%s: %d pieces from the residual, %d from MinMaxWeightedFlowFrom", label, len(plan.Pieces), len(want.Schedule.Pieces))
			}
			for k, p := range plan.Pieces {
				w := want.Schedule.Pieces[k]
				if p.Machine != w.Machine || p.Job != w.Job || p.Start.Cmp(exact.FromRat(w.Start)) != 0 || p.End.Cmp(exact.FromRat(w.End)) != 0 {
					t.Fatalf("%s: piece %d is machine %d job %d [%v, %v), MinMaxWeightedFlowFrom's machine %d job %d [%v, %v)",
						label, k, p.Machine, p.Job, p.Start, p.End, w.Machine, w.Job, w.Start, w.End)
				}
			}
			pieces += len(plan.Pieces)
		}
	}
	t.Logf("%d pieces alike", pieces)
}

// TestResidualDeadlinesMatchOffline holds admission's two solves on a
// residual to the offline entry points on the same problem: at deadlines the
// re-solve's optimum meets, and at 9/10 of its windows (infeasible for the
// job that sets F*), DeadlineFeasible gives the same verdict and BestDeadline
// the same counter-offer for the last job.
func TestResidualDeadlinesMatchOffline(t *testing.T) {
	refused := 0
	for _, gr := range goldenResiduals(t) {
		plan, err := gr.res.MinMaxWeightedFlow(schedule.Divisible)
		if err != nil {
			t.Fatal(err)
		}
		n := gr.inst.N()
		for _, scale := range []exact.Q{exact.Int(1), exact.New(9, 10)} {
			held, rats := make([]*exact.Q, n), make([]*big.Rat, n)
			for j := range n {
				// o_j + scale·F*/w_j, no earlier than Now
				d := plan.Objective.Mul(scale).Quo(gr.res.Weight[j]).Add(gr.res.Origin[j])
				if d.Cmp(gr.res.Now) < 0 {
					d = gr.res.Now
				}
				held[j], rats[j] = &d, d.Rat()
			}
			got, err := gr.res.DeadlineFeasible(held, schedule.Divisible)
			if err != nil {
				t.Fatal(err)
			}
			want, _, err := DeadlineFeasible(gr.inst, rats, schedule.Divisible)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%s at %v: the residual says %v, DeadlineFeasible %v", gr.label, scale, got, want)
			}
			if !got {
				refused++
			}
			best, ok, err := gr.res.BestDeadline(held, n-1, schedule.Divisible)
			if err != nil {
				t.Fatal(err)
			}
			wantBest, err := BestDeadline(gr.inst, rats, n-1, schedule.Divisible)
			if err != nil {
				t.Fatal(err)
			}
			if ok != (wantBest != nil) || ok && best.Cmp(exact.FromRat(wantBest)) != 0 {
				t.Fatalf("%s at %v: the residual's counter-offer %v (%v), BestDeadline's %v", gr.label, scale, best, ok, wantBest)
			}
		}
	}
	if refused == 0 {
		t.Error("no residual refused its tightened deadlines; the suite must cover a refusal")
	}
}

// TestResidualRejectsBadInput holds every residual entry point to an error,
// never a panic, on a residual model.Instance.Validate or
// MinMaxWeightedFlowFrom would have refused: no jobs, no machines, a zero
// weight, a negative cost, a job no machine runs, an origin after Now, a
// release before 0, or slices of the wrong length; and on held deadlines of
// the wrong length or a job index out of range.
func TestResidualRejectsBadInput(t *testing.T) {
	one, two := exact.Int(1), exact.Int(2)
	good := func() *Residual {
		return &Residual{Now: two, M: 2, Origin: []exact.Q{one, two}, Weight: []exact.Q{one, one}, Cost: []exact.Q{one, exact.Q{}, one, two}}
	}
	for _, tc := range []struct {
		name  string
		bad   func(r *Residual)
		wants string
	}{
		{"no jobs", func(r *Residual) { r.Origin, r.Weight, r.Cost = nil, nil, nil }, "no jobs"},
		{"no machines", func(r *Residual) { r.M, r.Cost = 0, nil }, "no machines"},
		{"zero weight", func(r *Residual) { r.Weight[1] = exact.Q{} }, "Weight > 0"},
		{"negative weight", func(r *Residual) { r.Weight[0] = exact.Int(-1) }, "Weight > 0"},
		{"negative cost", func(r *Residual) { r.Cost[3] = exact.Int(-2) }, "must be > 0"},
		{"a job no machine runs", func(r *Residual) { r.Cost[0], r.Cost[2] = exact.Q{}, exact.Q{} }, "cannot run on any machine"},
		{"origin after Now", func(r *Residual) { r.Origin[0] = exact.Int(3) }, "after its release"},
		{"release before 0", func(r *Residual) { r.Now, r.Origin[0], r.Origin[1] = exact.Int(-1), exact.Int(-1), exact.Int(-1) }, "before 0"},
		{"origins short", func(r *Residual) { r.Origin = r.Origin[:1] }, "origins"},
		{"costs short", func(r *Residual) { r.Cost = r.Cost[:3] }, "costs"},
	} {
		r := good()
		tc.bad(r)
		held := make([]*exact.Q, len(r.Weight))
		calls := []struct {
			name string
			run  func() error
		}{
			{"MinMaxWeightedFlow", func() error { _, err := r.MinMaxWeightedFlow(schedule.Divisible); return err }},
			{"DeadlineFeasible", func() error { _, err := r.DeadlineFeasible(held, schedule.Divisible); return err }},
			{"BestDeadline", func() error { _, _, err := r.BestDeadline(held, 0, schedule.Divisible); return err }},
		}
		for _, call := range calls {
			if err := call.run(); err == nil || !strings.Contains(err.Error(), tc.wants) {
				t.Errorf("%s: %s answered %v, want an error saying %q", tc.name, call.name, err, tc.wants)
			}
		}
	}
	r := good()
	if _, err := r.DeadlineFeasible(make([]*exact.Q, 1), schedule.Divisible); err == nil {
		t.Error("one held deadline for two jobs must error")
	}
	for _, k := range []int{-1, 2} {
		if _, _, err := r.BestDeadline(make([]*exact.Q, 2), k, schedule.Divisible); err == nil {
			t.Errorf("BestDeadline for job %d of 2 must error", k)
		}
	}
	// The good residual itself solves, and a deadline before its job can end
	// is refused by the verdict, not an error.
	if _, err := r.MinMaxWeightedFlow(schedule.Preemptive); err != nil {
		t.Fatal(err)
	}
	early := exact.New(9, 4) // job 0 ends at 5/2 at the earliest, job 1 at 4
	if ok, err := r.DeadlineFeasible([]*exact.Q{&early, nil}, schedule.Divisible); ok || err != nil {
		t.Errorf("a deadline before its job can end: %v, %v; want infeasible", ok, err)
	}
	if _, ok, err := r.BestDeadline([]*exact.Q{nil, &early}, 0, schedule.Divisible); ok || err != nil {
		t.Errorf("a counter-offer against a held deadline no schedule meets: %v, %v; want none", ok, err)
	}
}
