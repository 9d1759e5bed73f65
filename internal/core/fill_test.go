package core

import (
	"testing"

	"divflow/internal/exact"
	"divflow/internal/lp"
	"divflow/internal/schedule"
)

// rangeProblem is the lp.Problem of a range LP's rows — the layout's rows as
// build writes them into the exact fill, through lp's general form instead:
// F′ the only named and only costed variable, its bound when the range has
// an upper end, then the capacity rows with F′ first and the completion rows.
// The tests hand it to lp's Problem entry points, and hold build to it.
func rangeProblem(r *rangeLP) *lp.Problem {
	p := lp.NewProblem()
	one := exact.Int(1)
	p.AddVarQ("F'", one)
	for c := 1; c < r.numVars; c++ {
		p.AddVarQ("", exact.Q{})
	}
	vals := r.shifted(nil)
	if r.rg.Hi != nil {
		p.AddRowQ("", []lp.TermQ{{Col: fCol, Coef: one}}, lp.LE, vals[1])
	}
	perInterval := vals[2:]
	lo := 0
	for _, row := range r.rows {
		var terms []lp.TermQ
		if row.t >= 0 {
			terms = append(terms, lp.TermQ{Col: fCol, Coef: perInterval[2*row.t+1]})
		}
		for _, c := range r.terms[lo:row.end] {
			coef := one
			if row.t >= 0 {
				coef = r.inst.cost[r.costAt[c]]
			}
			terms = append(terms, lp.TermQ{Col: c, Coef: coef})
		}
		lo = row.end
		if row.t >= 0 {
			p.AddRowQ("", terms, lp.LE, perInterval[2*row.t])
		} else {
			p.AddRowQ("", terms, lp.EQ, one)
		}
	}
	return p
}

// TestExactFillMatchesStdForm holds build, which writes a range LP straight
// into lp's standard form, to the standard form lp makes of the same rows
// stated as an lp.Problem: over every range of every golden instance's max
// weighted flow search, in both models, and their makespan LPs, the two
// agree in column numbering and initial basis, in every row's indices and
// values, and in right-hand sides and costs (lp.ExactFill.Dump renders all of
// it exactly). So the exact solve of a range is the solve of the Problem the
// search used to build, and the probe's basis indexes it as before.
func TestExactFillMatchesStdForm(t *testing.T) {
	ranges := 0
	check := func(label string, rl *rangeLP) {
		t.Helper()
		want := rangeProblem(rl).Fill()
		var got lp.ExactFill
		rl.build(&got)
		if got, want := got.Dump(), want.Dump(); got != want {
			t.Fatalf("%s: the direct fill\n%s\nthe Problem's standard form\n%s", label, got, want)
		}
		ranges++
	}
	for _, g := range goldenInstances() {
		for _, mode := range []schedule.Model{schedule.Divisible, schedule.Preemptive} {
			q := newInstance(g.inst)
			s := newSearch(q, mode, flowDeadlines(q, nil), nil, honestProbe)
			for k := range s.ranges {
				check(g.label, newRangeLP(q, mode, s.ep, s.ranges[k]))
			}
			rl, _ := makespanLP(q, mode)
			check(g.label+" makespan", rl)
		}
	}
	t.Logf("%d range LPs filled alike", ranges)
}
