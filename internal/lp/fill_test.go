package lp

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"divflow/internal/exact"
)

// referenceStdForm is the standard form as newStdForm built it before the
// exact fill: every array sized from the Problem's rows, each row cut at its
// final width and written terms, slack or surplus, artificial. It is the
// independent oracle TestExactFillMatchesStdForm holds the fill to.
func referenceStdForm(p *Problem) *stdForm {
	m := len(p.rows)
	senses := make([]Sense, m)
	for i, r := range p.rows {
		senses[i] = r.sense
		if r.rhs.Sign() < 0 {
			senses[i] = flip(r.sense)
		}
	}
	num := numberCols(p.NumVars(), senses)
	sf := &stdForm{m: m, numVars: p.NumVars(), numCols: num.numCols, artStart: num.artStart,
		numArt: num.numCols - num.artStart, rows: make([]spVec, m), rhs: make([]exact.Q, m),
		basis0: make([]int, m), cost: make([]exact.Q, num.numCols)}
	copy(sf.cost, p.objective)
	byCol := func(a, b TermQ) int { return a.Col - b.Col }
	for i, r := range p.rows {
		neg := r.rhs.Sign() < 0
		terms := slices.Clone(r.terms)
		slices.SortFunc(terms, byCol)
		var row spVec
		for _, t := range terms {
			v := t.Coef
			if neg {
				v = v.Neg()
			}
			row.ind = append(row.ind, t.Col)
			row.val = append(row.val, v)
		}
		slack, art := num.next(senses[i])
		if slack >= 0 {
			row.ind = append(row.ind, slack)
			if senses[i] == LE {
				row.val = append(row.val, exact.Int(1))
			} else {
				row.val = append(row.val, exact.Int(-1))
			}
			sf.basis0[i] = slack
		}
		if art >= 0 {
			row.ind = append(row.ind, art)
			row.val = append(row.val, exact.Int(1))
			sf.basis0[i] = art
		}
		sf.rows[i] = row
		sf.rhs[i] = r.rhs
		if neg {
			sf.rhs[i] = r.rhs.Neg()
		}
	}
	return sf
}

// formDiff names the first place two standard forms differ — shape and
// column numbering, initial basis, a row's indices or values, a right-hand
// side, a cost — or returns "".
func formDiff(got, want *stdForm) string {
	if got.m != want.m || got.numVars != want.numVars || got.numCols != want.numCols ||
		got.artStart != want.artStart || got.numArt != want.numArt {
		return fmt.Sprintf("shape %d rows over %d/%d/%d/%d columns (structural/artificials from/artificials/all), want %d over %d/%d/%d/%d",
			got.m, got.numVars, got.artStart, got.numArt, got.numCols, want.m, want.numVars, want.artStart, want.numArt, want.numCols)
	}
	if !slices.Equal(got.basis0, want.basis0) {
		return fmt.Sprintf("initial basis %v, want %v", got.basis0, want.basis0)
	}
	same := func(a, b []exact.Q) bool {
		return slices.EqualFunc(a, b, func(x, y exact.Q) bool { return x.Cmp(y) == 0 })
	}
	for i := range got.rows {
		g, w := &got.rows[i], &want.rows[i]
		if !slices.Equal(g.ind, w.ind) || !same(g.val, w.val) {
			return fmt.Sprintf("row %d %v %v, want %v %v", i, g.ind, g.val, w.ind, w.val)
		}
		if len(g.ind) != cap(g.ind) || len(g.val) != cap(g.val) {
			return fmt.Sprintf("row %d is not cut at its width: %d/%d entries, %d/%d values", i, len(g.ind), cap(g.ind), len(g.val), cap(g.val))
		}
	}
	if !same(got.rhs, want.rhs) {
		return fmt.Sprintf("right-hand sides %v, want %v", got.rhs, want.rhs)
	}
	if !same(got.cost, want.cost) {
		return fmt.Sprintf("costs %v, want %v", got.cost, want.cost)
	}
	return ""
}

// TestExactFillMatchesStdForm is TestDirectFillMatchesStdForm's exact twin.
// Filling an ExactFill by hand (Reset, Set in column order, SetRHS, SetCost)
// and newStdForm of the same rows stated as a Problem — itself a fill — give
// the standard form the pre-fill construction (referenceStdForm) gave: the
// same column numbering and initial basis, every row's indices and values,
// right-hand sides and costs. Solving the hand fill then answers exactly as
// SolveHybrid answers the Problem.
func TestExactFillMatchesStdForm(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	negated := 0
	for n := 0; n < 400; n++ {
		var p *Problem
		if n%2 == 0 {
			p = schedulingProblem(rng)
		} else {
			p, _ = randomProblem(rng)
		}
		want := referenceStdForm(p)
		sf, err := newStdForm(p)
		if err != nil {
			t.Fatal(err)
		}
		if d := formDiff(sf, want); d != "" {
			t.Fatalf("problem %d: newStdForm: %s\n%s", n, d, p.Dump())
		}

		// What newStdForm does for a Problem's rows, done by hand.
		senses := make([]Sense, len(p.rows))
		terms := 0
		for i, r := range p.rows {
			senses[i] = r.sense
			if r.rhs.Sign() < 0 {
				senses[i] = flip(r.sense)
				negated++
			}
			terms += len(r.terms)
		}
		var f ExactFill
		f.Reset(p.NumVars(), senses, terms)
		for j, c := range p.objective {
			f.SetCost(j, c)
		}
		for i, r := range p.rows {
			sign := exact.Int(1)
			if r.rhs.Sign() < 0 {
				sign = exact.Int(-1)
			}
			terms := slices.Clone(r.terms)
			slices.SortFunc(terms, func(a, b TermQ) int { return a.Col - b.Col })
			for _, term := range terms {
				f.Set(i, term.Col, sign.Mul(term.Coef))
			}
			f.SetRHS(i, sign.Mul(r.rhs))
		}
		got, err := f.form()
		if err != nil {
			t.Fatalf("problem %d: %v", n, err)
		}
		if d := formDiff(got, want); d != "" {
			t.Fatalf("problem %d: the hand fill: %s\n%s", n, d, p.Dump())
		}

		byFill, err := f.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		byProblem, err := SolveHybrid(p)
		if err != nil {
			t.Fatal(err)
		}
		if byFill.Status != byProblem.Status || byFill.Method != byProblem.Method ||
			byFill.Status == Optimal && (byFill.ObjectiveQ.Cmp(exact.FromRat(byProblem.Objective)) != 0 || byFill.Objective != nil || !slices.EqualFunc(byFill.X, byProblem.X, func(x, y exact.Q) bool { return x.Cmp(y) == 0 })) {
			t.Fatalf("problem %d: the fill solves %v %v by %v, the Problem %v %v by %v\n%s",
				n, byFill.Status, byFill.ObjectiveQ, byFill.Method, byProblem.Status, byProblem.Objective, byProblem.Method, p.Dump())
		}
	}
	if negated == 0 {
		t.Error("no row with a negative right-hand side was seen; the suite must cover the negation")
	}
}

// TestExactFillRefusesMisuse holds the fill's rules: a row written out of
// order, a column out of order, twice or out of range, a negative right-hand
// side each make Solve an error, never a panic or a wrong form — through a
// Problem's rows too.
func TestExactFillRefusesMisuse(t *testing.T) {
	one := exact.Int(1)
	for _, tc := range []struct {
		name  string
		write func(f *ExactFill)
		want  string
	}{
		{"row out of order", func(f *ExactFill) { f.Set(1, 0, one); f.Set(0, 1, one) }, "written after"},
		{"column out of order", func(f *ExactFill) { f.Set(0, 1, one); f.Set(0, 0, one) }, "after column"},
		{"column twice", func(f *ExactFill) { f.Set(0, 1, one); f.Set(0, 1, one) }, "after column"},
		{"unknown column", func(f *ExactFill) { f.Set(0, 2, one) }, "unknown column"},
		{"unknown row", func(f *ExactFill) { f.Set(2, 0, one) }, "written after"},
		{"negative right-hand side", func(f *ExactFill) { f.SetRHS(0, exact.Int(-1)) }, "never negative"},
		{"unknown cost column", func(f *ExactFill) { f.SetCost(-1, one) }, "unknown column"},
	} {
		var f ExactFill
		f.Reset(2, []Sense{LE, EQ}, 4)
		tc.write(&f)
		if _, err := f.Solve(nil); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Solve answered %v, want an error saying %q", tc.name, err, tc.want)
		}
	}
	// A Problem's row that mentions a column twice reaches the same rule.
	p := NewProblem()
	p.AddVarQ("x", one)
	p.AddRowQ("twice", []TermQ{{Col: 0, Coef: one}, {Col: 0, Coef: one}}, GE, one)
	for _, solve := range []func(*Problem) (*Solution, error){SolveHybrid, SolveRat} {
		if _, err := solve(p); err == nil || !strings.Contains(err.Error(), "after column") {
			t.Errorf("a column mentioned twice: %v, want an error", err)
		}
	}
}
