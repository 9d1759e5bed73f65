package lp

import (
	"math/big"
	"math/rand"
	"testing"

	"divflow/internal/exact"
)

// TestSolveRatTransportation solves small random transportation problems
// (supply/demand balance) whose optimal cost is cross-checked against
// brute-force enumeration of basic assignments for 2x2, and against the
// float solver for larger shapes.
func TestSolveRatTransportation(t *testing.T) {
	// 2 suppliers (capacity 5, 7), 2 consumers (demand 4, 6);
	// costs: [[1 3],[2 1]]. Optimum: x11=4, x22=6, cost 4+6=10 with x12=0
	// x21=0 -> check: supply 1 used 4<=5, supply 2 used 6<=7. Cost 10.
	p := NewProblem()
	x := make([][]int, 2)
	costs := [][]int64{{1, 3}, {2, 1}}
	for i := range x {
		x[i] = make([]int, 2)
		for j := range x[i] {
			x[i][j] = p.AddVar("", rat(costs[i][j], 1))
		}
	}
	p.AddRow("s0", []Term{{x[0][0], rat(1, 1)}, {x[0][1], rat(1, 1)}}, LE, rat(5, 1))
	p.AddRow("s1", []Term{{x[1][0], rat(1, 1)}, {x[1][1], rat(1, 1)}}, LE, rat(7, 1))
	p.AddRow("d0", []Term{{x[0][0], rat(1, 1)}, {x[1][0], rat(1, 1)}}, EQ, rat(4, 1))
	p.AddRow("d1", []Term{{x[0][1], rat(1, 1)}, {x[1][1], rat(1, 1)}}, EQ, rat(6, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(10, 1)) != 0 {
		t.Fatalf("status %v obj %v, want optimal 10", sol.Status, sol.Objective)
	}
}

// TestSolveRatDietProblem is the classic Stigler-style toy: minimize cost
// subject to nutrient lower bounds (GE rows + phase 1).
func TestSolveRatDietProblem(t *testing.T) {
	// Foods: bread (cost 2), milk (cost 3).
	// Nutrients: energy >= 8 (bread 2/unit, milk 1/unit),
	//            protein >= 6 (bread 1/unit, milk 3/unit).
	// LP optimum: solve 2b + m = 8, b + 3m = 6 -> b = 18/5, m = 4/5;
	// cost = 2*18/5 + 3*4/5 = 48/5.
	p := NewProblem()
	b := p.AddVar("bread", rat(2, 1))
	m := p.AddVar("milk", rat(3, 1))
	p.AddRow("energy", []Term{{b, rat(2, 1)}, {m, rat(1, 1)}}, GE, rat(8, 1))
	p.AddRow("protein", []Term{{b, rat(1, 1)}, {m, rat(3, 1)}}, GE, rat(6, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(48, 5)) != 0 {
		t.Fatalf("status %v obj %v, want optimal 48/5", sol.Status, sol.Objective)
	}
	if sol.X[0].Cmp(q(18, 5)) != 0 || sol.X[1].Cmp(q(4, 5)) != 0 {
		t.Errorf("x = %v, %v; want 18/5, 4/5", sol.X[0], sol.X[1])
	}
}

// TestSolveRatManyDegenerateTies stresses Bland's rule with highly
// degenerate problems (many identical rows and zero RHS).
func TestSolveRatManyDegenerateTies(t *testing.T) {
	p := NewProblem()
	n := 6
	cols := make([]int, n)
	for j := range cols {
		cols[j] = p.AddVar("", rat(-1, 1))
	}
	for i := 0; i < 10; i++ {
		var terms []Term
		for j := range cols {
			terms = append(terms, Term{cols[j], rat(1, 1)})
		}
		p.AddRow("", terms, LE, rat(0, 1)) // Σx <= 0 repeatedly
	}
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Sign() != 0 {
		t.Fatalf("status %v obj %v, want optimal 0", sol.Status, sol.Objective)
	}
}

// TestSolveRatScaleInvariance: scaling all rows and the objective by
// positive rationals must not change the argmax (sanity for exact pivots).
func TestSolveRatScaleInvariance(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for it := 0; it < 20; it++ {
		base := randomFeasibleProblem(rng, 3, 4)
		scaled := NewProblem()
		mult := rat(int64(1+rng.Intn(5)), int64(1+rng.Intn(3)))
		for _, c := range base.objective {
			scaled.AddVarQ("", c.Mul(exact.FromRat(mult)))
		}
		for _, row := range base.rows {
			rowMult := q(int64(1+rng.Intn(7)), int64(1+rng.Intn(4)))
			terms := make([]TermQ, len(row.terms))
			for k, tm := range row.terms {
				terms[k] = TermQ{tm.Col, tm.Coef.Mul(rowMult)}
			}
			scaled.AddRowQ("", terms, row.sense, row.rhs.Mul(rowMult))
		}
		a, err := SolveRat(base)
		if err != nil {
			t.Fatal(err)
		}
		b, err := SolveRat(scaled)
		if err != nil {
			t.Fatal(err)
		}
		if a.Status != b.Status {
			t.Fatalf("iter %d: status changed under scaling: %v vs %v", it, a.Status, b.Status)
		}
		if a.Status == Optimal {
			want := new(big.Rat).Mul(a.Objective, mult)
			if want.Cmp(b.Objective) != 0 {
				t.Fatalf("iter %d: objective %v, want scaled %v", it, b.Objective, want)
			}
		}
	}
}

// TestSolveRatBigCoefficients exercises exact arithmetic with large
// numerators/denominators (where float64 would lose precision).
func TestSolveRatBigCoefficients(t *testing.T) {
	p := NewProblem()
	huge := new(big.Rat).SetFrac(
		new(big.Int).Exp(big.NewInt(10), big.NewInt(30), nil),
		big.NewInt(7),
	)
	tiny := new(big.Rat).Inv(huge)
	x := p.AddVar("x", rat(1, 1))
	y := p.AddVar("y", rat(1, 1))
	p.AddRow("hx", []Term{{x, huge}}, GE, rat(1, 1))
	p.AddRow("ty", []Term{{y, tiny}}, GE, rat(1, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status %v", sol.Status)
	}
	wantX := new(big.Rat).Inv(huge)
	if sol.X[0].Cmp(exact.FromRat(wantX)) != 0 {
		t.Errorf("x = %v, want %v", sol.X[0], wantX)
	}
	if sol.X[1].Cmp(exact.FromRat(huge)) != 0 {
		t.Errorf("y = %v, want %v", sol.X[1], huge)
	}
}

func TestProblemAccessors(t *testing.T) {
	p := NewProblem()
	if p.NumVars() != 0 || p.NumRows() != 0 {
		t.Error("fresh problem not empty")
	}
	x := p.AddVar("x", rat(5, 1))
	p.AddRow("r", []Term{{x, rat(1, 1)}}, LE, rat(1, 1))
	if p.NumVars() != 1 || p.NumRows() != 1 {
		t.Error("accessors wrong after adds")
	}
	sol, err := SolveRat(p)
	if err != nil || sol.Status != Optimal || sol.Objective.Sign() != 0 {
		t.Errorf("min 5x, x>=0 -> 0; got %v %v", sol, err)
	}
	// Zero-coefficient terms are dropped.
	p2 := NewProblem()
	a := p2.AddVar("a", rat(1, 1))
	p2.AddRow("z", []Term{{a, rat(0, 1)}, {a, rat(1, 1)}}, GE, rat(2, 1))
	sol2, err := SolveRat(p2)
	if err != nil || sol2.Status != Optimal || sol2.Objective.Cmp(rat(2, 1)) != 0 {
		t.Errorf("got %v %v, want optimal 2", sol2, err)
	}
}

func TestSenseString(t *testing.T) {
	if LE.String() != "<=" || EQ.String() != "==" || GE.String() != ">=" {
		t.Error("sense strings wrong")
	}
	if Optimal.String() != "optimal" || Infeasible.String() != "infeasible" || Unbounded.String() != "unbounded" {
		t.Error("status strings wrong")
	}
}
