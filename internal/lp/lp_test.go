package lp

import (
	"math"
	"math/big"
	"math/rand"
	"testing"
	"testing/quick"

	"divflow/internal/exact"
)

func rat(a, b int64) *big.Rat { return big.NewRat(a, b) }

func q(a, b int64) exact.Q { return exact.New(a, b) }

// buildSimple returns: min -3x -5y s.t. x<=4, 2y<=12, 3x+2y<=18 (classic
// Dantzig example; optimum -36 at x=2, y=6).
func buildSimple() *Problem {
	p := NewProblem()
	x := p.AddVar("x", rat(-3, 1))
	y := p.AddVar("y", rat(-5, 1))
	p.AddRow("c1", []Term{{x, rat(1, 1)}}, LE, rat(4, 1))
	p.AddRow("c2", []Term{{y, rat(2, 1)}}, LE, rat(12, 1))
	p.AddRow("c3", []Term{{x, rat(3, 1)}, {y, rat(2, 1)}}, LE, rat(18, 1))
	return p
}

func TestSolveRatClassic(t *testing.T) {
	sol, err := SolveRat(buildSimple())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if sol.Objective.Cmp(rat(-36, 1)) != 0 {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
	if sol.X[0].Cmp(q(2, 1)) != 0 || sol.X[1].Cmp(q(6, 1)) != 0 {
		t.Errorf("x = %v,%v, want 2,6", sol.X[0], sol.X[1])
	}
}

// solveFloat runs the float simplex alone: what the hybrid engine runs before
// it verifies, reported the way a directly filled tableau reports.
func solveFloat(p *Problem) (*FloatSolution, error) {
	sf, err := newStdForm(p)
	if err != nil {
		return nil, err
	}
	return runFloat(sf).solution()
}

func TestSolveFloatClassic(t *testing.T) {
	sol, err := solveFloat(buildSimple())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal", sol.Status)
	}
	if math.Abs(sol.Objective-(-36)) > 1e-6 {
		t.Errorf("objective = %v, want -36", sol.Objective)
	}
}

func TestSolveRatEquality(t *testing.T) {
	// min x+y s.t. x+y = 10, x - y = 4  -> x=7, y=3, obj 10.
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	y := p.AddVar("y", rat(1, 1))
	p.AddRow("sum", []Term{{x, rat(1, 1)}, {y, rat(1, 1)}}, EQ, rat(10, 1))
	p.AddRow("diff", []Term{{x, rat(1, 1)}, {y, rat(-1, 1)}}, EQ, rat(4, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.X[0].Cmp(q(7, 1)) != 0 || sol.X[1].Cmp(q(3, 1)) != 0 {
		t.Errorf("x = %v,%v, want 7,3", sol.X[0], sol.X[1])
	}
}

func TestSolveRatGE(t *testing.T) {
	// min 2x+3y s.t. x+y >= 4, x >= 1 -> x=4,y=0? obj: prefer x (cost 2) => x=4, obj 8.
	p := NewProblem()
	x := p.AddVar("x", rat(2, 1))
	y := p.AddVar("y", rat(3, 1))
	p.AddRow("cover", []Term{{x, rat(1, 1)}, {y, rat(1, 1)}}, GE, rat(4, 1))
	p.AddRow("min-x", []Term{{x, rat(1, 1)}}, GE, rat(1, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(8, 1)) != 0 {
		t.Fatalf("got %v obj=%v, want optimal 8", sol.Status, sol.Objective)
	}
}

func TestSolveRatInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	p.AddRow("lo", []Term{{x, rat(1, 1)}}, GE, rat(5, 1))
	p.AddRow("hi", []Term{{x, rat(1, 1)}}, LE, rat(3, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveFloatInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	p.AddRow("lo", []Term{{x, rat(1, 1)}}, GE, rat(5, 1))
	p.AddRow("hi", []Term{{x, rat(1, 1)}}, LE, rat(3, 1))
	sol, err := solveFloat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status = %v, want infeasible", sol.Status)
	}
}

func TestSolveRatUnbounded(t *testing.T) {
	p := NewProblem()
	p.AddVar("x", rat(-1, 1))
	y := p.AddVar("y", rat(0, 1))
	p.AddRow("c", []Term{{y, rat(1, 1)}}, LE, rat(1, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Unbounded {
		t.Fatalf("status = %v, want unbounded", sol.Status)
	}
}

func TestSolveRatNegativeRHS(t *testing.T) {
	// min x s.t. -x <= -3 (i.e. x >= 3).
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	p.AddRow("c", []Term{{x, rat(-1, 1)}}, LE, rat(-3, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(3, 1)) != 0 {
		t.Fatalf("got %v obj=%v, want optimal 3", sol.Status, sol.Objective)
	}
}

func TestSolveRatDegenerate(t *testing.T) {
	// Beale's classic cycling example; Bland's rule must terminate.
	// min -0.75x4 + 150x5 - 0.02x6 + 6x7
	// s.t. 0.25x4 - 60x5 - 0.04x6 + 9x7 <= 0
	//      0.5x4 - 90x5 - 0.02x6 + 3x7 <= 0
	//      x6 <= 1
	// optimum -0.05.
	p := NewProblem()
	x4 := p.AddVar("x4", rat(-3, 4))
	x5 := p.AddVar("x5", rat(150, 1))
	x6 := p.AddVar("x6", rat(-1, 50))
	x7 := p.AddVar("x7", rat(6, 1))
	p.AddRow("r1", []Term{{x4, rat(1, 4)}, {x5, rat(-60, 1)}, {x6, rat(-1, 25)}, {x7, rat(9, 1)}}, LE, rat(0, 1))
	p.AddRow("r2", []Term{{x4, rat(1, 2)}, {x5, rat(-90, 1)}, {x6, rat(-1, 50)}, {x7, rat(3, 1)}}, LE, rat(0, 1))
	p.AddRow("r3", []Term{{x6, rat(1, 1)}}, LE, rat(1, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v", sol.Status)
	}
	if sol.Objective.Cmp(rat(-1, 20)) != 0 {
		t.Errorf("objective = %v, want -1/20", sol.Objective)
	}
}

func TestSolveRatRedundantRows(t *testing.T) {
	// Duplicate equality rows leave a basic artificial on a zero row;
	// eviction must cope.
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	y := p.AddVar("y", rat(2, 1))
	p.AddRow("e1", []Term{{x, rat(1, 1)}, {y, rat(1, 1)}}, EQ, rat(5, 1))
	p.AddRow("e2", []Term{{x, rat(2, 1)}, {y, rat(2, 1)}}, EQ, rat(10, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(5, 1)) != 0 {
		t.Fatalf("got %v obj=%v, want optimal 5 (all weight on x)", sol.Status, sol.Objective)
	}
}

func TestSolveRatZeroObjectiveFeasibility(t *testing.T) {
	// Pure feasibility problem: no objective, equality + capacity rows,
	// mirroring System (2) usage.
	p := NewProblem()
	a := p.AddVar("a", nil)
	b := p.AddVar("b", nil)
	p.AddRow("complete", []Term{{a, rat(1, 1)}, {b, rat(1, 1)}}, EQ, rat(1, 1))
	p.AddRow("cap-a", []Term{{a, rat(3, 1)}}, LE, rat(2, 1))
	p.AddRow("cap-b", []Term{{b, rat(4, 1)}}, LE, rat(2, 1))
	sol, err := SolveRat(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal {
		t.Fatalf("status = %v, want optimal (feasible)", sol.Status)
	}
	sum := sol.X[0].Add(sol.X[1])
	if sum.Cmp(q(1, 1)) != 0 {
		t.Errorf("a+b = %v, want 1", sum)
	}
}

func TestAddRowPanicsOnBadColumn(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for out-of-range column")
		}
	}()
	p := NewProblem()
	p.AddRow("bad", []Term{{5, rat(1, 1)}}, LE, rat(1, 1))
}

func TestDumpMentionsNamesAndSenses(t *testing.T) {
	p := buildSimple()
	d := p.Dump()
	for _, want := range []string{"min", "x", "y", "<=", "[c3]"} {
		if !containsStr(d, want) {
			t.Errorf("dump missing %q:\n%s", want, d)
		}
	}
}

func containsStr(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 || indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

// randomFeasibleProblem builds a random LP that is feasible by construction:
// constraints are A x <= A x0 + slack for a random non-negative x0.
func randomFeasibleProblem(rng *rand.Rand, nVars, nRows int) *Problem {
	p := NewProblem()
	for j := 0; j < nVars; j++ {
		p.AddVar("", rat(int64(rng.Intn(21)-10), 1))
	}
	x0 := make([]*big.Rat, nVars)
	for j := range x0 {
		x0[j] = rat(int64(rng.Intn(5)), 1)
	}
	for i := 0; i < nRows; i++ {
		terms := make([]Term, 0, nVars)
		lhs := new(big.Rat)
		for j := 0; j < nVars; j++ {
			c := int64(rng.Intn(11) - 5)
			if c == 0 {
				continue
			}
			terms = append(terms, Term{j, rat(c, 1)})
			lhs.Add(lhs, new(big.Rat).Mul(rat(c, 1), x0[j]))
		}
		slack := rat(int64(rng.Intn(10)), 1)
		p.AddRow("", terms, LE, new(big.Rat).Add(lhs, slack))
	}
	// Bound the feasible region so the problem is never unbounded.
	for j := 0; j < nVars; j++ {
		p.AddRow("", []Term{{j, rat(1, 1)}}, LE, rat(100, 1))
	}
	return p
}

// TestRatFloatAgree cross-checks the two solvers on random feasible bounded
// problems.
func TestRatFloatAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for it := 0; it < 50; it++ {
		p := randomFeasibleProblem(rng, 2+rng.Intn(5), 2+rng.Intn(6))
		rs, err := SolveRat(p)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		fs, err := solveFloat(p)
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		if rs.Status != Optimal || fs.Status != Optimal {
			t.Fatalf("iter %d: statuses %v / %v, want optimal (feasible bounded by construction)",
				it, rs.Status, fs.Status)
		}
		want, _ := rs.Objective.Float64()
		if math.Abs(fs.Objective-want) > 1e-6*(1+math.Abs(want)) {
			t.Errorf("iter %d: float obj %v, rat obj %v", it, fs.Objective, want)
		}
	}
}

// TestRatSolutionSatisfiesConstraints verifies primal feasibility of the
// returned point exactly, as a property over random problems.
func TestRatSolutionSatisfiesConstraints(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	check := func(seed uint32) bool {
		r := rand.New(rand.NewSource(int64(seed) + rng.Int63()))
		p := randomFeasibleProblem(r, 2+r.Intn(4), 2+r.Intn(5))
		sol, err := SolveRat(p)
		if err != nil || sol.Status != Optimal {
			return false
		}
		for _, row := range p.rows {
			var lhs exact.Q
			for _, tm := range row.terms {
				lhs = lhs.Add(tm.Coef.Mul(sol.X[tm.Col]))
			}
			switch row.sense {
			case LE:
				if lhs.Cmp(row.rhs) > 0 {
					return false
				}
			case GE:
				if lhs.Cmp(row.rhs) < 0 {
					return false
				}
			case EQ:
				if lhs.Cmp(row.rhs) != 0 {
					return false
				}
			}
		}
		for _, v := range sol.X {
			if v.Sign() < 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSolveRatSmall(b *testing.B) {
	p := buildSimple()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := SolveRat(p); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSolveFloatMedium(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := randomFeasibleProblem(rng, 40, 60)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := solveFloat(p); err != nil {
			b.Fatal(err)
		}
	}
}
