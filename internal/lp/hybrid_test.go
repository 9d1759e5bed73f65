package lp

import (
	"math/big"
	"math/rand"
	"testing"

	"divflow/internal/exact"
)

// checkAgainstRat solves p with both engines and requires identical status
// and exactly identical objectives. The hybrid engine solves p twice: cold,
// and handed a stale basis — the one the float simplex ends on for p with
// every right-hand side raised — which it must verify or reject without
// changing the answer. It returns the cold and the stale-basis solutions.
func checkAgainstRat(t *testing.T, p *Problem, label string) (hs, ws *Solution) {
	t.Helper()
	rs, err := SolveRat(p)
	if err != nil {
		t.Fatalf("%s: rat: %v", label, err)
	}
	hs = matchRat(t, p, nil, rs, label)
	raised := withRHS(p, func(i int, b exact.Q) exact.Q { return b.Add(exact.Int(int64(1 + i%3))) })
	var stale *Basis
	if fs, err := solveFloat(raised); err == nil { // a stalled float pass hands no basis
		stale = fs.Basis
	}
	ws = matchRat(t, p, stale, rs, label+" (stale basis)")
	if hs.Status == Optimal && hs.Method == MethodFloatVerified {
		// The basis that proved it, factored again: it must reproduce the
		// right-hand side exactly and hold the solution's values.
		sf, err := newStdForm(p)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		basis := runFloat(sf).basis // the basis that was verified: the engine's float pass is deterministic
		f := checkFactor(t, sf, basis, sf.rhs, sf.rhs, label)
		if f == nil || len(f.bumpRows) != hs.Kernel {
			t.Fatalf("%s: the verified basis factors to %v, the solution reports kernel %d", label, f, hs.Kernel)
		}
		for k, v := range f.solve(sf.rhs) {
			if c := basis[k]; c < p.NumVars() && v.Cmp(hs.X[c]) != 0 {
				t.Fatalf("%s: basic column %d is %v in the factor, %v in the solution", label, c, v, hs.X[c])
			}
		}
	}
	return hs, ws
}

// matchRat solves p with SolveHybridWarm handed warm and requires SolveRat's
// status rs.Status and exact objective, at an exactly feasible point.
func matchRat(t *testing.T, p *Problem, warm *Basis, rs *Solution, label string) *Solution {
	t.Helper()
	hs, err := SolveHybridWarm(p, warm)
	if err != nil {
		t.Fatalf("%s: hybrid: %v", label, err)
	}
	if hs.Status != rs.Status {
		t.Fatalf("%s: hybrid status %v (method %v), rat status %v", label, hs.Status, hs.Method, rs.Status)
	}
	if hs.Status == Optimal {
		if hs.Objective.Cmp(rs.Objective) != 0 {
			t.Fatalf("%s: hybrid objective %v (method %v) != rat %v",
				label, hs.Objective.RatString(), hs.Method, rs.Objective.RatString())
		}
		checkFeasible(t, p, hs, label)
	}
	return hs
}

// checkFeasible verifies the returned point satisfies every constraint
// exactly.
func checkFeasible(t *testing.T, p *Problem, sol *Solution, label string) {
	t.Helper()
	for _, v := range sol.X {
		if v.Sign() < 0 {
			t.Fatalf("%s: negative primal value %v", label, v)
		}
	}
	for _, row := range p.rows {
		var lhs exact.Q
		for _, tm := range row.terms {
			lhs = lhs.Add(tm.Coef.Mul(sol.X[tm.Col]))
		}
		c := lhs.Cmp(row.rhs)
		switch row.sense {
		case LE:
			if c > 0 {
				t.Fatalf("%s: row %q violated: %v > %v", label, row.name, lhs, row.rhs)
			}
		case GE:
			if c < 0 {
				t.Fatalf("%s: row %q violated: %v < %v", label, row.name, lhs, row.rhs)
			}
		case EQ:
			if c != 0 {
				t.Fatalf("%s: row %q violated: %v != %v", label, row.name, lhs, row.rhs)
			}
		}
	}
}

// randomProblem builds a random LP of one of four flavours: feasible
// bounded, infeasible, unbounded, or heavily degenerate.
func randomProblem(rng *rand.Rand) (*Problem, string) {
	switch rng.Intn(4) {
	case 0:
		return randomFeasibleProblem(rng, 2+rng.Intn(5), 2+rng.Intn(6)), "feasible"
	case 1:
		// Feasible core plus a contradictory pair on one variable.
		p := randomFeasibleProblem(rng, 2+rng.Intn(4), 1+rng.Intn(4))
		j := rng.Intn(p.NumVars())
		lo := int64(5 + rng.Intn(5))
		p.AddRow("contradict-lo", []Term{{j, rat(1, 1)}}, GE, rat(lo, 1))
		p.AddRow("contradict-hi", []Term{{j, rat(1, 1)}}, LE, rat(lo-1-int64(rng.Intn(3)), 1))
		return p, "infeasible"
	case 2:
		// A variable with negative cost constrained only from below.
		p := NewProblem()
		free := p.AddVar("down", rat(-1-int64(rng.Intn(3)), 1))
		for i := 0; i < 1+rng.Intn(3); i++ {
			x := p.AddVar("", rat(int64(rng.Intn(5)), 1))
			p.AddRow("", []Term{{x, rat(1, 1)}}, LE, rat(int64(1+rng.Intn(9)), 1))
		}
		p.AddRow("floor", []Term{{free, rat(1, 1)}}, GE, rat(int64(rng.Intn(3)), 1))
		return p, "unbounded"
	default:
		// Degenerate: many tied rows through the origin.
		p := NewProblem()
		n := 3 + rng.Intn(4)
		cols := make([]int, n)
		for j := range cols {
			cols[j] = p.AddVar("", rat(int64(rng.Intn(7)-3), 1))
		}
		for i := 0; i < 4+rng.Intn(6); i++ {
			var terms []Term
			for _, c := range cols {
				if rng.Intn(2) == 0 {
					terms = append(terms, Term{c, rat(int64(1+rng.Intn(3)), 1)})
				}
			}
			if len(terms) == 0 {
				terms = append(terms, Term{cols[0], rat(1, 1)})
			}
			p.AddRow("", terms, LE, rat(0, 1))
		}
		p.AddRow("cap", []Term{{cols[0], rat(1, 1)}}, LE, rat(int64(rng.Intn(4)), 1))
		return p, "degenerate"
	}
}

// TestHybridDifferential is the differential property test of the hybrid
// engine: across random feasible, infeasible, unbounded and degenerate LPs,
// SolveHybrid must match SolveRat's status and exact objective bit for bit,
// cold and handed a stale basis. The stale bases must reach both ends: some
// verify, and some are rejected on an LP only the exact simplex decides.
func TestHybridDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	flavours := map[string]int{}
	methods := map[Method]int{}
	staleMethods := map[Method]int{}
	for it := 0; it < 120; it++ {
		p, flavour := randomProblem(rng)
		hs, ws := checkAgainstRat(t, p, flavour)
		flavours[flavour]++
		methods[hs.Method]++
		staleMethods[ws.Method]++
	}
	for _, f := range []string{"feasible", "infeasible", "unbounded", "degenerate"} {
		if flavours[f] == 0 {
			t.Errorf("flavour %s never generated", f)
		}
	}
	if methods[MethodFloatVerified] == 0 {
		t.Errorf("float-verified fast path never taken; methods: %v", methods)
	}
	if staleMethods[MethodWarmVerified] == 0 || staleMethods[MethodExact] == 0 {
		t.Errorf("stale bases never verified or never fell back to the exact simplex; methods: %v", staleMethods)
	}
	t.Logf("flavours: %v, methods: %v, stale-basis methods: %v", flavours, methods, staleMethods)
}

// TestHybridFallbackPath drives SolveHybrid onto its full-fallback path with
// an instance whose feasibility is decided by a quantity far below float64
// resolution: the float basis fails exact verification and the cold exact
// simplex decides. A second instance has vertices separated by less than the
// float solver can see; whichever basis the float pass ends on, it is either
// verified exactly optimal or rejected for the cold simplex — there is no
// path that finishes from an unverified basis.
func TestHybridFallbackPath(t *testing.T) {
	tiny := new(big.Rat).SetFrac(big.NewInt(1), new(big.Int).Exp(big.NewInt(2), big.NewInt(80), nil))

	// x >= 1, x <= 1 - 2^-80: exactly infeasible, but floats see x = 1 as
	// feasible, so the float basis fails exact verification and the exact
	// simplex must decide. The statuses still agree — that is the point.
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	hi := new(big.Rat).Sub(rat(1, 1), tiny)
	p.AddRow("lo", []Term{{x, rat(1, 1)}}, GE, rat(1, 1))
	p.AddRow("hi", []Term{{x, rat(1, 1)}}, LE, hi)
	hs, _ := checkAgainstRat(t, p, "sub-float-infeasible")
	if hs.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", hs.Status)
	}
	if hs.Method != MethodExact {
		t.Errorf("method %v, want the exact fallback", hs.Method)
	}

	// min -x - y with two vertices whose objectives differ by ~2^-80: the
	// float solver can land on (and declare optimal) the exactly-worse one;
	// every path must still return the exact optimum.
	q := NewProblem()
	qx := q.AddVar("x", rat(-1, 1))
	qy := q.AddVar("y", rat(-1, 1))
	onePlus := new(big.Rat).Add(rat(1, 1), tiny)
	q.AddRow("r1", []Term{{qx, rat(1, 1)}, {qy, onePlus}}, LE, rat(1, 1))
	q.AddRow("r2", []Term{{qx, rat(1, 1)}, {qy, rat(1, 1)}}, LE, rat(1, 1))
	checkAgainstRat(t, q, "sub-float-vertex")
}

// TestHybridCertifiedInfeasible: a plainly infeasible LP is decided by the
// float phase 1 plus an exact Farkas certificate, with no exact pivoting.
func TestHybridCertifiedInfeasible(t *testing.T) {
	p := NewProblem()
	x := p.AddVar("x", rat(1, 1))
	p.AddRow("lo", []Term{{x, rat(1, 1)}}, GE, rat(5, 1))
	p.AddRow("hi", []Term{{x, rat(1, 1)}}, LE, rat(3, 1))
	sol, err := SolveHybrid(p)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Infeasible {
		t.Fatalf("status %v, want infeasible", sol.Status)
	}
	if sol.Method != MethodFloatVerified {
		t.Errorf("method %v, want float-verified (Farkas certificate)", sol.Method)
	}
}

// TestHybridMatchesRatOnGoldenShapes re-runs the package's hand-written
// cases through the hybrid engine.
func TestHybridMatchesRatOnGoldenShapes(t *testing.T) {
	cases := map[string]*Problem{}
	cases["classic"] = buildSimple()
	{
		p := NewProblem()
		x := p.AddVar("x", rat(1, 1))
		y := p.AddVar("y", rat(1, 1))
		p.AddRow("sum", []Term{{x, rat(1, 1)}, {y, rat(1, 1)}}, EQ, rat(10, 1))
		p.AddRow("diff", []Term{{x, rat(1, 1)}, {y, rat(-1, 1)}}, EQ, rat(4, 1))
		cases["equality"] = p
	}
	{
		p := NewProblem()
		x4 := p.AddVar("x4", rat(-3, 4))
		x5 := p.AddVar("x5", rat(150, 1))
		x6 := p.AddVar("x6", rat(-1, 50))
		x7 := p.AddVar("x7", rat(6, 1))
		p.AddRow("r1", []Term{{x4, rat(1, 4)}, {x5, rat(-60, 1)}, {x6, rat(-1, 25)}, {x7, rat(9, 1)}}, LE, rat(0, 1))
		p.AddRow("r2", []Term{{x4, rat(1, 2)}, {x5, rat(-90, 1)}, {x6, rat(-1, 50)}, {x7, rat(3, 1)}}, LE, rat(0, 1))
		p.AddRow("r3", []Term{{x6, rat(1, 1)}}, LE, rat(1, 1))
		cases["beale"] = p
	}
	{
		p := NewProblem()
		x := p.AddVar("x", rat(1, 1))
		y := p.AddVar("y", rat(2, 1))
		p.AddRow("e1", []Term{{x, rat(1, 1)}, {y, rat(1, 1)}}, EQ, rat(5, 1))
		p.AddRow("e2", []Term{{x, rat(2, 1)}, {y, rat(2, 1)}}, EQ, rat(10, 1))
		cases["redundant"] = p
	}
	for name, p := range cases {
		checkAgainstRat(t, p, name)
	}
}

// floatBasis is the basis the float simplex ends on for p: what a caller that
// filled a FloatTableau with p's rows is handed by Minimize.
func floatBasis(t *testing.T, p *Problem) *Basis {
	t.Helper()
	fs, err := solveFloat(p)
	if err != nil {
		t.Fatal(err)
	}
	return fs.Basis
}

// withRHS builds p anew, row i's right-hand side replaced by rhs(i, b_i).
func withRHS(p *Problem, rhs func(i int, b exact.Q) exact.Q) *Problem {
	out := NewProblem()
	for j, c := range p.objective {
		name := "" // varNames stops at the last named variable
		if j < len(p.varNames) {
			name = p.varNames[j]
		}
		out.AddVarQ(name, c)
	}
	for i, r := range p.rows {
		out.AddRowQ(r.name, r.terms, r.sense, rhs(i, r.rhs))
	}
	return out
}

// TestWarmStartRHSPerturbation: the basis of one problem handed to a solve of
// the same rows under another right-hand side. Small RHS perturbations keep
// the optimal basis, so the warm path must verify it with zero pivots; large
// ones must still produce the exact optimum.
func TestWarmStartRHSPerturbation(t *testing.T) {
	p := buildSimple() // min -3x -5y; rows x<=4, 2y<=12, 3x+2y<=18
	base := floatBasis(t, p)
	binding := func(to exact.Q) *Problem {
		return withRHS(p, func(i int, b exact.Q) exact.Q {
			if i == 2 {
				return to
			}
			return b
		})
	}

	// Perturb the binding capacity 18 -> 37/2. Same optimal basis.
	q := binding(exact.New(37, 2))
	warm, err := SolveHybridWarm(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Status != Optimal {
		t.Fatalf("warm status %v", warm.Status)
	}
	if warm.Method != MethodWarmVerified {
		t.Errorf("method %v, want warm-verified", warm.Method)
	}
	ref, err := SolveRat(q)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Objective.Cmp(ref.Objective) != 0 {
		t.Errorf("warm objective %v != rat %v", warm.Objective.RatString(), ref.Objective.RatString())
	}

	// A drastic perturbation that changes the optimal basis must still be
	// exact, whichever path it takes.
	q2 := binding(exact.New(1, 2))
	warm2, err := SolveHybridWarm(q2, base)
	if err != nil {
		t.Fatal(err)
	}
	ref2, err := SolveRat(q2)
	if err != nil {
		t.Fatal(err)
	}
	if warm2.Status != ref2.Status || warm2.Objective.Cmp(ref2.Objective) != 0 {
		t.Errorf("perturbed warm solve: %v %v (method %v), want %v %v",
			warm2.Status, warm2.Objective.RatString(), warm2.Method, ref2.Status, ref2.Objective.RatString())
	}
	if warm2.Method == MethodWarmVerified {
		t.Errorf("the basis of 3x+2y<=18 verified as optimal under 3x+2y<=1/2")
	}
}

// TestWarmStartRandom: random feasible problems re-solved after random RHS
// loosening; warm solves must match cold exact solves bit for bit.
func TestWarmStartRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	warmHits := 0
	for it := 0; it < 40; it++ {
		p := randomFeasibleProblem(rng, 2+rng.Intn(4), 2+rng.Intn(5))
		base, err := SolveHybrid(p)
		if err != nil {
			t.Fatal(err)
		}
		if base.Status != Optimal {
			t.Fatalf("iter %d: base status %v (feasible bounded by construction)", it, base.Status)
		}
		q := withRHS(p, func(_ int, b exact.Q) exact.Q {
			if rng.Intn(3) == 0 {
				return b.Add(exact.Int(int64(rng.Intn(4))))
			}
			return b
		})
		warm, err := SolveHybridWarm(q, floatBasis(t, p))
		if err != nil {
			t.Fatal(err)
		}
		ref, err := SolveRat(q)
		if err != nil {
			t.Fatal(err)
		}
		if warm.Status != ref.Status {
			t.Fatalf("iter %d: warm status %v != %v", it, warm.Status, ref.Status)
		}
		if warm.Status == Optimal && warm.Objective.Cmp(ref.Objective) != 0 {
			t.Fatalf("iter %d: warm objective %v (method %v) != %v",
				it, warm.Objective.RatString(), warm.Method, ref.Objective.RatString())
		}
		if warm.Method == MethodWarmVerified {
			warmHits++
		}
	}
	if warmHits == 0 {
		t.Error("warm basis never reused across 40 perturbed re-solves")
	}
	t.Logf("warm hits: %d/40", warmHits)
}

// TestWarmStartIncompatibleBasisIgnored: a basis from a different shape must
// be ignored, not crash or corrupt the result.
func TestWarmStartIncompatibleBasisIgnored(t *testing.T) {
	base := floatBasis(t, buildSimple())
	q := NewProblem()
	x := q.AddVar("x", rat(1, 1))
	q.AddRow("r", []Term{{x, rat(1, 1)}}, GE, rat(2, 1))
	sol, err := SolveHybridWarm(q, base)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Status != Optimal || sol.Objective.Cmp(rat(2, 1)) != 0 {
		t.Fatalf("got %v %v, want optimal 2", sol.Status, sol.Objective)
	}
	if sol.Method == MethodWarmVerified {
		t.Errorf("incompatible basis reported as warm start (%v)", sol.Method)
	}
}
