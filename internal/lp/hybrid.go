package lp

import (
	"slices"

	"divflow/internal/exact"
)

// Method reports which path of the hybrid engine produced a solution. Every
// path ends in exact rational arithmetic, so the status and optimal
// objective are exactly those SolveRat would report (degenerate instances
// may surface a different, equally optimal vertex); the method only
// reflects how much exact work was needed.
type Method int

const (
	// MethodExact is the full two-phase exact simplex (SolveRat, or the
	// hybrid driver's fallback when no basis verified).
	MethodExact Method = iota
	// MethodFloatVerified means the float64 simplex proposed a basis (or an
	// infeasibility certificate) that exact refactorization verified — the
	// common fast path: no exact pivots at all.
	MethodFloatVerified
	// MethodWarmVerified means the basis the caller handed over — the one its
	// own float solve of the same rows ended on — was exactly optimal:
	// verified with zero pivots, the engine's float pass never run.
	MethodWarmVerified
)

// String implements fmt.Stringer.
func (m Method) String() string {
	switch m {
	case MethodExact:
		return "exact"
	case MethodFloatVerified:
		return "float-verified"
	case MethodWarmVerified:
		return "warm-verified"
	default:
		return "unknown"
	}
}

// Basis is the basis a float solve ended on (FloatSolution.Basis). It is
// opaque: a caller that filled a FloatTableau hands it to SolveHybridWarm
// with the Problem of the same rows, or to ExactFill.Solve with the same rows
// filled exactly — either's standard form numbers the columns as the tableau
// did — and the solver checks it exactly instead of running a float simplex
// of its own. The basis is only ever verified, never pivoted
// from: a stale or mismatched one costs the failed check, and correctness
// never depends on it.
type Basis struct {
	m, numCols, artStart int
	cols                 []int
}

// compatible reports whether the basis indexes the same standard-form shape.
func (b *Basis) compatible(sf *stdForm) bool {
	return b != nil && b.m == sf.m && b.numCols == sf.numCols && b.artStart == sf.artStart
}

// SolveHybrid solves the problem exactly, using the float64 simplex to guess
// the optimal basis and exact rational refactorization to verify it:
//
//  1. The float simplex runs to (approximate) optimality.
//  2. Its final basis is refactorized exactly; exact primal feasibility
//     and exact reduced-cost optimality are checked. If both hold, the exact
//     solution is read off the factorization — no exact pivots at all.
//  3. A float "infeasible" outcome is accepted only with an exact Farkas
//     certificate derived from the phase-1 dual vector.
//  4. On any check failure, or a float outcome of unbounded or stalled, the
//     cold two-phase exact simplex decides — so the status and exact optimal
//     objective always equal SolveRat's (on degenerate instances the
//     returned vertex may be a different, equally optimal one).
func SolveHybrid(p *Problem) (*Solution, error) {
	return SolveHybridWarm(p, nil)
}

// SolveHybridWarm is SolveHybrid handed the basis a float solve of the same
// rows already ended on. A compatible basis that is exactly optimal settles
// the solve with one exact refactorization and zero pivots, in place of the
// engine's own float pass (MethodWarmVerified). A stale one costs only that
// failed check: SolveHybrid's steps then run as if no basis had been handed,
// except that a float basis equal to the rejected one is not checked twice.
// Incompatible bases are ignored outright.
func SolveHybridWarm(p *Problem, warm *Basis) (*Solution, error) {
	sf, err := newStdForm(p)
	if err != nil {
		return nil, err
	}
	return withRat(solveHybrid(sf, warm))
}

// solveHybrid is SolveHybridWarm on a filled standard form.
func solveHybrid(sf *stdForm, warm *Basis) (*Solution, error) {
	warmRejected := false
	if warm.compatible(sf) && sf.validBasis(warm.cols) {
		if sol := tryBasisExact(sf, warm.cols); sol != nil {
			sol.Method = MethodWarmVerified
			return sol, nil
		}
		warmRejected = true
	}
	run := runFloat(sf)
	var sol *Solution
	var err error
	if sf.validBasis(run.basis) {
		switch run.status {
		case Optimal:
			// A float basis equal to the rejected warm one fails the same check.
			if !warmRejected || !slices.Equal(run.basis, warm.cols) {
				sol = tryBasisExact(sf, run.basis)
			}
		case Infeasible:
			sol = certifyInfeasible(sf, run.basis)
		}
	}
	run.release()
	if sol != nil {
		sol.Method = MethodFloatVerified
		return sol, nil
	}
	// Unbounded, stalled, or failed verification: the cold exact simplex.
	if sol, err = solveRatCold(sf); err != nil {
		return nil, err
	}
	sol.Method = MethodExact
	return sol, nil
}

// tryBasisExact refactorizes the candidate basis over the rationals and
// returns the exact optimal solution when the basis is exactly primal
// feasible and exactly dual optimal (all reduced costs >= 0), nil otherwise.
// Artificial columns may sit in the basis only at value zero (redundant
// rows).
func tryBasisExact(sf *stdForm, basis []int) *Solution {
	sf.columns()
	f := factorize(sf, basis)
	if f == nil {
		return nil
	}
	xB := f.solve(sf.rhs)
	for k, v := range xB {
		if v.Sign() < 0 {
			return nil // not primal feasible
		}
		if basis[k] >= sf.artStart && v.Sign() != 0 {
			return nil // an artificial carries value: not a solution of p
		}
	}
	cB := make([]exact.Q, sf.m)
	for k, c := range basis {
		cB[k] = sf.cost[c]
	}
	y := f.solveT(cB)
	inBasis := make([]bool, sf.numCols)
	for _, c := range basis {
		inBasis[c] = true
	}
	for j := 0; j < sf.artStart; j++ {
		if inBasis[j] {
			continue // basic columns have reduced cost exactly 0
		}
		if sf.cost[j].Cmp(sf.colDot(y, j)) < 0 {
			return nil // not dual optimal
		}
	}
	x := make([]exact.Q, sf.numVars)
	var obj exact.Q
	for k, c := range basis {
		if c < sf.numVars {
			x[c] = xB[k]
		}
		if cB[k].Sign() != 0 {
			obj = obj.Add(cB[k].Mul(xB[k]))
		}
	}
	return &Solution{Status: Optimal, ObjectiveQ: obj, X: x, Kernel: len(f.bumpRows)}
}

// certifyInfeasible checks, exactly, whether the dual vector of the float
// phase-1 basis is a Farkas certificate of infeasibility: y with yᵀA_j <= 0
// for every real (non-artificial) column and yᵀb > 0. If it is, no x >= 0
// satisfies Ax = b, because 0 < yᵀb = yᵀAx = Σ_j (yᵀA_j) x_j <= 0 would be a
// contradiction. It returns the Infeasible solution then, nil otherwise.
func certifyInfeasible(sf *stdForm, basis []int) *Solution {
	hasArt := false
	for _, c := range basis {
		if c >= sf.artStart {
			hasArt = true
			break
		}
	}
	if !hasArt {
		return nil // no artificial left: nothing suggests infeasibility
	}
	sf.columns()
	f := factorize(sf, basis)
	if f == nil {
		return nil
	}
	cB := make([]exact.Q, sf.m)
	for k, c := range basis {
		if c >= sf.artStart {
			cB[k] = exact.Int(1)
		}
	}
	y := f.solveT(cB)
	var yb exact.Q
	for i, b := range sf.rhs {
		if y[i].Sign() != 0 && b.Sign() != 0 {
			yb = yb.Add(y[i].Mul(b))
		}
	}
	if yb.Sign() <= 0 {
		return nil
	}
	for j := 0; j < sf.artStart; j++ {
		if sf.colDot(y, j).Sign() > 0 {
			return nil
		}
	}
	return &Solution{Status: Infeasible, Kernel: len(f.bumpRows)}
}
