// Package lp provides linear-programming solvers used by the offline
// scheduling algorithms of Legrand, Su and Vivien (RR-5386).
//
// Two exact solvers are provided over the same Problem representation, and
// the float64 simplex the first is built on. Everything exact is exact.Q:
// a rational in two machine words that moves to math/big by itself only
// when a value outgrows them. *big.Rat appears only in the converting
// wrappers AddVar/AddRow and in Solution.Objective, which the Problem entry
// points write.
//
//   - SolveHybrid (and SolveHybridWarm): the default exact engine. A
//     float64 simplex guesses the optimal basis, which is then exactly
//     refactorized and verified (primal feasibility, reduced-cost
//     optimality, or a Farkas infeasibility certificate). The
//     factorization peels the basis's singleton columns and rows into a
//     pivot order — most of a scheduling basis: slacks, artificials, rows
//     with one basic fraction — and eliminates only the block that is left
//     (basisFactor), so verifying costs little more than reading the basis. On
//     any verification failure the exact simplex finishes the job, so the
//     status and exact optimal objective always equal SolveRat's. The paper's
//     polynomial-time optimality arguments rely on exact rational
//     arithmetic (the binary search over milestones must terminate on exact
//     values), and this engine preserves that exactness while paying
//     rational-arithmetic prices only to check, not to search.
//   - SolveRat: the exact two-phase primal simplex, with Dantzig pricing
//     degrading to Bland's anti-cycling rule under sustained degeneracy. The
//     reference implementation the hybrid engine falls back to.
//   - FloatTableau: the float64 tableau simplex with epsilon tolerances. The
//     hybrid engine loads it from a Problem's standard form; a caller whose
//     answer is no part of a proof — the probes of core's milestone search,
//     and the large-scale estimates built on them — fills one directly
//     (Reset, Set, SetRHS, Minimize) and reuses it, with no Problem and no
//     exact coefficient in between. Both ways number the columns through one
//     function and pivot in one loop, so the basis a direct fill ends on can
//     be handed to SolveHybridWarm with the Problem of the same rows and
//     verified there.
//   - ExactFill: the exact twin of a directly filled FloatTableau (Reset,
//     Set, SetRHS, SetCost, then Solve). A caller that knows its rows in
//     order writes the standard form the hybrid engine solves straight from
//     them, with no Problem in between — core's range LPs do, and hand Solve
//     the basis their probe's tableau ended on. A Problem's rows reach the
//     same fill (Problem.Fill), so a standard form has one construction.
//   - Workspace: one FloatTableau and one ExactFill, with the column view
//     and factorization the verifier builds over the fill, all refilled in
//     place, and the caller's Layout kept with them. A milestone search takes
//     one (TakeWorkspace) for its probes and exact solves and hands it back
//     (ReturnWorkspace); the package keeps one spare of at most 2 MiB between
//     searches, which SolveHybrid takes too.
//
// Problems are stated in the general form
//
//	minimize  c.x   subject to   row_k . x  (<=|=|>=)  b_k,   x >= 0.
//
// Variables are implicitly non-negative; bounded or free variables must be
// modelled with explicit rows or variable splitting by the caller (the
// scheduling LPs only ever need non-negative variables).
package lp

import (
	"fmt"
	"math/big"
	"strings"

	"divflow/internal/exact"
)

// Sense is the comparison direction of a constraint row.
type Sense int

// Constraint senses.
const (
	LE Sense = iota // row . x <= rhs
	EQ              // row . x == rhs
	GE              // row . x >= rhs
)

// String returns the conventional symbol for the sense.
func (s Sense) String() string {
	switch s {
	case LE:
		return "<="
	case EQ:
		return "=="
	case GE:
		return ">="
	default:
		return fmt.Sprintf("Sense(%d)", int(s))
	}
}

// Term is one sparse entry of a row or of the objective: Coef * x[Col].
type Term struct {
	Col  int
	Coef *big.Rat
}

// TermQ is a Term whose coefficient is an exact.Q: what AddRowQ takes.
type TermQ struct {
	Col  int
	Coef exact.Q
}

// row is a single linear constraint.
type row struct {
	terms []TermQ
	sense Sense
	rhs   exact.Q
	name  string // optional label used in error messages and dumps
}

// Problem is a linear program in general form. The zero value is an empty
// problem; add variables with AddVar and constraints with AddRow.
type Problem struct {
	varNames  []string  // up to the last named variable; "" for no name
	objective []exact.Q // dense, one per variable
	rows      []row
}

// NewProblem returns an empty minimization problem.
func NewProblem() *Problem {
	return &Problem{}
}

// AddVar appends a new non-negative variable with the given objective
// coefficient (nil reads as 0) and returns its column index. The name is only
// used for debugging output and may be empty.
func (p *Problem) AddVar(name string, objCoef *big.Rat) int {
	return p.AddVarQ(name, exact.FromRat(objCoef))
}

// AddVarQ is AddVar with an exact.Q coefficient.
func (p *Problem) AddVarQ(name string, objCoef exact.Q) int {
	if name != "" {
		for len(p.varNames) < len(p.objective) {
			p.varNames = append(p.varNames, "")
		}
		p.varNames = append(p.varNames, name)
	}
	p.objective = append(p.objective, objCoef)
	return len(p.objective) - 1
}

// NumVars reports the number of variables added so far.
func (p *Problem) NumVars() int { return len(p.objective) }

// NumRows reports the number of constraint rows added so far.
func (p *Problem) NumRows() int { return len(p.rows) }

// AddRow appends a constraint. Terms may mention a column at most once;
// coefficients are copied, so the caller may reuse the backing rationals.
func (p *Problem) AddRow(name string, terms []Term, sense Sense, rhs *big.Rat) {
	q := make([]TermQ, len(terms))
	for k, t := range terms {
		q[k] = TermQ{Col: t.Col, Coef: exact.FromRat(t.Coef)}
	}
	p.AddRowQ(name, q, sense, exact.FromRat(rhs))
}

// AddRowQ is AddRow with exact.Q coefficients. The terms are copied, so the
// caller may reuse the slice.
func (p *Problem) AddRowQ(name string, terms []TermQ, sense Sense, rhs exact.Q) {
	kept := make([]TermQ, 0, len(terms))
	for _, t := range terms {
		if t.Col < 0 || t.Col >= len(p.objective) {
			panic(fmt.Sprintf("lp: row %q references unknown column %d", name, t.Col))
		}
		if t.Coef.Sign() != 0 {
			kept = append(kept, t)
		}
	}
	p.rows = append(p.rows, row{terms: kept, sense: sense, rhs: rhs, name: name})
}

// Status reports the outcome of a solve.
type Status int

// Solver outcomes.
const (
	Optimal Status = iota
	Infeasible
	Unbounded
)

// String implements fmt.Stringer.
func (s Status) String() string {
	switch s {
	case Optimal:
		return "optimal"
	case Infeasible:
		return "infeasible"
	case Unbounded:
		return "unbounded"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Solution is the result of an exact solve.
type Solution struct {
	Status Status
	// ObjectiveQ is the optimal objective, valid when Status == Optimal;
	// Objective is the same value as a *big.Rat, written by the Problem
	// entry points (SolveRat, SolveHybrid, SolveHybridWarm) alone — an
	// ExactFill's caller computes in exact.Q and reads ObjectiveQ.
	ObjectiveQ exact.Q
	Objective  *big.Rat
	X          []exact.Q // primal values, len == NumVars, valid when Optimal
	// Method reports which hybrid-engine path produced the result.
	Method Method
	// Kernel is the number of rows of the basis the factorization that proved
	// the result had to eliminate: what singleton peeling left (see
	// basisFactor). 0 when the basis was a permuted triangle, and on the
	// exact-simplex paths, which factor nothing. Observational only.
	Kernel int
}

// FloatSolution is the result of a float64 solve. Status and Objective are
// approximate; Basis is the basis the simplex ended on, which SolveHybridWarm
// verifies exactly on the Problem of the same rows.
type FloatSolution struct {
	Status    Status
	Objective float64
	Basis     *Basis
}

// withRat writes an optimal solution's objective as a *big.Rat, for the
// Problem entry points.
func withRat(sol *Solution, err error) (*Solution, error) {
	if err == nil && sol.Status == Optimal {
		sol.Objective = sol.ObjectiveQ.Rat()
	}
	return sol, err
}

// Dump renders the problem in a human-readable form, for tests and debugging.
func (p *Problem) Dump() string {
	var b strings.Builder
	b.WriteString("min ")
	first := true
	for j, c := range p.objective {
		if c.Sign() == 0 {
			continue
		}
		if !first {
			b.WriteString(" + ")
		}
		first = false
		fmt.Fprintf(&b, "%s*%s", c, p.varName(j))
	}
	if first {
		b.WriteString("0")
	}
	b.WriteString("\n")
	for _, r := range p.rows {
		for i, t := range r.terms {
			if i > 0 {
				b.WriteString(" + ")
			}
			fmt.Fprintf(&b, "%s*%s", t.Coef, p.varName(t.Col))
		}
		fmt.Fprintf(&b, " %s %s", r.sense, r.rhs)
		if r.name != "" {
			fmt.Fprintf(&b, "   [%s]", r.name)
		}
		b.WriteString("\n")
	}
	return b.String()
}

func (p *Problem) varName(j int) string {
	if j < len(p.varNames) && p.varNames[j] != "" {
		return p.varNames[j]
	}
	return fmt.Sprintf("x%d", j)
}
