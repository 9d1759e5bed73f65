// Package core implements the scheduling algorithms of RR-5386 (Legrand,
// Su, Vivien): makespan minimization in the divisible-load model (Theorem
// 1), deadline feasibility (Lemma 1 / System 2), exact minimization of the
// maximum weighted flow via milestone enumeration (Theorem 2 / LP 3), and
// the same objective under preemption without divisibility (Section 4.4 /
// System 5, using the Lawler–Labetoulle reconstruction).
//
// All solvers operate on exact rational arithmetic end to end: the LPs are
// solved with an exact simplex, milestones are exact rationals, and the
// produced schedules validate exactly.
package core

import (
	"fmt"
	"math/big"

	"divflow/internal/affine"
	"divflow/internal/intervals"
	"divflow/internal/llsched"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// rangeLP is the unified linear program underlying every result in the
// paper. It covers:
//
//   - LP (1), makespan: no deadlines; the final interval is [r_max, r_max+F]
//     so its length is exactly the variable Δ_n = F;
//   - System (2), deadline feasibility: constant deadline forms, F pinned to
//     the degenerate range [0,0];
//   - LP (3), max weighted flow on a milestone range: deadline forms
//     d̄_j(F) = r_j + F/w_j, range [F_i, F_{i+1}];
//   - System (5), the preemptive variant: same as LP (3) plus the per-job
//     per-interval bound (5b).
//
// Variables: F (column 0) plus one fraction α^{(t)}_{i,j} for every
// (interval, machine, job) triple where the job is active in the interval
// (released at or before inf I_t and, when it has a deadline, due at or
// after sup I_t) and the machine is eligible (finite c_{i,j}).
type rangeLP struct {
	inst *model.Instance
	mode schedule.Model
	ivs  []intervals.Interval
	dls  []*affine.Form // per-job deadline form, nil = none
	rg   affine.Range
	at   *big.Rat // interior evaluation point fixing the epochal order

	prob *lp.Problem
	fCol int
	cols [][][]int // [t][i][j] -> LP column, -1 when absent
}

// rangeSolution carries an optimal solution of a rangeLP.
type rangeSolution struct {
	F     *big.Rat       // optimal objective value within the range
	alpha [][][]*big.Rat // [t][i][j] fractions, nil where no variable
	basis *lp.Basis      // optimal basis, reusable as a later warm start
}

// recordSolve classifies one hybrid solve into the tally.
func recordSolve(t *stats.SolverTally, warmTried bool, sol *lp.Solution) {
	switch sol.Method {
	case lp.MethodWarmVerified, lp.MethodWarmSimplex:
		t.WarmHits++
		return
	case lp.MethodFloatVerified:
		t.FloatVerified++
	case lp.MethodCrossover:
		t.Crossovers++
	case lp.MethodExact:
		t.Fallbacks++
	}
	if warmTried {
		t.WarmMisses++
	}
}

func newRangeLP(inst *model.Instance, mode schedule.Model, ivs []intervals.Interval,
	dls []*affine.Form, rg affine.Range) *rangeLP {
	return &rangeLP{inst: inst, mode: mode, ivs: ivs, dls: dls, rg: rg, at: rg.Interior()}
}

func (r *rangeLP) build() {
	n, m := r.inst.N(), r.inst.M()
	r.prob = lp.NewProblem()
	one := big.NewRat(1, 1)
	// Only F is named: names are read by Problem.Dump alone, and formatting
	// one per fraction variable and row costs more than adding them.
	r.fCol = r.prob.AddVar("F", one)

	// A job's deadline at the range's interior point is the same for every
	// interval: evaluate it once, not once per (interval, job) pair.
	dlAt := make([]*big.Rat, n)
	for j, dl := range r.dls {
		if dl != nil {
			dlAt[j] = dl.Eval(r.at)
		}
	}
	r.cols = make([][][]int, len(r.ivs))
	for t, iv := range r.ivs {
		r.cols[t] = make([][]int, m)
		for i := 0; i < m; i++ {
			r.cols[t][i] = make([]int, n)
			for j := 0; j < n; j++ {
				r.cols[t][i][j] = -1
			}
		}
		lo, hi := iv.Lo.Eval(r.at), iv.Hi.Eval(r.at)
		for j := 0; j < n; j++ {
			if !intervals.JobActive(r.inst.Jobs[j].Release, dlAt[j], lo, hi) {
				continue
			}
			for i := 0; i < m; i++ {
				if !r.inst.CanRun(i, j) {
					continue
				}
				r.cols[t][i][j] = r.prob.AddVar("", nil)
			}
		}
	}

	// Objective range: F in [Lo, Hi].
	r.prob.AddRow("", []lp.Term{{Col: r.fCol, Coef: one}}, lp.GE, r.rg.Lo)
	if r.rg.Hi != nil {
		r.prob.AddRow("", []lp.Term{{Col: r.fCol, Coef: one}}, lp.LE, r.rg.Hi)
	}

	// Capacity rows (1b)/(2c)/(3d)/(5c): for each interval and machine,
	// Σ_j α c_{i,j} <= |I_t| = A + B·F, i.e. Σ_j α c_{i,j} − B·F <= A.
	for t, iv := range r.ivs {
		length := iv.Length()
		negB := new(big.Rat).Neg(length.B)
		for i := 0; i < m; i++ {
			var terms []lp.Term
			for j := 0; j < n; j++ {
				if c := r.cols[t][i][j]; c >= 0 {
					cost, _ := r.inst.Cost(i, j)
					terms = append(terms, lp.Term{Col: c, Coef: cost})
				}
			}
			if len(terms) == 0 {
				continue
			}
			if negB.Sign() != 0 {
				terms = append(terms, lp.Term{Col: r.fCol, Coef: negB})
			}
			r.prob.AddRow("", terms, lp.LE, length.A)
		}
		// Preemptive-only rows (5b): for each interval and job,
		// Σ_i α c_{i,j} <= |I_t|.
		if r.mode != schedule.Preemptive {
			continue
		}
		for j := 0; j < n; j++ {
			var terms []lp.Term
			for i := 0; i < m; i++ {
				if c := r.cols[t][i][j]; c >= 0 {
					cost, _ := r.inst.Cost(i, j)
					terms = append(terms, lp.Term{Col: c, Coef: cost})
				}
			}
			if len(terms) == 0 {
				continue
			}
			if negB.Sign() != 0 {
				terms = append(terms, lp.Term{Col: r.fCol, Coef: negB})
			}
			r.prob.AddRow("", terms, lp.LE, length.A)
		}
	}

	// Completion rows (1d)/(2d)/(3e)/(5a): Σ_t Σ_i α^{(t)}_{i,j} == 1.
	for j := 0; j < n; j++ {
		var terms []lp.Term
		for t := range r.ivs {
			for i := 0; i < m; i++ {
				if c := r.cols[t][i][j]; c >= 0 {
					terms = append(terms, lp.Term{Col: c, Coef: one})
				}
			}
		}
		r.prob.AddRow("", terms, lp.EQ, one)
	}
}

// solve builds and solves the LP, minimizing F. It returns (nil, nil) when
// the range admits no feasible schedule.
func (r *rangeLP) solve() (*rangeSolution, error) {
	return r.solveWith(nil, nil)
}

// solveWith is solve with warm-start and accounting plumbing: warm is the
// optimal basis of a previous, similarly-shaped solve (or nil), and each
// solve's hybrid-engine path is recorded into tally (when non-nil). All
// paths are exact, so callers that pass nothing lose only speed.
func (r *rangeLP) solveWith(warm *lp.Basis, tally *stats.SolverTally) (*rangeSolution, error) {
	if r.prob == nil {
		r.build()
	}
	sol, err := lp.SolveHybridWarm(r.prob, warm)
	if err != nil {
		return nil, err
	}
	if tally != nil {
		recordSolve(tally, warm != nil, sol)
	}
	switch sol.Status {
	case lp.Optimal:
	case lp.Infeasible:
		return nil, nil
	default:
		return nil, fmt.Errorf("core: range LP reported %v", sol.Status)
	}
	out := &rangeSolution{F: new(big.Rat).Set(sol.X[r.fCol]), basis: sol.Basis}
	n, m := r.inst.N(), r.inst.M()
	out.alpha = make([][][]*big.Rat, len(r.ivs))
	for t := range r.ivs {
		out.alpha[t] = make([][]*big.Rat, m)
		for i := 0; i < m; i++ {
			out.alpha[t][i] = make([]*big.Rat, n)
			for j := 0; j < n; j++ {
				if c := r.cols[t][i][j]; c >= 0 && sol.X[c].Sign() != 0 {
					out.alpha[t][i][j] = new(big.Rat).Set(sol.X[c])
				}
			}
		}
	}
	return out, nil
}

// extract materializes a schedule from an LP solution: interval bounds are
// evaluated at the optimal F; inside each interval the divisible model lines
// the fractions up back to back on each machine, while the preemptive model
// runs the Lawler–Labetoulle decomposition so that no job ever executes on
// two machines simultaneously.
func (r *rangeLP) extract(sol *rangeSolution) (*schedule.Schedule, error) {
	out := &schedule.Schedule{}
	n, m := r.inst.N(), r.inst.M()
	for t, iv := range r.ivs {
		lo := iv.Lo.Eval(sol.F)
		hi := iv.Hi.Eval(sol.F)
		if lo.Cmp(hi) >= 0 {
			// Interval collapsed at the range boundary; capacity forces
			// all its fractions to zero.
			continue
		}
		switch r.mode {
		case schedule.Divisible:
			for i := 0; i < m; i++ {
				cur := new(big.Rat).Set(lo)
				for j := 0; j < n; j++ {
					a := sol.alpha[t][i][j]
					if a == nil {
						continue
					}
					cost, _ := r.inst.Cost(i, j)
					end := new(big.Rat).Mul(a, cost)
					end.Add(end, cur)
					out.Add(i, j, cur, end, a)
					cur = end
				}
			}
		case schedule.Preemptive:
			T := make([][]*big.Rat, m)
			for i := 0; i < m; i++ {
				T[i] = make([]*big.Rat, n)
				for j := 0; j < n; j++ {
					if a := sol.alpha[t][i][j]; a != nil {
						cost, _ := r.inst.Cost(i, j)
						T[i][j] = new(big.Rat).Mul(a, cost)
					}
				}
			}
			window := new(big.Rat).Sub(hi, lo)
			pieces, err := llsched.Decompose(T, window, lo)
			if err != nil {
				return nil, fmt.Errorf("core: interval %d reconstruction: %w", t, err)
			}
			for _, p := range pieces {
				cost, _ := r.inst.Cost(p.Machine, p.Job)
				frac := new(big.Rat).Sub(p.End, p.Start)
				frac.Quo(frac, cost)
				out.Add(p.Machine, p.Job, p.Start, p.End, frac)
			}
		}
	}
	return out, nil
}

// noDeadlines returns a deadline slice with no entries set.
func noDeadlines(n int) []*affine.Form { return make([]*affine.Form, n) }

// flowDeadlines returns the affine deadline forms d̄_j(F) = o_j + F/w_j,
// where o_j is the flow origin of job j (its release date in the plain
// offline problem; possibly earlier in the online re-solve setting, where a
// job has already waited before the residual instance is formed).
func flowDeadlines(inst *model.Instance, origins []*big.Rat) []*affine.Form {
	out := make([]*affine.Form, inst.N())
	for j := range out {
		slope := new(big.Rat).Inv(inst.Jobs[j].Weight)
		f := affine.New(origins[j], slope)
		out[j] = &f
	}
	return out
}

// releaseOrigins returns the default flow origins: the release dates.
func releaseOrigins(inst *model.Instance) []*big.Rat {
	out := make([]*big.Rat, inst.N())
	for j := range out {
		out[j] = inst.Jobs[j].Release
	}
	return out
}

// constDeadlines wraps fixed rational deadlines as constant forms.
func constDeadlines(dls []*big.Rat) []*affine.Form {
	out := make([]*affine.Form, len(dls))
	for j, d := range dls {
		if d == nil {
			continue
		}
		f := affine.Const(d)
		out[j] = &f
	}
	return out
}
