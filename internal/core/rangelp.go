// Package core implements the scheduling algorithms of RR-5386 (Legrand,
// Su, Vivien): makespan minimization in the divisible-load model (Theorem
// 1), deadline feasibility (Lemma 1 / System 2), exact minimization of the
// maximum weighted flow via milestone enumeration (Theorem 2 / LP 3), and
// the same objective under preemption without divisibility (Section 4.4 /
// System 5, using the Lawler–Labetoulle reconstruction).
//
// One milestone search (newSearch) serves every entry point but the
// makespan: max weighted flow, with or without held deadlines, the
// counter-offer BestDeadline and DeadlineFeasible differ only in which jobs'
// windows close at a flow form and which at a held deadline. System (2) is
// that search with no flow form: one point range, one LP.
//
// All solvers operate on exact rational arithmetic end to end: every
// epochal time, milestone and LP entry is an exact rational, every LP's
// answer is verified exactly, and the produced schedules validate exactly.
// Inside, the rationals are exact.Q values — two machine words each unless a
// value outgrows them. The online path has no *big.Rat at all: a Residual
// comes in as exact.Q and its Plan goes out as exact.Q. The offline entry
// points convert at their own boundary — the model.Instance, origins and
// deadlines in, objectives and schedule pieces out — onto the same search.
package core

import (
	"fmt"
	"math/big"
	"slices"
	"unsafe"

	"divflow/internal/affine"
	"divflow/internal/exact"
	"divflow/internal/intervals"
	"divflow/internal/llsched"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// instance is what every solver computes from: n jobs on m machines, their
// release dates, weights and cost matrix as exact.Q values, converted once
// per call from a model.Instance (newInstance) or taken as they stand from a
// Residual, as probeBuf converts the cost matrix to float64 once per search.
type instance struct {
	n, m            int
	cost            []exact.Q // [i·n+j], zero where machine i cannot run job j
	release, weight []exact.Q
}

func newInstance(inst *model.Instance) *instance {
	n, m := inst.N(), inst.M()
	q := &instance{n: n, m: m, cost: make([]exact.Q, m*n), release: make([]exact.Q, n), weight: make([]exact.Q, n)}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			c, _ := inst.Cost(i, j)
			q.cost[i*n+j] = exact.FromRat(c)
		}
	}
	for j := range inst.Jobs {
		q.release[j] = exact.FromRat(inst.Jobs[j].Release)
		q.weight[j] = exact.FromRat(inst.Jobs[j].Weight)
	}
	return q
}

// N is the number of jobs.
func (q *instance) N() int { return q.n }

// M is the number of machines.
func (q *instance) M() int { return q.m }

// CanRun reports whether machine i can run job j.
func (q *instance) CanRun(i, j int) bool { return q.cost[i*q.n+j].Sign() != 0 }

// rangeLP is the unified linear program underlying every result in the
// paper. It covers:
//
//   - LP (1), makespan: no deadlines; the final interval is [r_max, r_max+F]
//     so its length is exactly the variable Δ_n = F;
//   - LP (3), max weighted flow on a milestone range: deadline forms
//     d̄_j(F) = o_j + F/w_j, range [F_i, F_{i+1}], and held deadlines D_j as
//     hard caps on the windows;
//   - System (2), deadline feasibility: the same range LP with no deadline
//     form, only held deadlines, F pinned to the degenerate range [0,0] —
//     not a layout of its own;
//   - System (5), the preemptive variant of either: the per-job
//     per-interval bound (5b) added.
//
// Variables: F (column 0) plus one fraction α^{(t)}_{i,j} for every
// (interval, machine, job) triple where the job is active in the interval
// (released at or before inf I_t and, when it has a deadline form or a held
// deadline, due at or after sup I_t) and the machine is eligible (finite
// c_{i,j}).
//
// It is one layout with two fills of one LP. The layout — which triples get a
// column, which rows exist and what they sum — is ints, read off the epochal
// order when the rangeLP is laid (lay), in arrays the next lay reuses. build
// fills it with exact coefficients straight into lp's standard form
// (lp.ExactFill), which every solver entry point solves and proves with.
// fillProbe fills the same rows with float64 into a search's reused tableau,
// for the probes that steer a search (see rangeSearch); the two agree entry
// for entry, so the basis a probe ends on is a basis of the exact problem.
type rangeLP struct {
	inst *instance
	mode schedule.Model
	ivs  []intervals.Interval
	rg   affine.Range

	numVars int        // F and the α columns
	cols    []int      // [(t·m+i)·n+j] -> LP column, -1 when absent
	costAt  []int      // per α column, i·n+j: where its c_{i,j} sits in a cost matrix
	rows    []lpRow    // after the row bounding F′: capacity rows interval by interval, then one completion row per job
	terms   []int      // the rows' α columns, back to back
	vals    []exact.Q  // what both fills take from the range (shifted)
	sense   []lp.Sense // the sense of every row both fills write (senses)

	sort intervals.Sorter // the epochal sort's buffers, for the next lay
}

// lpRow is one constraint row of the layout, over the α columns
// terms[previous end:end]. A capacity row (t >= 0) weighs each by its
// c_{i,j} and bounds the sum by the length of interval t; a completion row
// (t < 0) sums them to 1.
type lpRow struct{ t, end int }

// fCol is the column of the objective variable F.
const fCol = 0

// epochs lists the epochal times of a rangeLP in an order its layout can
// index: times[j] is job j's release date, the deadline forms and held
// deadlines of the jobs that have them follow — due[j] is where job j's form
// sits, hard[j] its held deadline, -1 for none — and after them whatever
// else delimits an interval (a horizon, a moving end).
type epochs struct {
	times     []affine.Form
	due, hard []int
}

// newEpochs lists the releases, the deadline forms (dls[j], nil for none) and
// the held deadlines (held[j], nil for none); either slice may be nil.
func newEpochs(inst *instance, dls []*affine.Form, held []*exact.Q) epochs {
	n := inst.N()
	ep := epochs{times: make([]affine.Form, 0, 2*n+1), due: make([]int, n), hard: make([]int, n)}
	for _, r := range inst.release {
		ep.times = append(ep.times, affine.Const(r))
	}
	for j := range n {
		ep.due[j], ep.hard[j] = -1, -1
		if j < len(dls) && dls[j] != nil {
			ep.due[j] = len(ep.times)
			ep.times = append(ep.times, *dls[j])
		}
		if j < len(held) && held[j] != nil {
			ep.hard[j] = len(ep.times)
			ep.times = append(ep.times, affine.Const(*held[j]))
		}
	}
	return ep
}

// rangeSolution carries an optimal solution of a rangeLP.
type rangeSolution struct {
	F exact.Q   // optimal objective value within the range
	x []exact.Q // the LP's values by column: α^{(t)}_{i,j} is x[cols[(t·m+i)·n+j]]
}

// recordSolve classifies one hybrid solve into the tally.
func recordSolve(t *stats.SolverTally, warmTried bool, sol *lp.Solution) {
	switch sol.Method {
	case lp.MethodWarmVerified:
		t.WarmHits++
		return
	case lp.MethodFloatVerified:
		t.FloatVerified++
	case lp.MethodExact:
		t.Fallbacks++
	}
	if warmTried {
		t.WarmMisses++
	}
}

// lay lays r out as the LP of one objective range, in r's own arrays,
// resliced: the epochal times are ordered at an interior point of the range,
// where their order is the range's, and job j is active in interval t iff
// rank(r_j) <= t < rank(d̄_j) and t < rank(D_j) in that order
// (intervals.Sorter), each bound only where the job has it. A re-laid rangeLP
// is the rangeLP a zero one laid for the same range would be.
func (r *rangeLP) lay(inst *instance, mode schedule.Model, ep epochs, rg affine.Range) {
	n, m := inst.N(), inst.M()
	ivs, rank := r.sort.Build(r.ivs[:0], ep.times, rg.Interior())
	r.inst, r.mode, r.ivs, r.rg = inst, mode, ivs, rg
	r.cols = slices.Grow(r.cols[:0], len(ivs)*m*n)[:len(ivs)*m*n]
	r.costAt, r.rows, r.terms = append(r.costAt[:0], -1), r.rows[:0], r.terms[:0] // fCol has no cost
	active := func(t, j int) bool {
		return rank[j] <= t && (ep.due[j] < 0 || t < rank[ep.due[j]]) && (ep.hard[j] < 0 || t < rank[ep.hard[j]])
	}
	// row closes the row whose columns were just appended to terms; a
	// capacity row nothing can use is left out.
	start := 0
	row := func(t int) {
		if t < 0 || len(r.terms) > start {
			r.rows = append(r.rows, lpRow{t, len(r.terms)})
			start = len(r.terms)
		}
	}
	for t := range ivs {
		at := r.cols[t*m*n : (t+1)*m*n]
		for c := range at {
			at[c] = -1
		}
		for j := 0; j < n; j++ {
			if !active(t, j) {
				continue
			}
			for i := 0; i < m; i++ {
				if inst.CanRun(i, j) {
					at[i*n+j] = len(r.costAt)
					r.costAt = append(r.costAt, i*n+j)
				}
			}
		}
		// Capacity rows (1b)/(2c)/(3d)/(5c): for each interval and machine,
		// Σ_j α c_{i,j} <= |I_t|.
		for i := 0; i < m; i++ {
			for j := 0; j < n; j++ {
				if c := at[i*n+j]; c >= 0 {
					r.terms = append(r.terms, c)
				}
			}
			row(t)
		}
		// Preemptive-only rows (5b): for each interval and job,
		// Σ_i α c_{i,j} <= |I_t|.
		if mode != schedule.Preemptive {
			continue
		}
		for j := 0; j < n; j++ {
			for i := 0; i < m; i++ {
				if c := at[i*n+j]; c >= 0 {
					r.terms = append(r.terms, c)
				}
			}
			row(t)
		}
	}
	// Completion rows (1d)/(2d)/(3e)/(5a): Σ_t Σ_i α^{(t)}_{i,j} == 1.
	for j := 0; j < n; j++ {
		for t := range ivs {
			for i := 0; i < m; i++ {
				if c := r.cols[(t*m+i)*n+j]; c >= 0 {
					r.terms = append(r.terms, c)
				}
			}
		}
		row(-1)
	}
	r.numVars = len(r.costAt)
	r.vals, r.sense = r.shifted(r.vals[:0]), r.senses(r.sense[:0])
}

// shifted appends to dst what a fill takes from the range, exactly: Lo, the
// width Hi − Lo (zero when the range has no upper end) and, per interval, its
// length at Lo and −B. Both fills write the LP on the shifted objective
// F = Lo + F′, F′ in column fCol: a capacity row Σ α c_{i,j} <= |I_t| = A + B·F
// reads Σ α c_{i,j} − B·F′ <= A + B·Lo, the interval's length at the range's
// lower end — never negative, the epochal order holding on the closed range.
// So F >= Lo is the sign constraint on F′, no row is negated into a >= row,
// and phase 1 has only the n completion rows' artificials to drive out.
func (r *rangeLP) shifted(dst []exact.Q) []exact.Q {
	var width exact.Q
	if r.rg.Hi != nil {
		width = r.rg.Hi.Sub(r.rg.Lo)
	}
	dst = append(dst, r.rg.Lo, width)
	for _, iv := range r.ivs {
		length := iv.Length()
		dst = append(dst, length.Eval(r.rg.Lo), length.B.Neg())
	}
	return dst
}

// senses appends to dst the sense of every row a fill writes: the row
// bounding F′ when the range has an upper end, then the layout's — a capacity
// row is <=, a completion row ==.
func (r *rangeLP) senses(dst []lp.Sense) []lp.Sense {
	if r.rg.Hi != nil {
		dst = append(dst, lp.LE)
	}
	for _, row := range r.rows {
		if row.t >= 0 {
			dst = append(dst, lp.LE)
		} else {
			dst = append(dst, lp.EQ)
		}
	}
	return dst
}

// build is the exact fill: the layout's rows written in order straight into
// lp's standard form f, sized once — F′'s bound, then the capacity rows with
// F′ first in each, then the completion rows — and F′ the objective.
func (r *rangeLP) build(f *lp.ExactFill) {
	one := exact.Int(1)
	perInterval := r.vals[2:] // |I_t| at Lo, then −B_t
	f.Reset(r.numVars, r.sense, len(r.terms)+len(r.rows)+1)
	f.SetCost(fCol, one)
	first := 0 // the row of the layout's first: F′ <= Hi − Lo precedes it
	if r.rg.Hi != nil {
		first = 1
		f.Set(0, fCol, one)
		f.SetRHS(0, r.vals[1])
	}
	at := 0
	for k, row := range r.rows {
		rhs := one
		if row.t >= 0 {
			f.Set(first+k, fCol, perInterval[2*row.t+1]) // Set drops a zero
			rhs = perInterval[2*row.t]
		}
		for _, c := range r.terms[at:row.end] {
			coef := one
			if row.t >= 0 {
				coef = r.inst.cost[r.costAt[c]]
			}
			f.Set(first+k, c, coef)
		}
		at = row.end
		f.SetRHS(first+k, rhs)
	}
}

// layouts is what a search lays its ranges out in and its probes fill from,
// kept with the lp.Workspace it solves in (lp.Workspace.Layout), so that the
// arrays outlive the search: two layouts, because locate holds the one its
// probe called feasible while the next range is laid, and the probes' float
// images. An entry point hands it back, with the workspace, once it has read
// its answer off the layout.
type layouts struct {
	pair  [2]rangeLP
	probe probeBuf
}

// layoutsOf returns the layouts kept with w, making them for a workspace
// that has none.
func layoutsOf(w *lp.Workspace) *layouts {
	l, ok := w.Layout.(*layouts)
	if !ok {
		l = new(layouts)
		w.Layout = l
	}
	return l
}

// Bytes is what the layouts' arrays hold, at their capacities: lp caps the
// spare workspace with them.
func (l *layouts) Bytes() int {
	b := size(l.probe.cost) + size(l.probe.image)
	for i := range l.pair {
		r := &l.pair[i]
		b += size(r.ivs) + size(r.cols) + size(r.costAt) + size(r.rows) + size(r.terms) +
			size(r.vals) + size(r.sense) + r.sort.Bytes()
	}
	return b
}

// size is the bytes behind a slice's capacity.
func size[T any](s []T) int {
	var z T
	return cap(s) * int(unsafe.Sizeof(z))
}

// probeBuf is what the probes of one search share: the tableau they all
// fill, the search's workspace's, and the float images of the instance's cost
// matrix and of a range's shifted values.
type probeBuf struct {
	tab   *lp.FloatTableau
	cost  []float64 // [i·n+j], 0 where machine i cannot run job j
	image []float64 // a range's vals in float64
}

// reset points b at tab and converts inst's cost matrix into b, in b's own
// arrays.
func (b *probeBuf) reset(inst *instance, tab *lp.FloatTableau) *probeBuf {
	b.tab, b.cost = tab, lp.FloatImage(b.cost[:0], inst.cost)
	return b
}

// fillProbe is the float fill: the same rows from the same exact values,
// converted once, into the search's tableau. It returns Lo's image, which the
// caller adds back to the minimum.
func (r *rangeLP) fillProbe(b *probeBuf) (lo float64) {
	b.image = lp.FloatImage(b.image[:0], r.vals)
	bounded, perInterval := r.rg.Hi != nil, b.image[2:] // |I_t| at Lo, then −B_t

	first := 0 // the tableau row of the layout's first: F′ <= Hi − Lo precedes it
	b.tab.Reset(r.numVars, r.sense)
	if bounded {
		first = 1
		b.tab.Set(0, fCol, 1)
		b.tab.SetRHS(0, b.image[1])
	}
	at := 0
	for k, row := range r.rows {
		for _, c := range r.terms[at:row.end] {
			coef := 1.0
			if row.t >= 0 {
				coef = b.cost[r.costAt[c]]
			}
			b.tab.Set(first+k, c, coef)
		}
		at = row.end
		if row.t < 0 {
			b.tab.SetRHS(first+k, 1)
			continue
		}
		b.tab.SetRHS(first+k, perInterval[2*row.t])
		b.tab.Set(first+k, fCol, perInterval[2*row.t+1])
	}
	return b.image[0]
}

// solveWith solves f, which holds this layout's build, handed warm, the basis
// a float probe of this range ended on (nil: the engine runs its own float
// pass), and recording the hybrid engine's path into tally (when non-nil). The
// basis is verified exactly, never trusted: a caller that passes a wrong one
// loses only speed.
func (r *rangeLP) solveWith(f *lp.ExactFill, warm *lp.Basis, tally *stats.SolverTally) (*rangeSolution, error) {
	sol, err := f.Solve(warm)
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
	return &rangeSolution{F: r.rg.Lo.Add(sol.X[fCol]), x: sol.X}, nil
}

// alpha is the fraction α^{(t)}_{i,j} of a solution, zero where the layout
// has no such variable.
func (r *rangeLP) alpha(sol *rangeSolution, t, i, j int) exact.Q {
	n, m := r.inst.N(), r.inst.M()
	if c := r.cols[(t*m+i)*n+j]; c >= 0 {
		return sol.x[c]
	}
	return exact.Q{}
}

// pieces materializes a schedule from an LP solution: interval bounds are
// evaluated at the optimal F; inside each interval the divisible model lines
// the fractions up back to back on each machine, while the preemptive model
// runs the Lawler–Labetoulle decomposition so that no job ever executes on
// two machines simultaneously. Empty pieces are dropped while still exact;
// each piece is handed to add — machine, job, start, end and the fraction of
// the job it processes — in the order the schedule lists them.
func (r *rangeLP) pieces(sol *rangeSolution, add func(i, j int, start, end, frac exact.Q)) error {
	n, m := r.inst.N(), r.inst.M()
	for t, iv := range r.ivs {
		lo, hi := iv.Lo.Eval(sol.F), iv.Hi.Eval(sol.F)
		if lo.Cmp(hi) >= 0 {
			// Interval collapsed at the range boundary; capacity forces
			// all its fractions to zero.
			continue
		}
		switch r.mode {
		case schedule.Divisible:
			for i := 0; i < m; i++ {
				cur := lo
				for j := 0; j < n; j++ {
					a := r.alpha(sol, t, i, j)
					if a.Sign() == 0 {
						continue
					}
					end := cur.Add(a.Mul(r.inst.cost[i*n+j]))
					add(i, j, cur, end, a)
					cur = end
				}
			}
		case schedule.Preemptive:
			T := make([][]exact.Q, m)
			for i := 0; i < m; i++ {
				T[i] = make([]exact.Q, n)
				for j := 0; j < n; j++ {
					T[i][j] = r.alpha(sol, t, i, j).Mul(r.inst.cost[i*n+j])
				}
			}
			pieces, err := llsched.Decompose(T, hi.Sub(lo), lo)
			if err != nil {
				return fmt.Errorf("core: interval %d reconstruction: %w", t, err)
			}
			for _, p := range pieces {
				if p.Start.Cmp(p.End) >= 0 {
					continue
				}
				add(p.Machine, p.Job, p.Start, p.End, p.End.Sub(p.Start).Quo(r.inst.cost[p.Machine*n+p.Job]))
			}
		}
	}
	return nil
}

// extract is the schedule of a solution over *big.Rat, each piece appended
// with the rationals made for it, uncopied: what the offline entry points
// return.
func (r *rangeLP) extract(sol *rangeSolution) (*schedule.Schedule, error) {
	out := &schedule.Schedule{}
	err := r.pieces(sol, func(i, j int, start, end, frac exact.Q) {
		out.Pieces = append(out.Pieces, schedule.Piece{Machine: i, Job: j, Start: start.Rat(), End: end.Rat(), Fraction: frac.Rat()})
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// flowDeadlines returns the affine deadline forms d̄_j(F) = o_j + F/w_j,
// where o_j is the flow origin of job j: origins[j], or its release date when
// origins is nil (the plain offline problem; the online re-solve passes
// earlier origins, where a job has already waited before the residual
// instance is formed).
func flowDeadlines(inst *instance, origins []*big.Rat) []*affine.Form {
	if origins == nil {
		return flowDeadlinesQ(inst, nil)
	}
	return flowDeadlinesQ(inst, exactAll(origins))
}

// flowDeadlinesQ is flowDeadlines with exact.Q origins.
func flowDeadlinesQ(inst *instance, origins []exact.Q) []*affine.Form {
	out := make([]*affine.Form, inst.N())
	forms := make([]affine.Form, inst.N())
	for j := range out {
		o := inst.release[j]
		if origins != nil {
			o = origins[j]
		}
		forms[j] = affine.New(o, inst.weight[j].Inv())
		out[j] = &forms[j]
	}
	return out
}
