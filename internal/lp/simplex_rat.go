package lp

import (
	"fmt"
	"math/big"
)

// SolveRat solves the problem exactly with a two-phase primal simplex over
// big.Rat. Pricing is Dantzig's rule (most negative reduced cost), degrading
// permanently to Bland's rule once a run of consecutive degenerate pivots
// suggests cycling — Bland's rule cannot cycle, so termination stays
// guaranteed while the common case keeps the much better-behaved pivot
// counts of Dantzig pricing. The tableau is stored sparsely with a big.Rat
// free list, so pivots cost (and allocate) proportionally to the nonzeros
// they touch.
func SolveRat(p *Problem) (*Solution, error) {
	sf, err := newStdForm(p)
	if err != nil {
		return nil, err
	}
	return solveRatCold(sf)
}

// solveRatCold runs the classic two-phase method from the all-slack/
// artificial starting basis.
func solveRatCold(sf *stdForm) (*Solution, error) {
	t := newRatTableau(sf)

	// Phase 1: minimize the sum of artificial variables.
	if sf.numArt > 0 {
		phase1 := make([]*big.Rat, t.numCols)
		one := big.NewRat(1, 1)
		for j := range phase1 {
			if j >= sf.artStart {
				phase1[j] = one
			} else {
				phase1[j] = ratZero
			}
		}
		t.setObjective(phase1)
		if status := t.iterate(); status != Optimal {
			// Phase 1 is bounded below by 0, so it cannot be unbounded.
			return nil, fmt.Errorf("lp: phase 1 reported %v", status)
		}
		if t.objectiveValue().Sign() > 0 {
			return &Solution{Status: Infeasible}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: original objective, artificial columns banned.
	t.setObjective(sf.cost)
	switch status := t.iterate(); status {
	case Optimal:
	case Unbounded:
		return &Solution{Status: Unbounded}, nil
	default:
		return nil, fmt.Errorf("lp: phase 2 reported %v", status)
	}
	return t.solution(), nil
}

// ratTableau is a sparse simplex tableau over exact rationals.
type ratTableau struct {
	sf      *stdForm
	numCols int
	rows    []spVec    // current (pivoted) rows, sparse
	rhs     []*big.Rat // always >= 0 at a feasible basis
	basis   []int      // basic column of each row
	banned  []bool     // columns that may never enter the basis
	obj     []*big.Rat // reduced-cost row, dense (fills in quickly)
	objRHS  *big.Rat   // negated objective value
	pool    ratPool
	// Scratch buffers for the sparse row merge of pivot().
	scratchInd []int
	scratchVal []*big.Rat
	// bland latches once the degeneracy heuristic trips: from then on
	// Bland's anti-cycling rule picks the entering column.
	bland bool
	degen int // consecutive degenerate pivots under Dantzig pricing
}

// newRatTableau copies the standard form into a mutable tableau positioned
// at its initial slack/artificial basis.
func newRatTableau(sf *stdForm) *ratTableau {
	t := &ratTableau{
		sf:      sf,
		numCols: sf.numCols,
		rows:    make([]spVec, sf.m),
		rhs:     make([]*big.Rat, sf.m),
		basis:   append([]int(nil), sf.basis0...),
		banned:  make([]bool, sf.numCols),
		objRHS:  new(big.Rat),
	}
	for j := sf.artStart; j < sf.numCols; j++ {
		t.banned[j] = true // artificials may never re-enter after phase 1
	}
	for i := range sf.rows {
		src := &sf.rows[i]
		row := spVec{
			ind: append([]int(nil), src.ind...),
			val: make([]*big.Rat, len(src.val)),
		}
		for k, v := range src.val {
			row.val[k] = new(big.Rat).Set(v)
		}
		t.rows[i] = row
		t.rhs[i] = new(big.Rat).Set(sf.rhs[i])
	}
	return t
}

// setObjective installs c (dense, len numCols, read-only) as the objective
// and eliminates the basic columns, so obj[j] holds the reduced cost c_j −
// z_j afterwards.
func (t *ratTableau) setObjective(c []*big.Rat) {
	t.obj = make([]*big.Rat, t.numCols)
	for j := range t.obj {
		t.obj[j] = new(big.Rat).Set(c[j])
	}
	t.objRHS = new(big.Rat)
	var factor, tmp big.Rat
	for r, bv := range t.basis {
		if t.obj[bv].Sign() == 0 {
			continue
		}
		factor.Set(t.obj[bv])
		row := &t.rows[r]
		for k, j := range row.ind {
			tmp.Mul(&factor, row.val[k])
			t.obj[j].Sub(t.obj[j], &tmp)
		}
		tmp.Mul(&factor, t.rhs[r])
		t.objRHS.Sub(t.objRHS, &tmp)
	}
}

// objectiveValue returns the current objective value (c_B . x_B).
func (t *ratTableau) objectiveValue() *big.Rat {
	return new(big.Rat).Neg(t.objRHS)
}

// degenLimit bounds the consecutive degenerate pivots tolerated under
// Dantzig pricing before switching to Bland's rule. Any finite bound
// preserves termination (non-degenerate pivots strictly decrease the
// objective, so only an unbroken degenerate run can cycle).
func (t *ratTableau) degenLimit() int { return 2*len(t.rows) + 16 }

// iterate runs primal simplex pivots until optimality or unboundedness.
func (t *ratTableau) iterate() Status {
	for {
		enter := -1
		if t.bland {
			for j := 0; j < t.numCols; j++ {
				if !t.banned[j] && t.obj[j].Sign() < 0 {
					enter = j
					break
				}
			}
		} else {
			var most *big.Rat
			for j := 0; j < t.numCols; j++ {
				if t.banned[j] || t.obj[j].Sign() >= 0 {
					continue
				}
				if most == nil || t.obj[j].Cmp(most) < 0 {
					most = t.obj[j]
					enter = j
				}
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Leaving row: minimum ratio; ties broken by smallest basic column.
		leave := -1
		var best, ratio big.Rat
		for r := 0; r < len(t.rows); r++ {
			a := t.rows[r].get(enter)
			if a == nil || a.Sign() <= 0 {
				continue
			}
			ratio.Quo(t.rhs[r], a)
			if leave == -1 || ratio.Cmp(&best) < 0 ||
				(ratio.Cmp(&best) == 0 && t.basis[r] < t.basis[leave]) {
				leave = r
				best.Set(&ratio)
			}
		}
		if leave == -1 {
			return Unbounded
		}
		if !t.bland {
			if t.rhs[leave].Sign() == 0 {
				t.degen++
				if t.degen > t.degenLimit() {
					t.bland = true
				}
			} else {
				t.degen = 0
			}
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave.
func (t *ratTableau) pivot(leave, enter int) {
	prow := &t.rows[leave]
	pval := prow.get(enter)
	inv := new(big.Rat).Inv(pval)
	for _, v := range prow.val {
		v.Mul(v, inv)
	}
	t.rhs[leave].Mul(t.rhs[leave], inv)

	var factor, tmp big.Rat
	for r := 0; r < len(t.rows); r++ {
		if r == leave {
			continue
		}
		f := t.rows[r].get(enter)
		if f == nil {
			continue
		}
		factor.Set(f)
		t.axpyRow(r, &factor, prow)
		tmp.Mul(&factor, t.rhs[leave])
		t.rhs[r].Sub(t.rhs[r], &tmp)
	}
	if t.obj != nil && t.obj[enter].Sign() != 0 {
		factor.Set(t.obj[enter])
		for k, j := range prow.ind {
			tmp.Mul(&factor, prow.val[k])
			t.obj[j].Sub(t.obj[j], &tmp)
		}
		tmp.Mul(&factor, t.rhs[leave])
		t.objRHS.Sub(t.objRHS, &tmp)
	}
	t.basis[leave] = enter
}

// axpyRow computes rows[r] -= factor · prow with a sparse merge, recycling
// cancelled entries through the pool. factor is nonzero.
func (t *ratTableau) axpyRow(r int, factor *big.Rat, prow *spVec) {
	a := &t.rows[r]
	if cap(t.scratchInd) < t.numCols {
		t.scratchInd = make([]int, 0, t.numCols)
		t.scratchVal = make([]*big.Rat, 0, t.numCols)
	}
	oi := t.scratchInd[:0]
	ov := t.scratchVal[:0]
	var tmp big.Rat
	i, j := 0, 0
	for i < len(a.ind) || j < len(prow.ind) {
		switch {
		case j >= len(prow.ind) || (i < len(a.ind) && a.ind[i] < prow.ind[j]):
			oi = append(oi, a.ind[i])
			ov = append(ov, a.val[i])
			i++
		case i >= len(a.ind) || a.ind[i] > prow.ind[j]:
			nv := t.pool.get()
			nv.Mul(factor, prow.val[j])
			nv.Neg(nv)
			oi = append(oi, prow.ind[j])
			ov = append(ov, nv)
			j++
		default:
			tmp.Mul(factor, prow.val[j])
			a.val[i].Sub(a.val[i], &tmp)
			if a.val[i].Sign() != 0 {
				oi = append(oi, a.ind[i])
				ov = append(ov, a.val[i])
			} else {
				t.pool.put(a.val[i])
			}
			i++
			j++
		}
	}
	// Copy the merged entries back into the row (pointer copies only); the
	// scratch buffers keep their full capacity for the next merge.
	a.ind = append(a.ind[:0], oi...)
	a.val = append(a.val[:0], ov...)
}

// evictArtificials pivots basic artificial variables (necessarily at value
// zero after a successful phase 1) out of the basis, or leaves them basic at
// zero when their row is entirely zero on non-artificial columns (a redundant
// constraint); such rows can never change the solution because every pivot
// ratio on them is zero.
func (t *ratTableau) evictArtificials() {
	for r, bv := range t.basis {
		if bv < t.sf.artStart {
			continue
		}
		row := &t.rows[r]
		for k, j := range row.ind {
			if j < t.sf.artStart && row.val[k].Sign() != 0 {
				t.pivot(r, j)
				break
			}
		}
	}
}

// solution extracts the optimal solution.
func (t *ratTableau) solution() *Solution {
	p := t.sf.p
	x := make([]*big.Rat, p.numVars)
	for j := range x {
		x[j] = new(big.Rat)
	}
	for r, bv := range t.basis {
		if bv < p.numVars {
			x[bv].Set(t.rhs[r])
		}
	}
	return &Solution{
		Status:    Optimal,
		Objective: t.objectiveValue(),
		X:         x,
	}
}

// newWarmRatTableau positions a tableau at the given basis by Gauss–Jordan
// pivoting (m sparse pivots, no objective yet). It reports ok=false when the
// columns are singular. The resulting right-hand side may be negative — the
// caller must check feasibility before running the primal simplex.
func newWarmRatTableau(sf *stdForm, basis []int) (*ratTableau, bool) {
	t := newRatTableau(sf)
	assigned := make([]bool, sf.m)
	// Columns already basic in the initial tableau keep their row for free.
	rowOf := make(map[int]int, sf.m)
	for r, bv := range t.basis {
		rowOf[bv] = r
	}
	var rest []int
	for _, c := range basis {
		if r, ok := rowOf[c]; ok && !assigned[r] {
			assigned[r] = true
			continue
		}
		rest = append(rest, c)
	}
	for _, c := range rest {
		pivotRow := -1
		best := 0
		for r := 0; r < sf.m; r++ {
			if assigned[r] {
				continue
			}
			v := t.rows[r].get(c)
			if v == nil || v.Sign() == 0 {
				continue
			}
			sz := v.Num().BitLen() + v.Denom().BitLen()
			if pivotRow == -1 || sz < best {
				pivotRow, best = r, sz
			}
		}
		if pivotRow == -1 {
			return nil, false // c is spanned by the columns already placed
		}
		t.pivot(pivotRow, c)
		assigned[pivotRow] = true
	}
	return t, true
}
