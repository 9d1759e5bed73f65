package lp

import (
	"fmt"
	"slices"

	"divflow/internal/exact"
)

// SolveRat solves the problem exactly with a two-phase primal simplex over
// exact rationals. Pricing is Dantzig's rule (most negative reduced cost),
// degrading permanently to Bland's rule once a run of consecutive degenerate
// pivots suggests cycling — Bland's rule cannot cycle, so termination stays
// guaranteed while the common case keeps the much better-behaved pivot
// counts of Dantzig pricing. The tableau is stored sparsely, so pivots cost
// proportionally to the nonzeros they touch.
func SolveRat(p *Problem) (*Solution, error) {
	sf, err := newStdForm(p)
	if err != nil {
		return nil, err
	}
	return withRat(solveRatCold(sf))
}

// solveRatCold runs the classic two-phase method from the all-slack/
// artificial starting basis.
func solveRatCold(sf *stdForm) (*Solution, error) {
	t := newRatTableau(sf)

	// Phase 1: minimize the sum of artificial variables.
	if sf.numArt > 0 {
		phase1 := make([]exact.Q, t.numCols)
		for j := sf.artStart; j < t.numCols; j++ {
			phase1[j] = exact.Int(1)
		}
		t.setObjective(phase1)
		if status := t.iterate(); status != Optimal {
			// Phase 1 is bounded below by 0, so it cannot be unbounded.
			return nil, fmt.Errorf("lp: phase 1 reported %v", status)
		}
		if t.objRHS.Sign() < 0 { // a positive sum of artificials
			return &Solution{Status: Infeasible}, nil
		}
		t.evictArtificials()
	}

	// Phase 2: original objective; an artificial never enters (iterate).
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
	rows    []spVec   // current (pivoted) rows, sparse
	rhs     []exact.Q // always >= 0 at a feasible basis
	basis   []int     // basic column of each row
	obj     []exact.Q // reduced-cost row, dense (fills in quickly)
	objRHS  exact.Q   // negated objective value
	// Scratch buffers for the sparse row merge of pivot().
	scratchInd []int
	scratchVal []exact.Q
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
		rhs:     slices.Clone(sf.rhs),
		basis:   slices.Clone(sf.basis0),
	}
	for i, src := range sf.rows {
		t.rows[i] = spVec{ind: slices.Clone(src.ind), val: slices.Clone(src.val)}
	}
	return t
}

// setObjective installs c (dense, len numCols) as the objective and
// eliminates the basic columns, so obj[j] holds the reduced cost c_j − z_j
// afterwards.
func (t *ratTableau) setObjective(c []exact.Q) {
	t.obj = slices.Clone(c)
	t.objRHS = exact.Q{}
	for r, bv := range t.basis {
		if f := t.obj[bv]; f.Sign() != 0 {
			t.eliminate(f, r)
		}
	}
}

// eliminate subtracts f times row r from the objective row.
func (t *ratTableau) eliminate(f exact.Q, r int) {
	row := &t.rows[r]
	for k, j := range row.ind {
		t.obj[j] = t.obj[j].Sub(f.Mul(row.val[k]))
	}
	t.objRHS = t.objRHS.Sub(f.Mul(t.rhs[r]))
}

// degenLimit bounds the consecutive degenerate pivots tolerated under
// Dantzig pricing before switching to Bland's rule. Any finite bound
// preserves termination (non-degenerate pivots strictly decrease the
// objective, so only an unbroken degenerate run can cycle).
func (t *ratTableau) degenLimit() int { return 2*len(t.rows) + 16 }

// iterate runs primal simplex pivots until optimality or unboundedness. Only
// the columns before the artificials are priced: an artificial never enters
// the basis, in phase 1 or after it.
func (t *ratTableau) iterate() Status {
	for {
		enter := -1
		for j := 0; j < t.sf.artStart; j++ {
			if t.obj[j].Sign() >= 0 {
				continue
			}
			if enter == -1 || (!t.bland && t.obj[j].Cmp(t.obj[enter]) < 0) {
				enter = j
			}
			if t.bland {
				break
			}
		}
		if enter == -1 {
			return Optimal
		}
		// Leaving row: minimum ratio; ties broken by smallest basic column.
		leave := -1
		var best exact.Q
		for r := 0; r < len(t.rows); r++ {
			a := t.rows[r].get(enter)
			if a.Sign() <= 0 {
				continue
			}
			ratio := t.rhs[r].Quo(a)
			if leave == -1 {
				leave, best = r, ratio
			} else if c := ratio.Cmp(best); c < 0 || (c == 0 && t.basis[r] < t.basis[leave]) {
				leave, best = r, ratio
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
	inv := prow.get(enter).Inv()
	for k, v := range prow.val {
		prow.val[k] = v.Mul(inv)
	}
	t.rhs[leave] = t.rhs[leave].Mul(inv)

	for r := 0; r < len(t.rows); r++ {
		if r == leave {
			continue
		}
		f := t.rows[r].get(enter)
		if f.Sign() == 0 {
			continue
		}
		t.axpyRow(r, f, prow)
		t.rhs[r] = t.rhs[r].Sub(f.Mul(t.rhs[leave]))
	}
	if t.obj != nil {
		if f := t.obj[enter]; f.Sign() != 0 {
			t.eliminate(f, leave)
		}
	}
	t.basis[leave] = enter
}

// axpyRow computes rows[r] -= factor · prow with a sparse merge, dropping
// the entries that cancel. factor is nonzero.
func (t *ratTableau) axpyRow(r int, factor exact.Q, prow *spVec) {
	a := &t.rows[r]
	if cap(t.scratchInd) < t.numCols {
		t.scratchInd = make([]int, 0, t.numCols)
		t.scratchVal = make([]exact.Q, 0, t.numCols)
	}
	oi := t.scratchInd[:0]
	ov := t.scratchVal[:0]
	i, j := 0, 0
	for i < len(a.ind) || j < len(prow.ind) {
		switch {
		case j >= len(prow.ind) || (i < len(a.ind) && a.ind[i] < prow.ind[j]):
			oi = append(oi, a.ind[i])
			ov = append(ov, a.val[i])
			i++
		case i >= len(a.ind) || a.ind[i] > prow.ind[j]:
			oi = append(oi, prow.ind[j])
			ov = append(ov, factor.Mul(prow.val[j]).Neg())
			j++
		default:
			if v := a.val[i].Sub(factor.Mul(prow.val[j])); v.Sign() != 0 {
				oi = append(oi, a.ind[i])
				ov = append(ov, v)
			}
			i++
			j++
		}
	}
	// Copy the merged entries back into the row; the scratch buffers keep
	// their full capacity for the next merge.
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
	x := make([]exact.Q, t.sf.numVars)
	for r, bv := range t.basis {
		if bv < t.sf.numVars {
			x[bv] = t.rhs[r]
		}
	}
	return &Solution{Status: Optimal, ObjectiveQ: t.objRHS.Neg(), X: x}
}
