package lp

import (
	"fmt"
	"math"
)

const (
	floatEps = 1e-9
	// blandTrigger multiplies the tableau perimeter to decide when the
	// Dantzig pricing rule is abandoned in favour of Bland's rule, which
	// cannot cycle.
	blandTrigger = 20
	// stallFactor multiplies the tableau perimeter once more to give a hard
	// iteration cap: float arithmetic under epsilon tolerances can stall in
	// ways exact arithmetic cannot, and the hybrid driver would rather fall
	// back to the exact solver than spin.
	stallFactor = 200
)

// floatStalled is the internal status for a float solve that hit its
// iteration cap; it never escapes this package.
const floatStalled = Status(-1)

// SolveFloat solves the problem with a float64 two-phase tableau simplex.
// Dantzig (most-negative reduced cost) pricing is used initially, falling
// back to Bland's rule when the iteration count suggests cycling. The result
// carries the usual caveats of floating-point LP; exact callers go through
// SolveHybrid (which verifies float results exactly) or SolveRat instead.
func SolveFloat(p *Problem) (*FloatSolution, error) {
	sf, err := newStdForm(p)
	if err != nil {
		return nil, err
	}
	run := runFloat(sf)
	switch run.status {
	case Optimal, Infeasible, Unbounded:
	case floatStalled:
		return nil, fmt.Errorf("lp: float simplex stalled after %d iterations", run.iterations)
	default:
		return nil, fmt.Errorf("lp: float simplex reported %v", run.status)
	}
	return &FloatSolution{Status: run.status, Objective: run.objective, X: run.x}, nil
}

// floatRun is the full outcome of a float solve, including the final basis
// the hybrid driver verifies exactly. For an Infeasible outcome the basis is
// the phase-1 optimal basis, whose dual vector is a Farkas infeasibility
// certificate candidate.
type floatRun struct {
	status     Status
	objective  float64
	x          []float64 // structural values, valid when Optimal
	basis      []int     // basic column per row at termination
	iterations int
}

// runFloat executes the two-phase float simplex over the standard form.
func runFloat(sf *stdForm) *floatRun {
	t := newFloatTableau(sf)
	out := &floatRun{}
	if sf.numArt > 0 {
		phase1 := make([]float64, t.numCols)
		for j := sf.artStart; j < t.numCols; j++ {
			phase1[j] = 1
		}
		t.setObjective(phase1)
		if status := t.iterate(); status != Optimal {
			// Phase 1 is bounded below by 0; "unbounded" here is a float
			// artifact, so report a stall rather than a wrong status.
			out.status, out.basis, out.iterations = floatStalled, t.basis, t.iterations
			return out
		}
		if t.objectiveValue() > floatEps*float64(len(t.rowsData)+1) {
			out.status, out.basis, out.iterations = Infeasible, t.basis, t.iterations
			return out
		}
		t.evictArtificials()
	}
	phase2 := make([]float64, t.numCols)
	for j := 0; j < sf.p.numVars; j++ {
		phase2[j], _ = sf.p.objective[j].Float64()
	}
	t.setObjective(phase2)
	status := t.iterate()
	out.status, out.basis, out.iterations = status, t.basis, t.iterations
	if status != Optimal {
		return out
	}
	out.objective = t.objectiveValue()
	out.x = make([]float64, sf.p.numVars)
	for r, bv := range t.basis {
		if bv < sf.p.numVars {
			out.x[bv] = t.rhsData[r]
		}
	}
	return out
}

type floatTableau struct {
	numCols    int
	artStart   int
	rowsData   [][]float64
	rhsData    []float64
	basis      []int
	banned     []bool
	obj        []float64
	objRHS     float64
	iterations int
	nz         []int // scratch: nonzero columns of the current pivot row
}

// newFloatTableau converts the standard form to float64.
func newFloatTableau(sf *stdForm) *floatTableau {
	t := &floatTableau{
		numCols:  sf.numCols,
		artStart: sf.artStart,
		rowsData: make([][]float64, sf.m),
		rhsData:  make([]float64, sf.m),
		basis:    append([]int(nil), sf.basis0...),
		banned:   make([]bool, sf.numCols),
	}
	for j := sf.artStart; j < sf.numCols; j++ {
		t.banned[j] = true
	}
	for i := range sf.rows {
		row := make([]float64, sf.numCols)
		src := &sf.rows[i]
		for k, j := range src.ind {
			row[j], _ = src.val[k].Float64()
		}
		t.rowsData[i] = row
		t.rhsData[i], _ = sf.rhs[i].Float64()
	}
	return t
}

func (t *floatTableau) setObjective(c []float64) {
	t.obj = make([]float64, t.numCols)
	copy(t.obj, c)
	t.objRHS = 0
	for r, bv := range t.basis {
		f := t.obj[bv]
		if f == 0 {
			continue
		}
		row := t.rowsData[r]
		for j := 0; j < t.numCols; j++ {
			t.obj[j] -= f * row[j]
		}
		t.objRHS -= f * t.rhsData[r]
	}
}

func (t *floatTableau) objectiveValue() float64 { return -t.objRHS }

func (t *floatTableau) iterate() Status {
	perimeter := len(t.rowsData) + t.numCols
	maxDantzig := blandTrigger * perimeter
	maxIter := stallFactor * perimeter
	for iter := 0; ; iter++ {
		if iter > maxIter {
			return floatStalled
		}
		t.iterations++
		bland := iter > maxDantzig
		enter := -1
		best := -floatEps
		for j := 0; j < t.numCols; j++ {
			if t.banned[j] || t.obj[j] >= -floatEps {
				continue
			}
			if bland {
				enter = j
				break
			}
			if t.obj[j] < best {
				best = t.obj[j]
				enter = j
			}
		}
		if enter == -1 {
			return Optimal
		}
		leave := -1
		bestRatio := math.Inf(1)
		for r := 0; r < len(t.rowsData); r++ {
			a := t.rowsData[r][enter]
			if a <= floatEps {
				continue
			}
			ratio := t.rhsData[r] / a
			if ratio < bestRatio-floatEps ||
				(ratio < bestRatio+floatEps && (leave == -1 || t.basis[r] < t.basis[leave])) {
				leave = r
				bestRatio = ratio
			}
		}
		if leave == -1 {
			return Unbounded
		}
		t.pivot(leave, enter)
	}
}

// pivot makes column enter basic in row leave. Every other row and the
// objective change only where the pivot row is nonzero (x −= f·0 is x), and
// the range LPs keep that row sparse, so its nonzero columns are collected
// once and the sweeps visit only those.
func (t *floatTableau) pivot(leave, enter int) {
	prow := t.rowsData[leave]
	inv := 1 / prow[enter]
	nz := t.nz[:0]
	for j, v := range prow {
		if v != 0 {
			prow[j] = v * inv
			nz = append(nz, j)
		}
	}
	t.nz = nz
	prow[enter] = 1 // avoid drift on the pivot element
	t.rhsData[leave] *= inv
	for r := range t.rowsData {
		if r == leave {
			continue
		}
		f := t.rowsData[r][enter]
		if f == 0 {
			continue
		}
		row := t.rowsData[r]
		for _, j := range nz {
			row[j] -= f * prow[j]
		}
		row[enter] = 0
		t.rhsData[r] -= f * t.rhsData[leave]
		if t.rhsData[r] < 0 && t.rhsData[r] > -floatEps {
			t.rhsData[r] = 0
		}
	}
	if f := t.obj[enter]; f != 0 {
		for _, j := range nz {
			t.obj[j] -= f * prow[j]
		}
		t.obj[enter] = 0
		t.objRHS -= f * t.rhsData[leave]
	}
	t.basis[leave] = enter
}

func (t *floatTableau) evictArtificials() {
	for r, bv := range t.basis {
		if bv < t.artStart {
			continue
		}
		for j := 0; j < t.artStart; j++ {
			if math.Abs(t.rowsData[r][j]) > floatEps {
				t.pivot(r, j)
				break
			}
		}
	}
}
