package lp

import (
	"fmt"
	"math"
	"slices"

	"divflow/internal/exact"
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
// iteration cap or was handed an entry float64 cannot hold; it never escapes
// this package.
const floatStalled = Status(-1)

// FloatImage appends the float64 images of exact coefficients to dst, each
// the float64 nearest it. Callers that fill a FloatTableau themselves convert
// here, in bulk — a cost matrix once for all the tableaux it will fill — so
// that the exact packages hold no conversion of their own. A magnitude
// float64 cannot hold comes out ±Inf; Set and SetRHS flag it on its way into
// a tableau, as loading a standard form does, and the flagged tableau is not
// solved.
func FloatImage(dst []float64, vals []exact.Q) []float64 {
	for _, v := range vals {
		dst = append(dst, v.Float64())
	}
	return dst
}

// floatRun is the full outcome of a float solve, including the final basis
// the hybrid driver verifies exactly. For an Infeasible outcome the basis is
// the phase-1 optimal basis, whose dual vector is a Farkas infeasibility
// certificate candidate.
type floatRun struct {
	status     Status
	objective  float64
	basis      []int // basic column per row at termination: the tableau's own slice
	artStart   int   // of the tableau, with numCols what makes basis a Basis
	numCols    int
	iterations int
}

// solution reports the run to a caller outside the hybrid engine, which has
// no exact solver to fall back on: a stall is an error.
func (run *floatRun) solution() (*FloatSolution, error) {
	switch run.status {
	case Optimal, Infeasible, Unbounded:
	case floatStalled:
		return nil, fmt.Errorf("lp: float simplex stalled after %d iterations", run.iterations)
	default:
		return nil, fmt.Errorf("lp: float simplex reported %v", run.status)
	}
	basis := &Basis{m: len(run.basis), numCols: run.numCols, artStart: run.artStart, cols: slices.Clone(run.basis)}
	return &FloatSolution{Status: run.status, Objective: run.objective, Basis: basis}, nil
}

// runFloat executes the two-phase float simplex over the standard form, in
// its workspace's tableau (a form outside a workspace runs in one of its
// own). The run's basis is that tableau's: read it before the next fill.
func runFloat(sf *stdForm) *floatRun {
	t := sf.tab
	if t == nil {
		t = new(FloatTableau)
	}
	t.load(sf)
	return t.run()
}

// FloatTableau is the dense tableau of the float64 two-phase simplex:
// Dantzig (most-negative reduced cost) pricing, falling back to Bland's rule
// when the iteration count suggests cycling, under epsilon tolerances. Its
// columns are the standard form's, [structural | slack/surplus |
// artificial], and its rows lie row-major in one flat buffer.
//
// It is filled one of two ways. The hybrid engine loads an exact standard
// form (runFloat) and verifies the resulting basis exactly. A caller whose
// answer is no part of a proof — the probes of a milestone search — skips
// the exact Problem altogether: Reset, Set/SetRHS per coefficient, Minimize.
// Reset reuses the buffers, so such a caller keeps one tableau for all its
// solves; the zero value is ready to use. A Workspace holds one, which a
// search's probes fill and its exact solves' own float passes load in turn.
type FloatTableau struct {
	numVars    int // structural columns
	numCols    int
	artStart   int
	buf        []float64   // the rows, row-major
	rowsData   [][]float64 // rowsData[r] is buf[r*numCols:(r+1)*numCols]
	rhsData    []float64
	basis      []int
	cost       []float64 // phase-2 objective over the structural columns
	obj        []float64
	objRHS     float64
	iterations int
	nz         []int     // scratch: nonzero columns of the current pivot row…
	nzv        []float64 // …and their values, scaled
	nonFinite  bool      // an entry float64 cannot hold was written
}

// shape sizes the tableau to m all-zero rows.
func (t *FloatTableau) shape(m, numVars, artStart, numCols int) {
	t.numVars, t.artStart, t.numCols = numVars, artStart, numCols
	t.buf = zeroed(t.buf, m*numCols)
	t.rowsData = t.rowsData[:0]
	for r := 0; r < m; r++ {
		t.rowsData = append(t.rowsData, t.buf[r*numCols:(r+1)*numCols:(r+1)*numCols])
	}
	t.rhsData = zeroed(t.rhsData, m)
	t.basis = zeroed(t.basis, m)
	t.cost = zeroed(t.cost, numVars)
	t.obj = zeroed(t.obj, numCols)
	t.objRHS, t.iterations, t.nonFinite = 0, 0, false
}

// load converts the standard form to float64, flagging an entry float64
// cannot hold as Set does.
func (t *FloatTableau) load(sf *stdForm) {
	t.shape(sf.m, sf.numVars, sf.artStart, sf.numCols)
	copy(t.basis, sf.basis0)
	for i := range sf.rows {
		row, src := t.rowsData[i], &sf.rows[i]
		for k, j := range src.ind {
			row[j] = src.val[k].Float64()
			t.nonFinite = t.nonFinite || row[j]-row[j] != 0
		}
	}
	for _, v := range FloatImage(t.rhsData[:0], sf.rhs) {
		t.nonFinite = t.nonFinite || v-v != 0
	}
	for _, v := range FloatImage(t.cost[:0], sf.cost[:sf.numVars]) {
		t.nonFinite = t.nonFinite || v-v != 0
	}
}

// Reset shapes the tableau for numVars structural columns and one row per
// sense, all coefficients and right-hand sides zero, the slack, surplus and
// artificial columns numbered and filled in as ExactFill numbers and fills
// them. The caller follows with Set and SetRHS, and owes what newStdForm
// would otherwise do for it: no right-hand side may be negative (negate the
// row and flip its sense first).
func (t *FloatTableau) Reset(numVars int, senses []Sense) {
	num := numberCols(numVars, senses)
	t.shape(len(senses), numVars, num.artStart, num.numCols)
	for i, s := range senses {
		slack, art := num.next(s)
		if slack >= 0 {
			t.rowsData[i][slack] = 1
			if s == GE {
				t.rowsData[i][slack] = -1
			}
			t.basis[i] = slack
		}
		if art >= 0 {
			t.rowsData[i][art] = 1
			t.basis[i] = art
		}
	}
}

// Set writes the coefficient of structural column col in row.
func (t *FloatTableau) Set(row, col int, v float64) {
	t.nonFinite = t.nonFinite || v-v != 0
	t.rowsData[row][col] = v
}

// SetRHS writes the right-hand side of row.
func (t *FloatTableau) SetRHS(row int, v float64) {
	t.nonFinite = t.nonFinite || v-v != 0
	t.rhsData[row] = v
}

// Artificials reports how many artificial columns phase 1 has to drive out.
func (t *FloatTableau) Artificials() int { return t.numCols - t.artStart }

// Minimize solves the filled tableau for the minimum of structural column
// col. A tableau that was handed an infinite or NaN entry is not solved: it
// stalls (run), which is an error, and the caller cannot tell.
func (t *FloatTableau) Minimize(col int) (*FloatSolution, error) {
	t.cost[col] = 1
	return t.run().solution()
}

// run executes the two phases on the loaded or filled tableau. One that was
// handed an infinite or NaN entry stalls at once: pivoting over it would
// only spread it, and the exact engine decides.
func (t *FloatTableau) run() *floatRun {
	status := floatStalled
	if !t.nonFinite {
		status = t.phases()
	}
	out := &floatRun{status: status, basis: t.basis, artStart: t.artStart, numCols: t.numCols, iterations: t.iterations}
	if status == Optimal {
		out.objective = t.objectiveValue()
	}
	return out
}

func (t *FloatTableau) phases() Status {
	if t.artStart < t.numCols {
		clear(t.obj)
		for j := t.artStart; j < t.numCols; j++ {
			t.obj[j] = 1
		}
		t.priceOut()
		if t.iterate() != Optimal {
			// Phase 1 is bounded below by 0; "unbounded" here is a float
			// artifact, so report a stall rather than a wrong status.
			return floatStalled
		}
		if t.objectiveValue() > floatEps*float64(len(t.rowsData)+1) {
			return Infeasible
		}
		t.evictArtificials()
	}
	clear(t.obj)
	copy(t.obj, t.cost)
	t.priceOut()
	return t.iterate()
}

// priceOut turns the objective just written to obj into reduced costs over
// the current basis.
func (t *FloatTableau) priceOut() {
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

func (t *FloatTableau) objectiveValue() float64 { return -t.objRHS }

func (t *FloatTableau) iterate() Status {
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
		for j := 0; j < t.artStart; j++ { // an artificial never enters
			if t.obj[j] >= -floatEps {
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
func (t *FloatTableau) pivot(leave, enter int) {
	prow := t.rowsData[leave]
	inv := 1 / prow[enter]
	nz, nzv := t.nz[:0], t.nzv[:0]
	for j, v := range prow {
		if v == 0 {
			continue
		}
		if j == enter {
			v = 1 // avoid drift on the pivot element
		} else {
			v *= inv
		}
		prow[j] = v
		nz, nzv = append(nz, j), append(nzv, v)
	}
	t.nz, t.nzv = nz, nzv
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
		for k, j := range nz {
			row[j] -= f * nzv[k]
		}
		row[enter] = 0
		t.rhsData[r] -= f * t.rhsData[leave]
		if t.rhsData[r] < 0 && t.rhsData[r] > -floatEps {
			t.rhsData[r] = 0
		}
	}
	if f := t.obj[enter]; f != 0 {
		for k, j := range nz {
			t.obj[j] -= f * nzv[k]
		}
		t.obj[enter] = 0
		t.objRHS -= f * t.rhsData[leave]
	}
	t.basis[leave] = enter
}

func (t *FloatTableau) evictArtificials() {
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
