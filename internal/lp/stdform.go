package lp

import (
	"fmt"
	"slices"
	"strings"

	"divflow/internal/exact"
)

// stdForm is the standard equality form shared by every solver in this
// package:
//
//	min c.x   subject to   A x = b,   x >= 0,   b >= 0
//
// with the column layout [structural | slack/surplus | artificial]. Rows
// whose RHS is negative are negated (flipping their sense), LE rows gain a
// +1 slack, GE rows a -1 surplus plus a +1 artificial, EQ rows a +1
// artificial. Building it once per solve gives the float simplex, the exact
// simplex and the hybrid verifier an identical column numbering, so a basis
// discovered by one can be handed to another.
type stdForm struct {
	m        int // number of rows
	numVars  int // structural columns
	numCols  int // structural + slack + artificial
	artStart int // first artificial column
	numArt   int

	rows   []spVec   // sparse rows over all columns (artificials included)
	rhs    []exact.Q // normalized, >= 0
	basis0 []int     // initial basic column per row (slack or artificial)
	cost   []exact.Q // phase-2 objective, dense over all columns

	// Column-major view of the matrix for dot products against dual
	// vectors: column j's nonzeros sit at colStart[j]:colStart[j+1] of colRow
	// (their rows, ascending) and colVal (their values). Built by columns() —
	// only the hybrid verifier needs it.
	colStart, colRow []int32
	colVal           []exact.Q

	fac basisFactor   // the last factorization of the form's columns (factorize)
	tab *FloatTableau // where the engine's float pass runs: the workspace's (runFloat)
}

// colNumbering hands out the slack/surplus and artificial columns of the
// standard form row by row. It is the one statement of the numbering: the
// exact fill (ExactFill, which newStdForm uses) and the directly filled float
// tableau (FloatTableau.Reset) both walk it, which is what lets a basis found on one
// index the other.
type colNumbering struct {
	artStart, numCols int // first artificial column; all columns
	slack, art        int // next unassigned of each kind
}

// numberCols sizes the numbering for rows of the given senses (already
// flipped where a negative RHS negates the row).
func numberCols(numVars int, senses []Sense) colNumbering {
	n := colNumbering{slack: numVars, artStart: numVars}
	numArt := 0
	for _, s := range senses {
		if s != EQ {
			n.artStart++
		}
		if s != LE {
			numArt++
		}
	}
	n.art, n.numCols = n.artStart, n.artStart+numArt
	return n
}

// next numbers the following row: an LE row gains a +1 slack, a GE row a −1
// surplus and a +1 artificial, an EQ row a +1 artificial; −1 stands for
// none. The row's initial basic column is its artificial when it has one,
// its slack otherwise.
func (n *colNumbering) next(s Sense) (slack, art int) {
	slack, art = -1, -1
	if s != EQ {
		slack = n.slack
		n.slack++
	}
	if s != LE {
		art = n.art
		n.art++
	}
	return slack, art
}

// ExactFill writes a standard form directly: the exact twin of a FloatTableau
// filled by Reset, Set and SetRHS. A caller that already knows its rows in
// order — core's range LPs — fills one in place of building a Problem that
// would only be copied into the form, and solves it with Solve; newStdForm
// fills one from a Problem's rows, so a standard form has this one
// construction. Its columns are numbered by numberCols, as a FloatTableau's
// are, so a basis a direct float fill of the same rows ended on indexes it.
//
// Rows arrive in order and each row's terms in increasing column order; a
// zero coefficient is dropped, as AddRowQ drops it. As with a FloatTableau,
// the caller owes what newStdForm does for a Problem: no right-hand side may
// be negative (negate the row and flip its sense first). A fill that breaks
// either rule is not solved: Solve returns the error.
type ExactFill struct {
	sf     stdForm
	num    colNumbering
	senses []Sense
	ind    []int     // the rows' entries, back to back…
	val    []exact.Q // …and their values
	row    int       // the row being written; the ones before it are closed
	start  int       // where its entries begin in ind and val
	err    error
}

// Reset starts a form of numVars structural columns and one row per sense,
// every coefficient, right-hand side and cost zero. terms is how many nonzero
// structural coefficients the caller will write: room for them, and for the
// slack, surplus and artificial entries, is reserved at once (more is still
// correct). The fill keeps senses, which the caller leaves as they are until
// the form is solved, and discards the form it held before, whose arrays —
// and those of its column view and factorization — it writes the new one in.
func (f *ExactFill) Reset(numVars int, senses []Sense, terms int) {
	m, sf := len(senses), &f.sf
	f.num = numberCols(numVars, senses)
	sf.m, sf.numVars, sf.numCols, sf.artStart = m, numVars, f.num.numCols, f.num.artStart
	sf.numArt = f.num.numCols - f.num.artStart
	sf.rows, sf.rhs, sf.basis0 = zeroed(sf.rows, m), zeroed(sf.rhs, m), zeroed(sf.basis0, m)
	sf.cost, sf.colStart = zeroed(sf.cost, sf.numCols), sf.colStart[:0]
	f.senses = senses
	size := terms + f.num.numCols - numVars // every slack, surplus and artificial is one entry
	f.ind, f.val = slices.Grow(f.ind[:0], size), slices.Grow(f.val[:0], size)
	f.row, f.start, f.err = 0, 0, nil
}

// Set writes the coefficient of structural column col in row: a row at or
// after the last one written, a column after the row's last.
func (f *ExactFill) Set(row, col int, v exact.Q) {
	if f.err != nil || v.Sign() == 0 {
		return
	}
	switch {
	case row < f.row || row >= f.sf.m:
		f.err = fmt.Errorf("lp: row %d written after row %d, of %d", row, f.row, f.sf.m)
		return
	case col < 0 || col >= f.sf.numVars:
		f.err = fmt.Errorf("lp: row %d references unknown column %d", row, col)
		return
	}
	f.close(row)
	if len(f.ind) > f.start && f.ind[len(f.ind)-1] >= col {
		f.err = fmt.Errorf("lp: row %d writes column %d after column %d", row, col, f.ind[len(f.ind)-1])
		return
	}
	f.ind = append(f.ind, col)
	f.val = append(f.val, v)
}

// SetRHS writes the right-hand side of row, which must not be negative.
func (f *ExactFill) SetRHS(row int, v exact.Q) {
	if f.err != nil {
		return
	}
	if row < 0 || row >= f.sf.m || v.Sign() < 0 {
		f.err = fmt.Errorf("lp: right-hand side %v of row %d, of %d: want a row of the form, never negative", v, row, f.sf.m)
		return
	}
	f.sf.rhs[row] = v
}

// SetCost writes the objective coefficient of structural column col.
func (f *ExactFill) SetCost(col int, v exact.Q) {
	if f.err != nil {
		return
	}
	if col < 0 || col >= f.sf.numVars {
		f.err = fmt.Errorf("lp: objective references unknown column %d", col)
		return
	}
	f.sf.cost[col] = v
}

// close closes every row before row: each gains its slack or surplus and its
// artificial, numbered in row order, and is cut from the shared arrays at its
// final width.
func (f *ExactFill) close(row int) {
	for ; f.row < row; f.row++ {
		s := f.senses[f.row]
		slack, art := f.num.next(s)
		if slack >= 0 {
			f.ind = append(f.ind, slack)
			if s == LE {
				f.val = append(f.val, exact.Int(1))
			} else {
				f.val = append(f.val, exact.Int(-1))
			}
			f.sf.basis0[f.row] = slack
		}
		if art >= 0 {
			f.ind = append(f.ind, art)
			f.val = append(f.val, exact.Int(1))
			f.sf.basis0[f.row] = art
		}
		end := len(f.ind)
		f.sf.rows[f.row] = spVec{ind: f.ind[f.start:end:end], val: f.val[f.start:end:end]}
		f.start = end
	}
}

// form closes the rows left open and returns the finished form, or the error
// of the first write that broke the fill's rules.
func (f *ExactFill) form() (*stdForm, error) {
	if f.err != nil {
		return nil, f.err
	}
	f.close(f.sf.m)
	return &f.sf, nil
}

// Solve solves the filled form exactly, as SolveHybridWarm solves a Problem
// of the same rows: warm is the basis a float solve of those rows ended on,
// or nil.
func (f *ExactFill) Solve(warm *Basis) (*Solution, error) {
	sf, err := f.form()
	if err != nil {
		return nil, err
	}
	return solveHybrid(sf, warm)
}

// Dump renders the finished form — its column numbering, initial basis, rows
// with their right-hand sides, and objective — for tests that hold two fills
// of the same rows to each other, and for debugging.
func (f *ExactFill) Dump() string {
	sf, err := f.form()
	if err != nil {
		return err.Error()
	}
	var b strings.Builder
	fmt.Fprintf(&b, "columns %d/%d/%d basis %v\n", sf.numVars, sf.artStart, sf.numCols, sf.basis0)
	for i, r := range sf.rows {
		for k, j := range r.ind {
			fmt.Fprintf(&b, "%s*x%d ", r.val[k], j)
		}
		fmt.Fprintf(&b, "= %s\n", sf.rhs[i])
	}
	b.WriteString("min")
	for j, c := range sf.cost {
		if c.Sign() != 0 {
			fmt.Fprintf(&b, " %s*x%d", c, j)
		}
	}
	b.WriteString("\n")
	return b.String()
}

// Fill is the standard form of p's rows, filled as a caller writing them
// directly would: what SolveHybrid and SolveRat solve p on. A row with a
// negative right-hand side is negated and its sense flipped, and terms out of
// column order are sorted; a column mentioned twice in a row breaks the
// fill's column order, which Solve reports.
func (p *Problem) Fill() *ExactFill {
	return p.fill(new(ExactFill))
}

// fill is Fill into f, which it returns.
func (p *Problem) fill(f *ExactFill) *ExactFill {
	senses := make([]Sense, len(p.rows))
	terms := 0
	for i, r := range p.rows {
		senses[i] = r.sense
		if r.rhs.Sign() < 0 {
			senses[i] = flip(r.sense)
		}
		terms += len(r.terms)
	}
	f.Reset(p.NumVars(), senses, terms)
	for j, c := range p.objective {
		f.SetCost(j, c)
	}
	byCol := func(a, b TermQ) int { return a.Col - b.Col }
	for i, r := range p.rows {
		neg := r.rhs.Sign() < 0
		// Rows built in column order are read in place.
		terms := r.terms
		if !slices.IsSortedFunc(terms, byCol) {
			terms = slices.Clone(terms)
			slices.SortFunc(terms, byCol)
		}
		for _, t := range terms {
			v := t.Coef
			if neg {
				v = v.Neg()
			}
			f.Set(i, t.Col, v)
		}
		b := r.rhs
		if neg {
			b = b.Neg()
		}
		f.SetRHS(i, b)
	}
	return f
}

// newStdForm normalizes p: the form Fill makes of its rows.
func newStdForm(p *Problem) (*stdForm, error) {
	return p.Fill().form()
}

// columns builds the column-major view of the matrix, once per form: a
// counting sort of the rows' entries into the arrays the last form left.
func (sf *stdForm) columns() {
	if len(sf.colStart) == sf.numCols+1 {
		return
	}
	start := zeroed(sf.colStart, sf.numCols+1)
	for i := range sf.rows {
		for _, j := range sf.rows[i].ind {
			start[j+1]++
		}
	}
	for j := range sf.numCols {
		start[j+1] += start[j]
	}
	sf.colRow, sf.colVal = zeroed(sf.colRow, int(start[sf.numCols])), zeroed(sf.colVal, int(start[sf.numCols]))
	// start[j] walks column j's slots, ending on column j+1's first.
	for i := range sf.rows {
		row := &sf.rows[i]
		for k, j := range row.ind {
			sf.colRow[start[j]], sf.colVal[start[j]] = int32(i), row.val[k]
			start[j]++
		}
	}
	copy(start[1:], start)
	start[0], sf.colStart = 0, start
}

// col is column j's nonzeros: their rows and values.
func (sf *stdForm) col(j int) ([]int32, []exact.Q) {
	a, b := sf.colStart[j], sf.colStart[j+1]
	return sf.colRow[a:b], sf.colVal[a:b]
}

// flip mirrors a sense across a row negation.
func flip(s Sense) Sense {
	switch s {
	case LE:
		return GE
	case GE:
		return LE
	default:
		return EQ
	}
}

// colDot returns y . A_j over the sparse column j.
func (sf *stdForm) colDot(y []exact.Q, j int) exact.Q {
	var out exact.Q
	rows, vals := sf.col(j)
	for k, r := range rows {
		if y[r].Sign() != 0 {
			out = out.Add(y[r].Mul(vals[k]))
		}
	}
	return out
}

// validBasis reports whether basis could index a basis of this form: one
// column per row, all in range, no duplicates.
func (sf *stdForm) validBasis(basis []int) bool {
	if len(basis) != sf.m {
		return false
	}
	seen := make([]bool, sf.numCols)
	for _, c := range basis {
		if c < 0 || c >= sf.numCols || seen[c] {
			return false
		}
		seen[c] = true
	}
	return true
}
