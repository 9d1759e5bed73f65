package lp

import (
	"fmt"
	"slices"

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
	// vectors: colRows[j] lists the rows where column j is nonzero and
	// colVals[j] the corresponding values (aliases of rows' entries).
	// Built lazily by columns() — only the hybrid verifier needs it.
	colRows [][]int32
	colVals [][]exact.Q
}

// colNumbering hands out the slack/surplus and artificial columns of the
// standard form row by row. It is the one statement of the numbering: the
// exact form (newStdForm) and the directly filled float tableau
// (FloatTableau.Reset) both walk it, which is what lets a basis found on one
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

// newStdForm normalizes p. It fails only on malformed rows (a column
// mentioned twice).
func newStdForm(p *Problem) (*stdForm, error) {
	m := len(p.rows)
	senses := make([]Sense, m)
	for i, r := range p.rows {
		senses[i] = r.sense
		if r.rhs.Sign() < 0 {
			senses[i] = flip(r.sense)
		}
	}
	num := numberCols(p.NumVars(), senses)
	sf := &stdForm{
		m:        m,
		numVars:  p.NumVars(),
		numCols:  num.numCols,
		artStart: num.artStart,
		numArt:   num.numCols - num.artStart,
		rows:     make([]spVec, m),
		rhs:      make([]exact.Q, m),
		basis0:   make([]int, m),
		cost:     make([]exact.Q, num.numCols),
	}
	copy(sf.cost, p.objective)
	// Every row is cut from one index and one value array, at its final
	// width: its terms, then its slack or surplus, then its artificial.
	width := func(i int) int {
		if senses[i] == GE {
			return len(p.rows[i].terms) + 2
		}
		return len(p.rows[i].terms) + 1
	}
	size := 0
	for i := range p.rows {
		size += width(i)
	}
	ind, val := make([]int, size), make([]exact.Q, size)

	one, negOne := exact.Int(1), exact.Int(-1)
	byCol := func(a, b TermQ) int { return a.Col - b.Col }
	for i, r := range p.rows {
		neg := r.rhs.Sign() < 0
		// Rows built in column order (the range LPs' are) are read in place.
		terms := r.terms
		if !slices.IsSortedFunc(terms, byCol) {
			terms = slices.Clone(terms)
			slices.SortFunc(terms, byCol)
		}
		n := width(i)
		row := spVec{ind: ind[:0:n], val: val[:0:n]}
		ind, val = ind[n:], val[n:]
		for k, t := range terms {
			if k > 0 && terms[k-1].Col == t.Col {
				return nil, fmt.Errorf("lp: row %d %q mentions column %d twice", i, r.name, t.Col)
			}
			v := t.Coef
			if neg {
				v = v.Neg()
			}
			row.ind = append(row.ind, t.Col)
			row.val = append(row.val, v)
		}
		b := r.rhs
		if neg {
			b = b.Neg()
		}
		slack, art := num.next(senses[i])
		if slack >= 0 {
			row.ind = append(row.ind, slack)
			if senses[i] == LE {
				row.val = append(row.val, one)
			} else {
				row.val = append(row.val, negOne)
			}
			sf.basis0[i] = slack
		}
		if art >= 0 {
			row.ind = append(row.ind, art)
			row.val = append(row.val, one)
			sf.basis0[i] = art
		}
		sf.rows[i] = row
		sf.rhs[i] = b
	}

	return sf, nil
}

// columns builds (once) the column-major view of the matrix.
func (sf *stdForm) columns() {
	if sf.colRows != nil {
		return
	}
	// Count first, so every column is cut at its final length from one
	// backing array per view and the fill below appends in place.
	counts := make([]int, sf.numCols)
	nnz := 0
	for i := range sf.rows {
		for _, j := range sf.rows[i].ind {
			counts[j]++
		}
		nnz += len(sf.rows[i].ind)
	}
	rows, vals := make([]int32, nnz), make([]exact.Q, nnz)
	sf.colRows = make([][]int32, sf.numCols)
	sf.colVals = make([][]exact.Q, sf.numCols)
	off := 0
	for j, c := range counts {
		sf.colRows[j] = rows[off : off : off+c]
		sf.colVals[j] = vals[off : off : off+c]
		off += c
	}
	for i := range sf.rows {
		row := &sf.rows[i]
		for k, j := range row.ind {
			sf.colRows[j] = append(sf.colRows[j], int32(i))
			sf.colVals[j] = append(sf.colVals[j], row.val[k])
		}
	}
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
	for k, r := range sf.colRows[j] {
		if y[r].Sign() != 0 {
			out = out.Add(y[r].Mul(sf.colVals[j][k]))
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
