package lp

import "divflow/internal/exact"

// basisFactor is an exact sparse factorization of the m x m basis matrix B
// whose columns are the chosen columns of the standard form. It answers the
// two linear systems the hybrid verifier needs — B x = b for the primal
// basic values and Bᵀ y = c_B for the dual vector.
//
// Most basic columns of the LPs solved here are slacks, surpluses or
// artificials (one nonzero) and most rows hold one basic structural, so B is
// a permuted triangle but for a small block. factorize finds that
// permutation by peeling singletons: a column with one nonzero among the
// rows still active pivots there (no other active row mentions its variable,
// so the variable is read off that row once every other one is known), and a
// row with one nonzero among the columns still active pivots there (its
// variable is known before any other). A pivot removes its row and column,
// which may make further singletons; the initial ones are taken columns
// first, each kind by ascending index, the ones a removal makes in the order
// they appear. A singleton pivot eliminates nothing — there is no second
// active entry in its column, or none in its row — so the peel creates no
// fill-in and is stored as its pivot sequence alone, over the standard
// form's own rationals. Only the bump, the rows and columns no singleton
// reached, is LU-factored (row pivoting, P·B' = L·U with L unit lower
// triangular) on a dense copy. With b bump rows the factorization costs
// O(nnz(B) + b³) rational operations and a solve O(nnz(B) + b²).
//
// Solved in the order row pivots (as peeled), bump, column pivots (reverse),
// each unknown of B x = b meets only known ones in its pivot row: a column
// peeled before a row is zero on that row, or the row would have been the
// column's pivot. Bᵀ y = c mirrors it — a column singleton of B is a row
// singleton of Bᵀ.
type basisFactor struct {
	// B by row and by column, over the standard form's own rationals: a row's
	// entries are indexed by basis position, a column's (one per basis
	// position) by row.
	rows, cols [][]factorEntry

	rowPiv, colPiv []factorPivot // the peel, each kind in the order taken

	// The bump: its rows and basis positions ascending, their inverses (−1
	// outside the bump), and the combined L\U of its dense copy, b x b
	// row-major, whose k-th elimination row is physical row perm[k].
	bumpRows, bumpCols   []int32
	bumpRowAt, bumpColAt []int32
	lu                   []exact.Q
	perm                 []int32
}

// factorEntry is one nonzero of a basis row or column: where it sits along
// that line and the standard form's own value.
type factorEntry struct {
	idx int32
	val exact.Q
}

// factorPivot is one singleton pivot: a row and the basis position of the
// column pivoting on it.
type factorPivot struct{ row, pos int32 }

// factorize factors the basis columns, or returns nil when the chosen columns
// are singular (not a basis). sf.columns() must have run.
func factorize(sf *stdForm, basis []int) *basisFactor {
	m := sf.m
	f := &basisFactor{rows: make([][]factorEntry, m), cols: make([][]factorEntry, m)}

	// Both views are cut from one backing array; rowCnt and colCnt count the
	// entries of a line still active, −1 marking a pivoted line.
	nnz := 0
	for _, col := range basis {
		nnz += len(sf.colRows[col])
	}
	entries := make([]factorEntry, 2*nnz)
	rowCnt, colCnt := make([]int32, m), make([]int32, m)
	for k, col := range basis {
		n := len(sf.colRows[col])
		f.cols[k], entries = entries[:n:n], entries[n:]
		for t, r := range sf.colRows[col] {
			f.cols[k][t] = factorEntry{r, sf.colVals[col][t]}
			rowCnt[r]++
		}
		colCnt[k] = int32(n)
	}
	for i, n := range rowCnt {
		f.rows[i], entries = entries[:0:n], entries[n:]
	}
	for k, col := range f.cols {
		for _, e := range col {
			f.rows[e.idx] = append(f.rows[e.idx], factorEntry{int32(k), e.val})
		}
	}

	// The work queue holds basis position k as k and row i as m+i; a line
	// enters it once, when its count reaches one. An empty line, at the start
	// or once the peel has emptied it, means the columns are dependent.
	queue := make([]int32, 0, 2*m)
	for base, cnt := range [][]int32{colCnt, rowCnt} {
		for i, n := range cnt {
			if n == 0 {
				return nil
			} else if n == 1 {
				queue = append(queue, int32(base*m+i))
			}
		}
	}
	// active is the one entry of a singleton line still active; retire takes
	// a pivoted line out of the counts of the lines crossing it.
	active := func(line []factorEntry, cnt []int32) int32 {
		for _, e := range line {
			if cnt[e.idx] > 0 {
				return e.idx
			}
		}
		panic("lp: a singleton line with no active entry")
	}
	retire := func(line []factorEntry, cnt []int32, base int) bool {
		for _, e := range line {
			if cnt[e.idx] <= 0 {
				continue
			}
			if cnt[e.idx]--; cnt[e.idx] == 0 {
				return false
			} else if cnt[e.idx] == 1 {
				queue = append(queue, int32(base)+e.idx)
			}
		}
		return true
	}
	for head := 0; head < len(queue); head++ {
		var p factorPivot
		if c := queue[head]; int(c) < m {
			if colCnt[c] != 1 {
				continue // pivoted since, on a row singleton
			}
			p = factorPivot{row: active(f.cols[c], rowCnt), pos: c}
			f.colPiv = append(f.colPiv, p)
		} else {
			r := c - int32(m)
			if rowCnt[r] != 1 {
				continue // pivoted since, on a column singleton
			}
			p = factorPivot{row: r, pos: active(f.rows[r], colCnt)}
			f.rowPiv = append(f.rowPiv, p)
		}
		rowCnt[p.row], colCnt[p.pos] = -1, -1
		if !retire(f.rows[p.row], colCnt, 0) || !retire(f.cols[p.pos], rowCnt, m) {
			return nil
		}
	}

	// What no singleton reached is the bump. Every pivot took one row and one
	// column, so it is square.
	f.bumpRowAt, f.bumpColAt = rowCnt, colCnt // reused: the counts are spent
	for i := range f.bumpRowAt {
		if f.bumpRowAt[i] > 0 {
			f.bumpRowAt[i] = int32(len(f.bumpRows))
			f.bumpRows = append(f.bumpRows, int32(i))
		}
		if f.bumpColAt[i] > 0 {
			f.bumpColAt[i] = int32(len(f.bumpCols))
			f.bumpCols = append(f.bumpCols, int32(i))
		}
	}
	if !f.factorBump() {
		return nil
	}
	return f
}

// factorBump copies the bump out of the basis and eliminates it in place. It
// reports false when the bump, and so the basis, is singular.
func (f *basisFactor) factorBump() bool {
	b := len(f.bumpRows)
	f.lu = make([]exact.Q, b*b)
	f.perm = make([]int32, b)
	for r, i := range f.bumpRows {
		f.perm[r] = int32(r)
		for _, e := range f.rows[i] {
			if c := f.bumpColAt[e.idx]; c >= 0 {
				f.lu[r*b+int(c)] = e.val
			}
		}
	}
	for k := 0; k < b; k++ {
		// Pick the sparsest-looking nonzero pivot in the column: exact
		// elimination suffers no instability, but small pivots keep the
		// intermediate rationals short.
		pivot := -1
		best := 0
		for p := k; p < b; p++ {
			e := f.lu[int(f.perm[p])*b+k]
			if e.Sign() == 0 {
				continue
			}
			if sz := e.BitLen(); pivot == -1 || sz < best {
				pivot, best = p, sz
			}
		}
		if pivot == -1 {
			return false // singular
		}
		f.perm[k], f.perm[pivot] = f.perm[pivot], f.perm[k]
		prow := f.luRow(k)
		inv := prow[k].Inv()
		for p := k + 1; p < b; p++ {
			row := f.luRow(p)
			if row[k].Sign() == 0 {
				continue
			}
			factor := row[k].Mul(inv)
			row[k] = factor // stored L entry
			for j := k + 1; j < b; j++ {
				row[j] = subMul(row[j], factor, prow[j])
			}
		}
	}
	return true
}

// luRow is the k-th row of the bump's L\U in elimination order.
func (f *basisFactor) luRow(k int) []exact.Q {
	b := len(f.perm)
	return f.lu[int(f.perm[k])*b:][:b]
}

// subMul returns acc − a·x, skipping the product when x is zero.
func subMul(acc, a, x exact.Q) exact.Q {
	if x.Sign() == 0 {
		return acc
	}
	return acc.Sub(a.Mul(x))
}

// readOff solves the equation a line of B (or of Bᵀ) states for its pivot
// unknown: v[piv] = (rhs − Σ val·v[idx] over the line's other entries) / the
// pivot's value. Solved in basisFactor's order, every other unknown the line
// mentions is known by then.
func readOff(line []factorEntry, piv int32, rhs exact.Q, v []exact.Q) {
	acc, d := rhs, exact.Q{}
	for _, e := range line {
		if e.idx == piv {
			d = e.val
		} else {
			acc = subMul(acc, e.val, v[e.idx])
		}
	}
	v[piv] = acc.Quo(d)
}

// solve returns x with B x = b, indexed by basis position: the row pivots
// as peeled, the bump, the column pivots in reverse, each unknown read off a
// row of B. It writes only into its own result.
func (f *basisFactor) solve(b []exact.Q) []exact.Q {
	x, z := make([]exact.Q, len(f.rows)), make([]exact.Q, len(f.bumpRows))
	for _, p := range f.rowPiv {
		readOff(f.rows[p.row], p.pos, b[p.row], x)
	}
	// The bump's right-hand side: b less what the row pivots fixed.
	for r, i := range f.bumpRows {
		z[r] = b[i]
		for _, e := range f.rows[i] {
			if f.bumpColAt[e.idx] < 0 {
				z[r] = subMul(z[r], e.val, x[e.idx])
			}
		}
	}
	// Forward L w = P z (unit diagonal), then backward U x = w, with w held
	// in the bump columns' slots of x.
	for k, pos := range f.bumpCols {
		w, row := z[f.perm[k]], f.luRow(k)
		for j := 0; j < k; j++ {
			w = subMul(w, row[j], x[f.bumpCols[j]])
		}
		x[pos] = w
	}
	for k := len(f.bumpCols) - 1; k >= 0; k-- {
		w, row := x[f.bumpCols[k]], f.luRow(k)
		for j := k + 1; j < len(row); j++ {
			w = subMul(w, row[j], x[f.bumpCols[j]])
		}
		x[f.bumpCols[k]] = w.Quo(row[k])
	}
	for t := len(f.colPiv) - 1; t >= 0; t-- {
		p := f.colPiv[t]
		readOff(f.rows[p.row], p.pos, b[p.row], x)
	}
	return x
}

// solveT returns y with Bᵀ y = c, indexed by row; c is indexed by basis
// position. The mirror image of solve: the column pivots as peeled, the bump
// transposed, the row pivots in reverse, each unknown read off a column of
// B. It writes only into its own result.
func (f *basisFactor) solveT(c []exact.Q) []exact.Q {
	y, z := make([]exact.Q, len(f.rows)), make([]exact.Q, len(f.bumpCols))
	for _, p := range f.colPiv {
		readOff(f.cols[p.pos], p.row, c[p.pos], y)
	}
	for k, pos := range f.bumpCols {
		z[k] = c[pos]
		for _, e := range f.cols[pos] {
			if f.bumpRowAt[e.idx] < 0 {
				z[k] = subMul(z[k], e.val, y[e.idx])
			}
		}
	}
	// With P·B' = L·U the bump's transpose is Uᵀ Lᵀ P: solve Uᵀ w = z
	// forward and Lᵀ v = w backward in place, then y = Pᵀ v.
	for k := range z {
		for j := 0; j < k; j++ {
			z[k] = subMul(z[k], z[j], f.luRow(j)[k])
		}
		z[k] = z[k].Quo(f.luRow(k)[k])
	}
	for k := len(z) - 1; k >= 0; k-- {
		for j := k + 1; j < len(z); j++ {
			z[k] = subMul(z[k], z[j], f.luRow(j)[k])
		}
	}
	for k := range z {
		y[f.bumpRows[f.perm[k]]] = z[k]
	}
	for t := len(f.rowPiv) - 1; t >= 0; t-- {
		p := f.rowPiv[t]
		readOff(f.cols[p.pos], p.row, c[p.pos], y)
	}
	return y
}
