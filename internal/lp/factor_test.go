package lp

import (
	"math/rand"
	"slices"
	"testing"

	"divflow/internal/exact"
)

// mulB returns B·x by row, over the standard form's columns (not the
// factor's own row view).
func mulB(sf *stdForm, basis []int, x []exact.Q) []exact.Q {
	out := make([]exact.Q, sf.m)
	for k, col := range basis {
		rows, vals := sf.col(col)
		for t, r := range rows {
			out[r] = out[r].Add(vals[t].Mul(x[k]))
		}
	}
	return out
}

// mulBT returns Bᵀ·y by basis position.
func mulBT(sf *stdForm, basis []int, y []exact.Q) []exact.Q {
	out := make([]exact.Q, len(basis))
	for k, col := range basis {
		out[k] = sf.colDot(y, col)
	}
	return out
}

func equalQs(a, b []exact.Q) bool {
	return slices.EqualFunc(a, b, func(x, y exact.Q) bool { return x.Cmp(y) == 0 })
}

// denseSingular is the reference answer to "is this column set a basis":
// plain Gaussian elimination on a dense copy.
func denseSingular(sf *stdForm, basis []int) bool {
	m := sf.m
	a := make([][]exact.Q, m)
	for i := range a {
		a[i] = make([]exact.Q, m)
	}
	for k, col := range basis {
		rows, vals := sf.col(col)
		for t, r := range rows {
			a[r][k] = vals[t]
		}
	}
	for k := 0; k < m; k++ {
		p := k
		for p < m && a[p][k].Sign() == 0 {
			p++
		}
		if p == m {
			return true
		}
		a[k], a[p] = a[p], a[k]
		for i := k + 1; i < m; i++ {
			if a[i][k].Sign() == 0 {
				continue
			}
			q := a[i][k].Quo(a[k][k])
			for j := k; j < m; j++ {
				a[i][j] = a[i][j].Sub(q.Mul(a[k][j]))
			}
		}
	}
	return false
}

// randomQs draws n small rationals, zeros and negatives included.
func randomQs(rng *rand.Rand, n int) []exact.Q {
	out := make([]exact.Q, n)
	for i := range out {
		out[i] = exact.New(int64(rng.Intn(9)-4), int64(1+rng.Intn(4)))
		if rng.Intn(4) == 0 {
			out[i] = exact.Q{}
		}
	}
	return out
}

// checkFactor factors the column set and, when it is a basis, holds both
// solves to their systems by multiplication, for the given right-hand sides
// and for the form's own. It returns the factor (nil: singular), having
// checked that answer against dense elimination.
func checkFactor(t *testing.T, sf *stdForm, basis []int, b, c []exact.Q, label string) *basisFactor {
	t.Helper()
	sf.columns()
	rhs0, cost0, b0, c0 := slices.Clone(sf.rhs), slices.Clone(sf.cost), slices.Clone(b), slices.Clone(c)
	f := factorize(sf, basis)
	if singular := denseSingular(sf, basis); (f == nil) != singular {
		t.Fatalf("%s: factorize says singular=%v, dense elimination %v", label, f == nil, singular)
	}
	if f == nil {
		return nil
	}
	if len(f.bumpRows) != len(f.bumpCols) || len(f.rowPiv)+len(f.colPiv)+len(f.bumpRows) != sf.m {
		t.Fatalf("%s: %d row pivots, %d column pivots and a %d x %d bump on %d rows",
			label, len(f.rowPiv), len(f.colPiv), len(f.bumpRows), len(f.bumpCols), sf.m)
	}
	cB := make([]exact.Q, sf.m)
	for k, col := range basis {
		cB[k] = sf.cost[col]
	}
	for _, sys := range []struct{ b, c []exact.Q }{{b, c}, {sf.rhs, cB}} {
		x := f.solve(sys.b)
		if got := mulB(sf, basis, x); !equalQs(got, sys.b) {
			t.Fatalf("%s: B·solve(b) = %v, b = %v", label, got, sys.b)
		}
		y := f.solveT(sys.c)
		if got := mulBT(sf, basis, y); !equalQs(got, sys.c) {
			t.Fatalf("%s: Bᵀ·solveT(c) = %v, c = %v", label, got, sys.c)
		}
		if !equalQs(f.solve(sys.b), x) || !equalQs(f.solveT(sys.c), y) {
			t.Fatalf("%s: a second solve on the same factor disagrees with the first", label)
		}
	}
	if !equalQs(sf.rhs, rhs0) || !equalQs(sf.cost, cost0) || !equalQs(b, b0) || !equalQs(c, c0) {
		t.Fatalf("%s: a solve wrote through its input", label)
	}
	return f
}

// matrixForm is a standard form whose first len(a) columns are the columns
// of the square matrix a (EQ rows, right-hand sides 1..m), and those columns
// as the candidate basis.
func matrixForm(t *testing.T, a [][]int64) (*stdForm, []int) {
	t.Helper()
	p := NewProblem()
	basis := make([]int, len(a))
	for j := range a {
		basis[j] = p.AddVar("", rat(int64(j%3), 1))
	}
	for i, row := range a {
		var terms []Term
		for j, v := range row {
			if v != 0 {
				terms = append(terms, Term{j, rat(v, 1)})
			}
		}
		p.AddRow("", terms, EQ, rat(int64(i+1), 1))
	}
	sf, err := newStdForm(p)
	if err != nil {
		t.Fatal(err)
	}
	return sf, basis
}

// permuted returns a with its rows and columns shuffled.
func permuted(rng *rand.Rand, a [][]int64) [][]int64 {
	m := len(a)
	rp, cp := rng.Perm(m), rng.Perm(m)
	out := make([][]int64, m)
	for i := range out {
		out[i] = make([]int64, m)
		for j := range out[i] {
			out[i][j] = a[rp[i]][cp[j]]
		}
	}
	return out
}

func transposed(a [][]int64) [][]int64 {
	out := make([][]int64, len(a))
	for i := range out {
		out[i] = make([]int64, len(a))
		for j := range out[i] {
			out[i][j] = a[j][i]
		}
	}
	return out
}

// TestFactorSolvesExactly holds the sparse factorization to the two systems
// it exists to solve, by multiplication over big.Rat, on bases of every
// shape: the ones the engine meets (the float simplex's final basis, the
// all-slack/artificial starting basis), random column sets (most of them
// singular — the answer dense elimination gives must be factorize's), and
// hand-built matrices that reach each branch of the peel and each place a
// singular set is detected.
func TestFactorSolvesExactly(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	bases, singular, kernels, rows := 0, 0, 0, 0
	for n := 0; n < 300; n++ {
		var p *Problem
		if n%2 == 0 {
			p = schedulingProblem(rng)
		} else {
			p, _ = randomProblem(rng)
		}
		sf, err := newStdForm(p)
		if err != nil {
			t.Fatal(err)
		}
		candidates := [][]int{sf.basis0}
		if run := runFloat(sf); sf.validBasis(run.basis) {
			candidates = append(candidates, run.basis)
		}
		for extra := 0; extra < 4; extra++ {
			// Half the random sets perturb the starting basis by a few
			// columns (often still a basis), half are drawn blind.
			set := append([]int(nil), sf.basis0...)
			if extra%2 == 0 {
				for swaps := 1 + rng.Intn(3); swaps > 0; swaps-- {
					set[rng.Intn(sf.m)] = rng.Intn(sf.numCols)
				}
			} else {
				copy(set, rng.Perm(sf.numCols))
			}
			if sf.validBasis(set) {
				candidates = append(candidates, set)
			}
		}
		for _, basis := range candidates {
			f := checkFactor(t, sf, basis, randomQs(rng, sf.m), randomQs(rng, sf.m), p.Dump())
			if f == nil {
				singular++
				continue
			}
			bases++
			kernels += len(f.bumpRows)
			rows += sf.m
		}
	}
	if bases < 500 || singular < 100 {
		t.Errorf("%d bases and %d singular sets checked, want plenty of both", bases, singular)
	}
	t.Logf("%d bases (bump rows %d of %d), %d singular sets", bases, kernels, rows, singular)

	// kinds factors a hand-built matrix under a random permutation and
	// returns how the peel split it.
	kinds := func(label string, a [][]int64) (rowPiv, colPiv, kernel int) {
		t.Helper()
		sf, basis := matrixForm(t, permuted(rng, a))
		f := checkFactor(t, sf, basis, randomQs(rng, sf.m), randomQs(rng, sf.m), label)
		if f == nil {
			t.Fatalf("%s: reported singular", label)
		}
		return len(f.rowPiv), len(f.colPiv), len(f.bumpRows)
	}
	upper := [][]int64{
		{2, 1, 3, -1, 4},
		{0, 3, 1, 2, -2},
		{0, 0, -1, 5, 1},
		{0, 0, 0, 4, 3},
		{0, 0, 0, 0, 7},
	}
	// A triangle offers a singleton of each kind at every step (its first
	// column and its last row), so both kinds take part and nothing is left.
	for label, a := range map[string][][]int64{"upper triangle": upper, "lower triangle": transposed(upper)} {
		if r, c, k := kinds(label, a); k != 0 || r == 0 || c == 0 || r+c != 5 {
			t.Errorf("%s: %d row pivots, %d column pivots, kernel %d; want a full peel by both kinds", label, r, c, k)
		}
	}
	// A triangle bordered by a dense block peels by one kind alone: the
	// block's columns keep every triangle row at two entries or more (columns
	// only), or its rows every triangle column (rows only).
	bordered := [][]int64{
		{2, 1, 3, 1, 2},
		{0, 3, 1, 2, 1},
		{0, 0, -1, 1, 3},
		{0, 0, 0, 4, 3},
		{0, 0, 0, 5, 7},
	}
	if r, c, k := kinds("upper triangle over a block", bordered); r != 0 || c != 3 || k != 2 {
		t.Errorf("upper triangle over a block: %d row pivots, %d column pivots, kernel %d; want 0, 3, 2", r, c, k)
	}
	if r, c, k := kinds("lower triangle beside a block", transposed(bordered)); r != 3 || c != 0 || k != 2 {
		t.Errorf("lower triangle beside a block: %d row pivots, %d column pivots, kernel %d; want 3, 0, 2", r, c, k)
	}
	dense := make([][]int64, 6)
	for i := range dense {
		dense[i] = make([]int64, 6)
		for j := range dense[i] {
			dense[i][j] = int64(1 + (i+2*j)%3)
		}
		dense[i][i] += 20 // diagonally dominant: not singular
	}
	if r, c, k := kinds("dense", dense); r != 0 || c != 0 || k != 6 {
		t.Errorf("dense 6 x 6: %d row pivots, %d column pivots, kernel %d; want none and 6", r, c, k)
	}
	// Column 0 is a singleton on row 0; without them row 1 is one on column
	// 1; without those column 2 on row 2, then row 3 on column 3; a 2 x 2
	// block is left.
	mixed := [][]int64{
		{1, 2, 3, 1, 2, 1},
		{0, 3, 0, 0, 0, 0},
		{0, 1, 2, 1, 1, 2},
		{0, 2, 0, 5, 0, 0},
		{0, 1, 0, 2, 3, 1},
		{0, 4, 0, 1, 2, 5},
	}
	if r, c, k := kinds("alternating", mixed); r != 2 || c != 2 || k != 2 {
		t.Errorf("alternating peel: %d row pivots, %d column pivots, kernel %d; want 2, 2, 2", r, c, k)
	}

	// Singular sets, one per place the factorization can notice.
	zeroAfterPeels := [][]int64{ // rows 0-2 peel columns 0-2 away and row 3 is empty
		{1, 0, 0, 0, 0, 0},
		{0, 2, 0, 0, 0, 0},
		{0, 0, 3, 0, 0, 0},
		{1, 1, 1, 0, 0, 0},
		{0, 0, 0, 1, 2, 3},
		{0, 0, 0, 2, 1, 1},
	}
	for label, a := range map[string][][]int64{
		"an all-zero column":                    {{1, 0, 2}, {3, 0, 1}, {1, 0, 1}},
		"an all-zero row":                       {{1, 3, 1}, {0, 0, 0}, {2, 1, 1}},
		"a zero row after three peels":          zeroAfterPeels,
		"a zero column after three peels":       transposed(zeroAfterPeels),
		"two bump columns equal up to scale":    {{1, 2, 3, 1}, {2, 4, 1, 1}, {3, 6, 2, 5}, {1, 2, 1, 2}},
		"a bump row the sum of two others":      {{1, 2, 3, 1}, {2, 1, 1, 1}, {3, 3, 4, 2}, {1, 1, 5, 2}},
		"a singular block under a peeled strip": {{2, 1, 1, 1}, {0, 1, 2, 1}, {0, 2, 4, 2}, {0, 1, 1, 3}},
	} {
		sf, basis := matrixForm(t, a)
		if f := checkFactor(t, sf, basis, randomQs(rng, sf.m), randomQs(rng, sf.m), label); f != nil {
			t.Errorf("%s: factorized", label)
		}
	}
}
