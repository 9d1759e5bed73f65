package llsched

import (
	"errors"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"divflow/internal/exact"
)

// The tests build every matrix and check every decomposition in math/big, and
// convert only at the call: the check shares no arithmetic with the exact.Q
// code it checks.

func r(a, b int64) *big.Rat { return big.NewRat(a, b) }

// decompose runs Decompose on the big.Rat matrix T, a nil entry reading as 0.
func decompose(T [][]*big.Rat, window, start *big.Rat) ([]Piece, error) {
	q := make([][]exact.Q, len(T))
	for i := range T {
		q[i] = make([]exact.Q, len(T[i]))
		for j := range T[i] {
			q[i][j] = exact.FromRat(T[i][j])
		}
	}
	return Decompose(q, exact.FromRat(window), exact.FromRat(start))
}

// maxLineSum is the largest row or column sum of T: the Gonzalez–Sahni
// optimal window.
func maxLineSum(T [][]*big.Rat) *big.Rat {
	sums := make([]*big.Rat, len(T[0]))
	for j := range sums {
		sums[j] = new(big.Rat)
	}
	for i := range T {
		row := new(big.Rat)
		for j := range T[i] {
			row.Add(row, T[i][j])
			sums[j].Add(sums[j], T[i][j])
		}
		sums = append(sums, row)
	}
	best := new(big.Rat)
	for _, s := range sums {
		if s.Cmp(best) > 0 {
			best = s
		}
	}
	return best
}

func mat(rows ...[]int64) [][]*big.Rat {
	out := make([][]*big.Rat, len(rows))
	for i, row := range rows {
		out[i] = make([]*big.Rat, len(row))
		for j, v := range row {
			out[i][j] = r(v, 1)
		}
	}
	return out
}

// validate checks the three defining properties of a decomposition:
// (1) per (machine, job), total scheduled time equals T[i][j];
// (2) no machine runs two jobs at once;
// (3) no job runs on two machines at once;
// and that all pieces lie in [start, start+window).
func validate(t *testing.T, T [][]*big.Rat, window, start *big.Rat, pieces []Piece) {
	t.Helper()
	m, n := len(T), len(T[0])
	total := make([][]*big.Rat, m)
	for i := range total {
		total[i] = make([]*big.Rat, n)
		for j := range total[i] {
			total[i][j] = new(big.Rat)
		}
	}
	end := new(big.Rat).Add(start, window)
	for _, p := range pieces {
		ps, pe := p.Start.Rat(), p.End.Rat()
		if ps.Cmp(start) < 0 || pe.Cmp(end) > 0 {
			t.Fatalf("piece %+v outside window [%v,%v)", p, start, end)
		}
		if ps.Cmp(pe) >= 0 {
			t.Fatalf("piece %+v empty or inverted", p)
		}
		total[p.Machine][p.Job].Add(total[p.Machine][p.Job], new(big.Rat).Sub(pe, ps))
	}
	for i := range T {
		for j := range T[i] {
			want := T[i][j]
			if want == nil {
				want = new(big.Rat)
			}
			if total[i][j].Cmp(want) != 0 {
				t.Fatalf("T[%d][%d]: scheduled %v, want %v", i, j, total[i][j], want)
			}
		}
	}
	checkDisjoint := func(key func(Piece) int, groups int, what string) {
		byG := make([][]Piece, groups)
		for _, p := range pieces {
			byG[key(p)] = append(byG[key(p)], p)
		}
		for g, ps := range byG {
			sort.Slice(ps, func(a, b int) bool { return ps[a].Start.Rat().Cmp(ps[b].Start.Rat()) < 0 })
			for k := 1; k < len(ps); k++ {
				if ps[k].Start.Rat().Cmp(ps[k-1].End.Rat()) < 0 {
					t.Fatalf("%s %d overlaps: %+v and %+v", what, g, ps[k-1], ps[k])
				}
			}
		}
	}
	checkDisjoint(func(p Piece) int { return p.Machine }, m, "machine")
	checkDisjoint(func(p Piece) int { return p.Job }, n, "job")
}

func TestDecomposeIdentity(t *testing.T) {
	T := mat([]int64{3, 0}, []int64{0, 3})
	pieces, err := decompose(T, r(3, 1), r(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, r(3, 1), r(0, 1), pieces)
	if len(pieces) != 2 {
		t.Errorf("diagonal matrix should decompose in one round, got %d pieces", len(pieces))
	}
}

func TestDecomposeNeedsPreemption(t *testing.T) {
	// 2 machines, 3 jobs; window 2:
	//   T = [1 1 0; 0 1 1] — every line sum <= 2, job 1 needed on both.
	T := mat([]int64{1, 1, 0}, []int64{0, 1, 1})
	pieces, err := decompose(T, r(2, 1), r(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, r(2, 1), r(0, 1), pieces)
}

func TestDecomposeTightEverywhere(t *testing.T) {
	// Doubly tight (all row and column sums equal the window): a Birkhoff
	// decomposition case.
	T := mat([]int64{2, 1, 1}, []int64{1, 2, 1}, []int64{1, 1, 2})
	pieces, err := decompose(T, r(4, 1), r(10, 1))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, r(4, 1), r(10, 1), pieces)
}

func TestDecomposeRationals(t *testing.T) {
	T := [][]*big.Rat{
		{r(1, 3), r(1, 2)},
		{r(1, 2), r(1, 3)},
	}
	window := r(5, 6)
	pieces, err := decompose(T, window, r(1, 7))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, window, r(1, 7), pieces)
}

func TestDecomposeEmptyAndZero(t *testing.T) {
	pieces, err := decompose(nil, r(1, 1), r(0, 1))
	if err != nil || pieces != nil {
		t.Errorf("empty matrix: %v, %v", pieces, err)
	}
	T := mat([]int64{0, 0}, []int64{0, 0})
	pieces, err = decompose(T, r(0, 1), r(0, 1))
	if err != nil || len(pieces) != 0 {
		t.Errorf("zero matrix: %v, %v", pieces, err)
	}
}

// TestDecomposeNilEntries: a nil entry of the reference matrix reaches
// Decompose as a zero exact.Q, a pair that never runs.
func TestDecomposeNilEntries(t *testing.T) {
	T := [][]*big.Rat{{r(1, 1), nil}, {nil, r(1, 1)}}
	pieces, err := decompose(T, r(1, 1), r(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, r(1, 1), r(0, 1), pieces)
}

func TestDecomposeInfeasible(t *testing.T) {
	T := mat([]int64{3, 2}) // row sum 5 > window 4
	if _, err := decompose(T, r(4, 1), r(0, 1)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible, got %v", err)
	}
	Tc := mat([]int64{3}, []int64{2}) // column sum 5 > window 4
	if _, err := decompose(Tc, r(4, 1), r(0, 1)); !errors.Is(err, ErrInfeasible) {
		t.Fatalf("want ErrInfeasible for column, got %v", err)
	}
}

func TestDecomposeNegativeEntry(t *testing.T) {
	T := [][]*big.Rat{{r(-1, 1)}}
	if _, err := decompose(T, r(1, 1), r(0, 1)); err == nil {
		t.Fatal("want error for negative entry")
	}
}

func TestDecomposeRagged(t *testing.T) {
	T := [][]*big.Rat{{r(1, 1), r(1, 1)}, {r(1, 1)}}
	if _, err := decompose(T, r(2, 1), r(0, 1)); err == nil {
		t.Fatal("want error for ragged matrix")
	}
}

// TestDecomposeRandom exercises the decomposition on random feasible
// matrices: random entries, window = max line sum.
func TestDecomposeRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for it := 0; it < 200; it++ {
		m := 1 + rng.Intn(5)
		n := 1 + rng.Intn(6)
		T := make([][]*big.Rat, m)
		for i := range T {
			T[i] = make([]*big.Rat, n)
			for j := range T[i] {
				if rng.Intn(3) == 0 {
					T[i][j] = new(big.Rat)
				} else {
					T[i][j] = r(int64(rng.Intn(8)), int64(1+rng.Intn(4)))
				}
			}
		}
		window := maxLineSum(T)
		if window.Sign() == 0 {
			continue
		}
		pieces, err := decompose(T, window, r(int64(rng.Intn(10)), 1))
		if err != nil {
			t.Fatalf("iter %d: %v", it, err)
		}
		start := pieces[0].Start.Rat()
		validate(t, T, window, start, pieces)
	}
}

// TestDecomposeOptimalWindow checks that when the window equals the max line
// sum (the Gonzalez–Sahni optimum), the decomposition still succeeds — the
// hardest case, where tight lines must be saturated at every round.
func TestDecomposeOptimalWindow(t *testing.T) {
	T := mat(
		[]int64{4, 0, 2},
		[]int64{2, 3, 1},
		[]int64{0, 3, 3},
	)
	// Max line sum: rows 6,6,6; cols 6,6,6 -> window 6.
	pieces, err := decompose(T, r(6, 1), r(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	validate(t, T, r(6, 1), r(0, 1), pieces)
	// With window == every line sum, machines must be busy the whole
	// window: total scheduled time = 18 = 3 machines x 6.
	total := new(big.Rat)
	for _, p := range pieces {
		total.Add(total, new(big.Rat).Sub(p.End.Rat(), p.Start.Rat()))
	}
	if total.Cmp(r(18, 1)) != 0 {
		t.Errorf("total busy time %v, want 18", total)
	}
}

func BenchmarkDecompose8x8(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	T := make([][]exact.Q, 8)
	for i := range T {
		T[i] = make([]exact.Q, 8)
		for j := range T[i] {
			T[i][j] = exact.Int(int64(rng.Intn(10)))
		}
	}
	var window exact.Q
	rows, cols := lineSums(T)
	for _, s := range append(rows, cols...) {
		if s.Cmp(window) > 0 {
			window = s
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decompose(T, window, exact.Q{}); err != nil {
			b.Fatal(err)
		}
	}
}
