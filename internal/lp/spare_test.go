package lp

import (
	"math/big"
	"math/rand"
	"sync"
	"testing"
)

// spareProblems is a seeded mix of the scheduling-shaped and the random
// problems the differential tests solve.
func spareProblems(seed int64, n int) []*Problem {
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Problem, n)
	for k := range out {
		if k%2 == 0 {
			out[k] = schedulingProblem(rng)
		} else {
			out[k], _ = randomProblem(rng)
		}
	}
	return out
}

// sameSolution requires two exact solves to agree on status, objective and
// every primal value.
func sameSolution(t *testing.T, label string, got, want *Solution) {
	t.Helper()
	if got.Status != want.Status {
		t.Fatalf("%s: status %v, sequential %v", label, got.Status, want.Status)
	}
	if want.Status != Optimal {
		return
	}
	if got.Objective.Cmp(want.Objective) != 0 {
		t.Fatalf("%s: objective %v, sequential %v", label, got.Objective, want.Objective)
	}
	if len(got.X) != len(want.X) {
		t.Fatalf("%s: %d values, sequential %d", label, len(got.X), len(want.X))
	}
	for j := range want.X {
		if got.X[j].Cmp(want.X[j]) != 0 {
			t.Fatalf("%s: x[%d] = %v, sequential %v", label, j, got.X[j], want.X[j])
		}
	}
}

// TestSpareTableauIsNeverShared solves 8 × 50 seeded problems through
// SolveHybrid on 8 goroutines at once, each of them taking and returning the
// spare tableau, and holds every answer to a sequential solve of the same
// problem. Two solves that shared a tableau would pivot over each other's
// rows; under the race detector they would also be reported.
func TestSpareTableauIsNeverShared(t *testing.T) {
	const workers, each = 8, 50
	problems := make([][]*Problem, workers)
	want := make([][]*Solution, workers)
	for w := range problems {
		problems[w] = spareProblems(int64(100+w), each)
		want[w] = make([]*Solution, each)
		for k, p := range problems[w] {
			sol, err := SolveHybrid(p)
			if err != nil {
				t.Fatal(err)
			}
			want[w][k] = sol
		}
	}
	got := make([][]*Solution, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for w := range problems {
		got[w] = make([]*Solution, each)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k, p := range problems[w] {
				if got[w][k], errs[w] = SolveHybrid(p); errs[w] != nil {
					return
				}
			}
		}()
	}
	wg.Wait()
	for w := range problems {
		if errs[w] != nil {
			t.Fatal(errs[w])
		}
		for k := range problems[w] {
			sameSolution(t, problems[w][k].Dump(), got[w][k], want[w][k])
		}
	}
}

// coverProblem is min Σx over rows Σ of a few x >= 1: a GE row gains a
// surplus and an artificial, so its tableau is rows × (vars + 2·rows).
func coverProblem(rows, vars int) *Problem {
	p := NewProblem()
	one := big.NewRat(1, 1)
	for j := 0; j < vars; j++ {
		p.AddVar("", one)
	}
	for i := 0; i < rows; i++ {
		terms := []Term{{i % vars, one}, {(i + 1) % vars, one}, {(3*i + 2) % vars, one}}
		if terms[2].Col == terms[0].Col || terms[2].Col == terms[1].Col {
			terms = terms[:2]
		}
		p.AddRow("", terms, GE, one)
	}
	return p
}

// TestSpareTableauCap: the tableau of an LP above spareBytes is not kept
// after its solve, and the tableau of one below it is, so what the package
// holds between solves is at most one tableau of at most spareBytes.
func TestSpareTableauCap(t *testing.T) {
	for _, tc := range []struct {
		rows, vars int
		kept       bool
	}{{10, 20, true}, {120, 300, false}, {40, 60, true}} {
		sf, err := newStdForm(coverProblem(tc.rows, tc.vars))
		if err != nil {
			t.Fatal(err)
		}
		if size := sf.m * sf.numCols * 8; (size <= spareBytes) != tc.kept {
			t.Fatalf("%d×%d: a %d-byte tableau; the case is misdrawn", tc.rows, tc.vars, size)
		}
		spare.Store(nil)
		run := runFloat(sf)
		tab := run.tab
		if run.status != Optimal {
			t.Fatalf("%d×%d: float status %v", tc.rows, tc.vars, run.status)
		}
		run.release()
		if kept := spare.Load() == tab; kept != tc.kept {
			t.Errorf("%d×%d (%d-byte buffer): kept %v, want %v", tc.rows, tc.vars, cap(tab.buf)*8, kept, tc.kept)
		}
		// The whole engine returns it too.
		spare.Store(nil)
		if _, err := SolveHybrid(coverProblem(tc.rows, tc.vars)); err != nil {
			t.Fatal(err)
		}
		if kept := spare.Load(); (kept != nil) != tc.kept || (kept != nil && cap(kept.buf)*8 > spareBytes) {
			t.Errorf("%d×%d: after SolveHybrid the spare is %v, want kept %v", tc.rows, tc.vars, kept != nil, tc.kept)
		}
	}
}

// TestLoadFlagsNonFinite: a coefficient float64 cannot hold is flagged on
// its way into a loaded tableau, as Set flags it in a filled one, and the
// float run stalls before its first pivot instead of pivoting over ±Inf —
// so the exact engine decides, and SolveHybrid answers what SolveRat does.
func TestLoadFlagsNonFinite(t *testing.T) {
	huge := new(big.Rat).SetInt(new(big.Int).Lsh(big.NewInt(1), 1100))
	one := big.NewRat(1, 1)
	for _, tc := range []struct {
		name  string
		build func(p *Problem, x, y int)
	}{
		{"row", func(p *Problem, x, y int) {
			p.AddRow("", []Term{{x, huge}, {y, one}}, GE, one)
			p.AddRow("", []Term{{x, one}, {y, one}}, LE, big.NewRat(3, 1))
		}},
		{"rhs", func(p *Problem, x, y int) {
			p.AddRow("", []Term{{x, one}, {y, one}}, LE, huge)
			p.AddRow("", []Term{{x, one}}, GE, one)
		}},
	} {
		p := NewProblem()
		x, y := p.AddVar("x", big.NewRat(1, 1)), p.AddVar("y", big.NewRat(2, 1))
		tc.build(p, x, y)
		sf, err := newStdForm(p)
		if err != nil {
			t.Fatal(err)
		}
		var tab FloatTableau
		tab.load(sf)
		if !tab.nonFinite {
			t.Errorf("%s: the loaded tableau is not flagged", tc.name)
		}
		if run := runFloat(sf); run.status != floatStalled || run.iterations != 0 {
			t.Errorf("%s: float run %v after %d iterations, want stalled after 0", tc.name, run.status, run.iterations)
		}
		got, err := SolveHybrid(p)
		if err != nil {
			t.Fatal(err)
		}
		want, err := SolveRat(p)
		if err != nil {
			t.Fatal(err)
		}
		if got.Status != want.Status || got.Objective.Cmp(want.Objective) != 0 {
			t.Errorf("%s: SolveHybrid %v %v, SolveRat %v %v", tc.name, got.Status, got.Objective, want.Status, want.Objective)
		}
		if got.Method != MethodExact {
			t.Errorf("%s: method %v, want the exact engine", tc.name, got.Method)
		}
	}
}
