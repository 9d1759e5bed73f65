package lp

import (
	"fmt"
	"math/big"
	"math/rand"
	"slices"
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
// spare workspace, and holds every answer to a sequential solve of the same
// problem. Two solves that shared a workspace would pivot over each other's
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

// TestSpareTableauCap: what lp holds between solves is at most one workspace
// of at most spareBytes (2 MiB). A solve whose tableau is above the cap hands its
// workspace back without the tableau's buffer and the rest is kept as the
// spare; one below it keeps the buffer too.
func TestSpareTableauCap(t *testing.T) {
	for _, tc := range []struct {
		rows, vars int
		kept       bool // the tableau's buffer
	}{{10, 20, true}, {180, 1300, false}, {40, 60, true}} {
		p := coverProblem(tc.rows, tc.vars)
		sf, err := newStdForm(p)
		if err != nil {
			t.Fatal(err)
		}
		size := sf.m * sf.numCols
		if (size*8 <= spareBytes) != tc.kept {
			t.Fatalf("%d×%d: a %d-byte tableau; the case is misdrawn", tc.rows, tc.vars, size*8)
		}
		spare.Store(nil)
		if _, err := SolveHybrid(p); err != nil {
			t.Fatal(err)
		}
		switch w := spare.Load(); {
		case w == nil:
			t.Errorf("%d×%d: no workspace kept", tc.rows, tc.vars)
		case w.bytes() > spareBytes:
			t.Errorf("%d×%d: a %d-byte workspace kept", tc.rows, tc.vars, w.bytes())
		case (cap(w.tab.buf) >= size) != tc.kept:
			t.Errorf("%d×%d: a %d-entry tableau buffer kept, want kept %v", tc.rows, tc.vars, cap(w.tab.buf), tc.kept)
		case cap(w.fill.val) == 0 || cap(w.fill.sf.colRow) == 0 || cap(w.fill.sf.fac.entries) == 0:
			t.Errorf("%d×%d: the fill, its column view or its factorization was not kept", tc.rows, tc.vars)
		}
	}
}

// layoutOf is a Layout of a given size.
type layoutOf int

func (l layoutOf) Bytes() int { return int(l) }

// TestSpareLayoutCap: the cap counts a workspace's Layout too, and what lp
// keeps between searches stays under it. A Layout the workspace fits beside
// is kept with it, tableau and all; one that fits only once the tableau's
// buffer is dropped costs that buffer; one that does not fit even then is
// dropped too, and the rest of the workspace is kept.
func TestSpareLayoutCap(t *testing.T) {
	p := coverProblem(40, 60)
	for _, tc := range []struct {
		name              string
		layout            int  // bytes
		keepLayout, table bool // what the spare keeps
	}{
		{"small", 1 << 10, true, true},
		{"beside a dropped tableau", spareBytes - 1<<16, true, false},
		{"over the cap alone", spareBytes + 1, false, false},
	} {
		w := TakeWorkspace()
		w.Layout = nil // the last case's
		if _, err := p.fill(w.Fill()).Solve(nil); err != nil {
			t.Fatal(err)
		}
		tableau := size(w.tab.buf)
		if tableau == 0 || tableau > 1<<16 || w.bytes() > 1<<17 {
			t.Fatalf("%s: a %d-byte tableau in a %d-byte workspace; the case is misdrawn", tc.name, tableau, w.bytes())
		}
		w.Layout = layoutOf(tc.layout)
		spare.Store(nil)
		ReturnWorkspace(w)
		switch kept := spare.Load(); {
		case kept == nil:
			t.Errorf("%s: no workspace kept", tc.name)
		case kept.bytes() > spareBytes:
			t.Errorf("%s: a %d-byte workspace kept", tc.name, kept.bytes())
		case (kept.Layout != nil) != tc.keepLayout || (kept.tab.buf != nil) != tc.table:
			t.Errorf("%s: kept layout %v and tableau %v, want %v and %v", tc.name, kept.Layout != nil, kept.tab.buf != nil, tc.keepLayout, tc.table)
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

// TestWorkspaceRefillMatchesFresh: a fill refilled in place answers as a
// fresh one. Over the seeded problems of TestExactFillMatchesStdForm, taken
// largest, smallest, second largest, … so every refill follows a form of
// another size, one plain ExactFill and one Workspace's fill are refilled
// with each problem's rows; the form (Dump), the column view and the solve —
// status, method, kernel, objective and every value — equal those of a fresh
// fill of the same rows.
func TestWorkspaceRefillMatchesFresh(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	problems := make([]*Problem, 400)
	for n := range problems {
		if n%2 == 0 {
			problems[n] = schedulingProblem(rng)
		} else {
			problems[n], _ = randomProblem(rng)
		}
	}
	size := func(p *Problem) int { return len(p.rows) * (p.NumVars() + 2*len(p.rows)) }
	slices.SortStableFunc(problems, func(a, b *Problem) int { return size(b) - size(a) })
	order := make([]*Problem, 0, len(problems))
	for lo, hi := 0, len(problems)-1; lo <= hi; lo, hi = lo+1, hi-1 {
		order = append(order, problems[lo])
		if lo < hi {
			order = append(order, problems[hi])
		}
	}
	var plain ExactFill
	w := TakeWorkspace()
	defer ReturnWorkspace(w)
	for n, p := range order {
		fresh := p.Fill()
		want, err := fresh.Solve(nil)
		if err != nil {
			t.Fatal(err)
		}
		fresh.sf.columns()
		for _, refill := range []struct {
			name string
			f    *ExactFill
		}{{"plain", &plain}, {"in a workspace", w.Fill()}} {
			f, label := refill.f, fmt.Sprintf("problem %d, refilled %s", n, refill.name)
			if got, want := p.fill(f).Dump(), fresh.Dump(); got != want {
				t.Fatalf("%s: the form\n%s\nwant\n%s", label, got, want)
			}
			got, err := f.Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			f.sf.columns()
			if !slices.Equal(f.sf.colStart, fresh.sf.colStart) || !slices.Equal(f.sf.colRow, fresh.sf.colRow) || !equalQs(f.sf.colVal, fresh.sf.colVal) {
				t.Fatalf("%s: column view %v %v %v, want %v %v %v", label,
					f.sf.colStart, f.sf.colRow, f.sf.colVal, fresh.sf.colStart, fresh.sf.colRow, fresh.sf.colVal)
			}
			if got.Status != want.Status || got.Method != want.Method || got.Kernel != want.Kernel ||
				got.ObjectiveQ.Cmp(want.ObjectiveQ) != 0 || !equalQs(got.X, want.X) {
				t.Fatalf("%s: solved %v %v by %v (kernel %d), fresh %v %v by %v (kernel %d)\n%s", label,
					got.Status, got.ObjectiveQ, got.Method, got.Kernel, want.Status, want.ObjectiveQ, want.Method, want.Kernel, p.Dump())
			}
		}
	}
}

// TestWorkspacesAreNeverShared: 8 goroutines each take a workspace, solve 30
// seeded problems in it and hand it back, 5 times over; no workspace is
// handed to a second taker while its first holds it, and every answer equals
// a sequential solve's. Under the race detector a shared one would also be
// reported.
func TestWorkspacesAreNeverShared(t *testing.T) {
	const workers, rounds, each = 8, 5, 30
	problems := make([][]*Problem, workers)
	want := make([][]*Solution, workers)
	for g := range problems {
		problems[g] = spareProblems(int64(200+g), each)
		for _, p := range problems[g] {
			sol, err := p.Fill().Solve(nil)
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], sol)
		}
	}
	var held sync.Map // *Workspace -> the goroutine holding it
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for g := range problems {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range rounds {
				w := TakeWorkspace()
				if other, taken := held.LoadOrStore(w, g); taken {
					errs[g] = fmt.Errorf("goroutine %d took the workspace goroutine %d holds", g, other)
					return
				}
				for k, p := range problems[g] {
					got, err := p.fill(w.Fill()).Solve(nil)
					if err == nil && (got.Status != want[g][k].Status || got.ObjectiveQ.Cmp(want[g][k].ObjectiveQ) != 0 || !equalQs(got.X, want[g][k].X)) {
						err = fmt.Errorf("goroutine %d, problem %d: %v %v, sequential %v %v", g, k, got.Status, got.ObjectiveQ, want[g][k].Status, want[g][k].ObjectiveQ)
					}
					if err != nil {
						errs[g] = err
						return
					}
				}
				held.Delete(w)
				ReturnWorkspace(w)
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}
