package lp

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
)

// denseTableau is the float simplex with the pivot that sweeps every column
// of every row: the reference FloatTableau's sparse pivot is held to. It
// shares the tableau's construction and pricing set-up and repeats only what
// calls pivot.
type denseTableau struct{ *FloatTableau }

func (t denseTableau) pivot(leave, enter int) {
	prow := t.rowsData[leave]
	inv := 1 / prow[enter]
	for j := range prow {
		prow[j] *= inv
	}
	prow[enter] = 1
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
		for j := range row {
			row[j] -= f * prow[j]
		}
		row[enter] = 0
		t.rhsData[r] -= f * t.rhsData[leave]
		if t.rhsData[r] < 0 && t.rhsData[r] > -floatEps {
			t.rhsData[r] = 0
		}
	}
	if f := t.obj[enter]; f != 0 {
		for j := range t.obj {
			t.obj[j] -= f * prow[j]
		}
		t.obj[enter] = 0
		t.objRHS -= f * t.rhsData[leave]
	}
	t.basis[leave] = enter
}

func (t denseTableau) iterate() Status {
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
		for j := 0; j < t.artStart; j++ {
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

// runFloatDense is runFloat over the dense pivot, down to the outcome the
// hybrid driver reads: status, final basis, iteration count.
func runFloatDense(sf *stdForm) (Status, []int, int) {
	t := denseTableau{new(FloatTableau)}
	t.load(sf)
	if sf.numArt > 0 {
		for j := sf.artStart; j < t.numCols; j++ {
			t.obj[j] = 1
		}
		t.priceOut()
		if t.iterate() != Optimal {
			return floatStalled, t.basis, t.iterations
		}
		if t.objectiveValue() > floatEps*float64(len(t.rowsData)+1) {
			return Infeasible, t.basis, t.iterations
		}
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
	clear(t.obj)
	copy(t.obj, t.cost)
	t.priceOut()
	return t.iterate(), t.basis, t.iterations
}

// schedulingProblem builds an LP of the shape the range LPs have — a block
// of capacity rows per interval, one completion row per job, and an
// objective column F that lengthens the last interval — so pivot rows are as
// sparse as the ones the sparse pivot was written for.
func schedulingProblem(rng *rand.Rand) *Problem {
	p := NewProblem()
	one := rat(1, 1)
	f := p.AddVar("F", one)
	jobs, machines, ivs := 2+rng.Intn(5), 1+rng.Intn(3), 1+rng.Intn(4)
	done := make([][]Term, jobs)
	for iv := 0; iv < ivs; iv++ {
		for i := 0; i < machines; i++ {
			var row []Term
			for j := 0; j < jobs; j++ {
				if j > iv+1 && rng.Intn(2) == 0 {
					continue // not released yet, or not hosted here
				}
				v := p.AddVar("", nil)
				row = append(row, Term{v, rat(int64(1+rng.Intn(9)), int64(1+rng.Intn(3)))})
				done[j] = append(done[j], Term{v, one})
			}
			if iv+1 < ivs {
				p.AddRow("", row, LE, rat(int64(1+rng.Intn(6)), 1))
			} else {
				p.AddRow("", append(row, Term{f, rat(-1, 1)}), LE, rat(0, 1))
			}
		}
	}
	for j := range done {
		if len(done[j]) > 0 {
			p.AddRow("", done[j], EQ, one)
		}
	}
	if rng.Intn(3) == 0 {
		// A ceiling on F that may or may not leave the LP feasible.
		p.AddRow("", []Term{{f, one}}, LE, rat(int64(rng.Intn(12)), 1))
	}
	return p
}

// TestSparsePivotMatchesDense holds the sparse pivot to the dense one over
// whole solves: same status, same final basis, same iteration count — so the
// basis the hybrid driver verifies, and with it every exact result, is the
// one the dense pivot produced.
func TestSparsePivotMatchesDense(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	statuses := map[Status]int{}
	for n := 0; n < 400; n++ {
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
		got := runFloat(sf)
		status, basis, iterations := runFloatDense(sf)
		if got.status != status || got.iterations != iterations || !reflect.DeepEqual(got.basis, basis) {
			t.Fatalf("problem %d: sparse pivot ended %v after %d iterations on basis %v, dense %v after %d on %v\n%s",
				n, got.status, got.iterations, got.basis, status, iterations, basis, p.Dump())
		}
		statuses[status]++
	}
	if statuses[Optimal] == 0 || statuses[Infeasible] == 0 || statuses[Unbounded] == 0 {
		t.Errorf("statuses covered = %v, want optimal, infeasible and unbounded all present", statuses)
	}
}

// TestDirectFillMatchesStdForm is what lets the hybrid engine and a
// milestone search's probes share one tableau type: filling a FloatTableau
// directly (Reset, Set, SetRHS — one tableau reused across all the problems)
// and loading it from the same rows through a Problem and newStdForm give
// the same column numbering, the same initial basis and the same entries,
// and the simplex then takes the same pivots to the same end on both. So the
// Basis a direct fill is handed back indexes the standard form of the same
// rows, and wherever the engine's own float pass would have been verified,
// SolveHybridWarm settles from that basis with no pivot, on the same point.
func TestDirectFillMatchesStdForm(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var direct FloatTableau
	negated, settled := 0, 0
	for n := 0; n < 400; n++ {
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
		var loaded FloatTableau
		loaded.load(sf)

		// What newStdForm does for a Problem's rows, done by hand: a row
		// with a negative RHS is negated and its sense flipped.
		senses := make([]Sense, len(p.rows))
		for i, r := range p.rows {
			senses[i] = r.sense
			if r.rhs.Sign() < 0 {
				senses[i] = flip(r.sense)
				negated++
			}
		}
		direct.Reset(p.NumVars(), senses)
		for i, r := range p.rows {
			sign := 1.0
			if r.rhs.Sign() < 0 {
				sign = -1
			}
			for _, term := range r.terms {
				direct.Set(i, term.Col, sign*term.Coef.Float64())
			}
			direct.SetRHS(i, sign*r.rhs.Float64())
		}
		copy(direct.cost, FloatImage(nil, p.objective))

		if direct.numVars != loaded.numVars || direct.numCols != loaded.numCols || direct.artStart != loaded.artStart ||
			direct.Artificials() != sf.numArt {
			t.Fatalf("problem %d: direct fill numbers %d/%d/%d columns (structural/artificials from/all), the standard form %d/%d/%d\n%s",
				n, direct.numVars, direct.artStart, direct.numCols, loaded.numVars, loaded.artStart, loaded.numCols, p.Dump())
		}
		if !reflect.DeepEqual(direct.basis, loaded.basis) {
			t.Fatalf("problem %d: direct fill starts on basis %v, the standard form on %v\n%s", n, direct.basis, loaded.basis, p.Dump())
		}
		if !reflect.DeepEqual(direct.rowsData, loaded.rowsData) || !reflect.DeepEqual(direct.rhsData, loaded.rhsData) {
			t.Fatalf("problem %d: direct fill\n%v | %v\nstandard form\n%v | %v\n%s",
				n, direct.rowsData, direct.rhsData, loaded.rowsData, loaded.rhsData, p.Dump())
		}
		got, want := direct.run(), loaded.run()
		if got.status != want.status || got.iterations != want.iterations || got.objective != want.objective ||
			!reflect.DeepEqual(got.basis, want.basis) {
			t.Fatalf("problem %d: direct fill ended %v after %d iterations on basis %v, the standard form %v after %d on %v\n%s",
				n, got.status, got.iterations, got.basis, want.status, want.iterations, want.basis, p.Dump())
		}
		fs, err := got.solution()
		if err != nil {
			continue // a stall: nothing is handed over
		}
		if !fs.Basis.compatible(sf) || !sf.validBasis(fs.Basis.cols) {
			t.Fatalf("problem %d: the direct fill's basis %+v does not index the standard form\n%s", n, fs.Basis, p.Dump())
		}
		cold, err := SolveHybrid(p)
		if err != nil {
			t.Fatal(err)
		}
		handed, err := SolveHybridWarm(p, fs.Basis)
		if err != nil {
			t.Fatal(err)
		}
		if handed.Status != cold.Status {
			t.Fatalf("problem %d: %v from the direct fill's basis, %v cold\n%s", n, handed.Status, cold.Status, p.Dump())
		}
		if cold.Status != Optimal || cold.Method != MethodFloatVerified {
			continue
		}
		same := handed.Method == MethodWarmVerified
		for j, x := range handed.X {
			same = same && x.Cmp(cold.X[j]) == 0
		}
		if !same {
			t.Fatalf("problem %d: the direct fill's basis settled as %v on %v, the engine's own pass verified %v\n%s",
				n, handed.Method, handed.X, cold.X, p.Dump())
		}
		settled++
	}
	if negated == 0 {
		t.Error("no problem had a row to negate")
	}
	if settled < 100 {
		t.Errorf("%d of 400 problems settled from the direct fill's basis, want the float-verified ones — at least 100", settled)
	}

	// An entry float64 cannot hold is never solved over.
	direct.Reset(1, []Sense{LE})
	direct.Set(0, 0, 1)
	direct.SetRHS(0, math.Inf(1))
	if sol, err := direct.Minimize(0); err == nil {
		t.Errorf("Minimize over an infinite right-hand side answered %+v", sol)
	}
	direct.Reset(1, []Sense{LE})
	direct.Set(0, 0, math.NaN())
	if sol, err := direct.Minimize(0); err == nil {
		t.Errorf("Minimize over a NaN coefficient answered %+v", sol)
	}
	direct.Reset(1, []Sense{GE})
	direct.Set(0, 0, 1)
	direct.SetRHS(0, 3)
	if sol, err := direct.Minimize(0); err != nil || sol.Status != Optimal || sol.Objective != 3 {
		t.Errorf("after a Reset the same tableau solves again: got %+v, %v; want min x = 3", sol, err)
	}
}
