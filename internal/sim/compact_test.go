package sim

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"divflow/internal/exact"
)

// TestEngineCompact: history before the horizon disappears, live state and
// counters survive, and the machine-piece extension logic keeps working
// across a compaction boundary.
func TestEngineCompact(t *testing.T) {
	e := NewEngine(2, twoMachineCost, NewSRPT())
	if err := e.Add(0, q(0, 1), q(1, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	// Job 0 completes at 1/2 on the fast machine.
	if _, err := e.AdvanceTo(q(1, 2)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	if err := e.Add(1, q(1, 2), q(1, 1), q(1, 1)); err != nil {
		t.Fatal(err)
	}
	if err := e.Decide(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.AdvanceTo(q(3, 4)); err != nil {
		t.Fatal(err)
	}

	before := len(e.Schedule().Pieces)
	forgotten := e.Compact(q(1, 2))
	if len(forgotten) != 1 || forgotten[0] != 0 {
		t.Fatalf("forgotten = %v, want [0]", forgotten)
	}
	if _, ok := e.Completion(0); ok {
		t.Error("compacted job still has a completion time")
	}
	if e.CompletedCount() != 1 {
		t.Errorf("completed count = %d, want 1 (counter survives compaction)", e.CompletedCount())
	}
	after := len(e.Schedule().Pieces)
	if after >= before {
		t.Errorf("pieces %d -> %d, want fewer after compaction", before, after)
	}
	for _, pc := range e.Schedule().Pieces {
		if pc.End.Cmp(r(1, 2)) <= 0 {
			t.Errorf("piece ending at %v survived horizon 1/2", pc.End)
		}
	}

	// The live job must finish normally, with its in-flight piece still
	// extending (compaction must have remapped the last-piece indices).
	for e.Live() > 0 {
		next, ok := e.NextEvent()
		if !ok {
			t.Fatal("engine stalled after compaction")
		}
		if _, err := e.AdvanceTo(next); err != nil {
			t.Fatal(err)
		}
		if err := e.Decide(); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := e.Completion(1); !ok {
		t.Fatal("job 1 never completed")
	}
}

// fullScanCompact is Compact as it was before it read the trace in start
// order: one pass over every retained piece, lastPiece remapped through a
// map, and a walk over the whole job map. TestCompactMatchesFullScan holds
// Compact to it.
func fullScanCompact(e *Engine, horizon exact.Q) []int {
	keep := e.pieces[:0]
	remap := make(map[int]int, len(e.lastPiece))
	for k := range e.pieces {
		pc := &e.pieces[k]
		if pc.End.Cmp(horizon) <= 0 {
			continue
		}
		remap[k] = len(keep)
		keep = append(keep, *pc)
	}
	for k := len(keep); k < len(e.pieces); k++ {
		e.pieces[k] = PieceState{}
	}
	e.pieces = keep
	for i, k := range e.lastPiece {
		if k < 0 {
			continue
		}
		if nk, ok := remap[k]; ok {
			e.lastPiece[i] = nk
		} else {
			e.lastPiece[i] = -1
		}
	}
	var forgotten []int
	for id, j := range e.jobs {
		if j.done() && j.Completed.Cmp(horizon) <= 0 {
			forgotten = append(forgotten, id)
			delete(e.jobs, id)
		}
	}
	return forgotten
}

// TestCompactMatchesFullScan drives two engines through the same random run
// — arrivals, partial admissions, removals, advances, one export/restore
// round trip — and compacts one with Compact and the other with the full
// scan, at random horizons up to the current time (half of them on a piece
// boundary). After every step the retained pieces, lastPiece and the
// forgotten IDs must agree, and Makespan must equal the trace's.
func TestCompactMatchesFullScan(t *testing.T) {
	policies := []func() Policy{
		func() Policy { return NewSRPT() },
		func() Policy { return NewOnlineMWFLazy() },
		func() Policy { return NewMCT() },
	}
	for _, mk := range policies {
		forgot, straddled := 0, 0
		for seed := int64(0); seed < 24; seed++ {
			t.Run(fmt.Sprintf("%s/%d", mk().Name(), seed), func(t *testing.T) {
				f, s := compactAgainstFullScan(t, mk, seed)
				forgot += f
				straddled += s
			})
		}
		// The runs must reach both halves of the cut.
		t.Logf("%s: %d jobs forgotten, %d straddling pieces kept", mk().Name(), forgot, straddled)
		if forgot == 0 || straddled == 0 {
			t.Errorf("%s: %d jobs forgotten, %d straddling pieces kept; the runs do not exercise Compact", mk().Name(), forgot, straddled)
		}
	}
}

// compactAgainstFullScan plays one seeded run and reports how many jobs its
// compactions forgot and how many pieces straddling a horizon they kept.
func compactAgainstFullScan(t *testing.T, mk func() Policy, seed int64) (forgot, straddled int) {
	rng := rand.New(rand.NewSource(seed))
	m := 2 + rng.Intn(3)
	costs := map[int][]exact.Q{} // zero: ineligible
	cost := func(i, id int) (exact.Q, bool) {
		c := costs[id][i]
		return c, c.Sign() > 0
	}
	fast, full := NewEngine(m, cost, mk()), NewEngine(m, cost, mk())
	both := func(f func(e *Engine) error) {
		t.Helper()
		for _, e := range []*Engine{fast, full} {
			if err := f(e); err != nil {
				t.Fatal(err)
			}
		}
	}
	check := func(step int, what string) {
		t.Helper()
		if got, want := mustJSON(fast.ExportState().Pieces), mustJSON(full.ExportState().Pieces); got != want {
			t.Fatalf("step %d (%s): pieces\n%s\nfull scan keeps\n%s", step, what, got, want)
		}
		if !slices.Equal(fast.lastPiece, full.lastPiece) {
			t.Fatalf("step %d (%s): lastPiece %v, full scan %v", step, what, fast.lastPiece, full.lastPiece)
		}
		if got, want := fast.Makespan(), exact.FromRat(fast.Schedule().Makespan()); got.Cmp(want) != 0 {
			t.Fatalf("step %d (%s): Makespan %v, trace's %v", step, what, got, want)
		}
	}
	var removed []int
	removedJobs := map[int]*JobState{}
	next := 0
	for step := 0; step < 80; step++ {
		what := ""
		switch r := rng.Intn(10); {
		case r < 3:
			what = "add"
			c := make([]exact.Q, m)
			c[rng.Intn(m)] = exact.New(int64(1+rng.Intn(4)), int64(1+rng.Intn(2)))
			for i := range c {
				if rng.Intn(2) == 0 {
					c[i] = exact.New(int64(1+rng.Intn(4)), int64(1+rng.Intn(2)))
				}
			}
			costs[next] = c
			rem := exact.Int(1)
			if rng.Intn(4) == 0 {
				rem = exact.New(int64(1+rng.Intn(3)), 4)
			}
			id, w, size := next, exact.Int(int64(1+rng.Intn(3))), exact.Int(int64(1+rng.Intn(4)))
			both(func(e *Engine) error { return e.AddPartial(id, e.Now(), w, size, rem) })
			next++
		case r < 4 && fast.Live() > 0:
			what = "remove"
			id := fast.order[rng.Intn(len(fast.order))]
			both(func(e *Engine) error {
				rj, err := e.Remove(id)
				removedJobs[id] = rj
				return err
			})
			removed = append(removed, id)
		case r < 5 && len(removed) > 0:
			what = "re-add"
			k := rng.Intn(len(removed))
			id := removed[k]
			rj := removedJobs[id]
			removed = slices.Delete(removed, k, k+1)
			both(func(e *Engine) error { return e.AddPartial(id, rj.Release, rj.Weight, rj.Size, rj.Remaining) })
		case r < 8:
			what = "advance"
			both(func(e *Engine) error { return e.Decide() })
			to := fast.Now().Add(exact.New(int64(1+rng.Intn(4)), 2))
			if ev, ok := fast.NextEvent(); ok && (ev.Cmp(to) < 0 || rng.Intn(2) == 0) {
				to = ev
			}
			both(func(e *Engine) error { _, err := e.AdvanceTo(to); return err })
		default:
			what = "compact"
			h := fast.Now().Mul(exact.New(int64(rng.Intn(9)), 8))
			if ps := fast.Schedule().Pieces; len(ps) > 0 && rng.Intn(2) == 0 {
				pc := ps[rng.Intn(len(ps))]
				h = exact.FromRat(pc.End)
				if rng.Intn(2) == 0 {
					h = exact.FromRat(pc.Start)
				}
				if h.Cmp(fast.Now()) > 0 {
					h = fast.Now()
				}
			}
			got, want := fast.Compact(h), fullScanCompact(full, h)
			forgot += len(got)
			for _, pc := range fast.Schedule().Pieces {
				if pc.Start.Cmp(h.Rat()) < 0 {
					straddled++
				}
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("step %d: Compact(%v) forgets %v, full scan %v", step, h, got, want)
			}
		}
		if step == 40 {
			what += ", restored"
			for _, e := range []**Engine{&fast, &full} {
				var es EngineState
				if err := json.Unmarshal([]byte(mustJSON((*e).ExportState())), &es); err != nil {
					t.Fatal(err)
				}
				pol := mk()
				if mwf, ok := (*e).Policy().(*OnlineMWF); ok {
					pol.(*OnlineMWF).RestorePlanState(mwf.ExportPlanState())
				}
				restored := NewEngine(m, cost, pol)
				if err := restored.RestoreState(&es); err != nil {
					t.Fatal(err)
				}
				*e = restored
			}
		}
		check(step, what)
	}
	return forgot, straddled
}

// BenchmarkEngineCompactSteady is a retention-bounded engine in steady state:
// four identical machines, jobs of cost 1 to 3 (so every event falls on an
// integer time) topped up to six live, and a compaction to 200 virtual
// seconds before now after every event. Each op is one event — decide,
// advance, compact — over a full 200-second window.
func BenchmarkEngineCompactSteady(b *testing.B) {
	cost := func(_, id int) (exact.Q, bool) { return exact.Int(int64(1 + id%3)), true }
	e := NewEngine(4, cost, NewSRPT())
	window := exact.Int(200)
	next := 0
	event := func() {
		for e.Live() < 6 {
			if err := e.Add(next, e.Now(), exact.Int(1), exact.Int(1)); err != nil {
				b.Fatal(err)
			}
			next++
		}
		if err := e.Decide(); err != nil {
			b.Fatal(err)
		}
		t, ok := e.NextEvent()
		if !ok {
			b.Fatal("engine stalled")
		}
		if _, err := e.AdvanceTo(t); err != nil {
			b.Fatal(err)
		}
		e.Compact(t.Sub(window))
	}
	for e.Now().Cmp(window.Add(window)) < 0 {
		event()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		event()
	}
	b.ReportMetric(float64(len(e.Schedule().Pieces)), "pieces")
}
