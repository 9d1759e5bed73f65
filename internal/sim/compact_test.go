package sim

import (
	"testing"
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
