package server

import (
	"math/big"
	"strings"
	"testing"
	"time"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
)

// testFleet is two heterogeneous machines sharing one databank; the second
// also hosts a rare one.
func testFleet() []model.Machine {
	return []model.Machine{
		{Name: "fast", InverseSpeed: rat(1, 2), Databanks: []string{"swissprot"}},
		{Name: "slow", InverseSpeed: rat(1, 1), Databanks: []string{"swissprot", "pdb"}},
	}
}

// drive advances the virtual clock event by event until pred holds (or the
// deadline passes). It tolerates the scheduling loop having not yet armed
// its next timer by polling.
func drive(t *testing.T, vc *VirtualClock, pred func() bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !pred() {
		if time.Now().After(deadline) {
			t.Fatal("drive: condition not reached in 30s")
		}
		if !vc.AdvanceToNextTimer() {
			time.Sleep(100 * time.Microsecond)
		}
	}
}

func TestPolicies(t *testing.T) {
	names := Policies()
	if len(names) == 0 {
		t.Fatal("no policies")
	}
	for _, name := range names {
		p, err := NewPolicy(name)
		if err != nil {
			t.Fatal(err)
		}
		if p.Name() == "" {
			t.Errorf("%s: empty policy name", name)
		}
	}
	if _, err := NewPolicy("nope"); err == nil {
		t.Error("unknown policy must error")
	}
	p, err := NewPolicy("")
	if err != nil {
		t.Fatal(err)
	}
	if p.Name() != DefaultPolicy {
		t.Errorf("default policy = %s, want %s", p.Name(), DefaultPolicy)
	}
}

func TestNewRejectsBadConfig(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty fleet must error")
	}
	if _, err := New(Config{Machines: []model.Machine{{Name: "m"}}}); err == nil {
		t.Error("machine without InverseSpeed must error")
	}
	if _, err := New(Config{Machines: testFleet(), Policy: "nope"}); err == nil {
		t.Error("unknown policy must error")
	}
	if _, err := New(Config{Machines: testFleet(), WALDir: t.TempDir(), SnapshotEvery: -5}); err == nil || !strings.Contains(err.Error(), "SnapshotEvery") {
		t.Errorf("negative SnapshotEvery: err = %v, want an error naming SnapshotEvery", err)
	}
	if _, err := New(Config{Machines: testFleet(), Retention: big.NewRat(-1, 2)}); err == nil || !strings.Contains(err.Error(), "Retention") {
		t.Errorf("negative Retention: err = %v, want an error naming Retention", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	cases := []struct {
		req  model.SubmitRequest
		want string
	}{
		{model.SubmitRequest{}, "size"},
		{model.SubmitRequest{Size: "0"}, "size"},
		{model.SubmitRequest{Size: "bogus"}, "size"},
		{model.SubmitRequest{Size: "4", Weight: "-1"}, "weight"},
		{model.SubmitRequest{Size: "4", Databanks: []string{"missing"}}, "databanks"},
	}
	for _, c := range cases {
		if _, err := s.Submit(&c.req); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Submit(%+v) = %v, want error mentioning %q", c.req, err, c.want)
		}
	}
}

func TestSingleJobLifecycle(t *testing.T) {
	vc := NewVirtualClock()
	s, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	resp, err := s.Submit(&model.SubmitRequest{Name: "blast", Size: "4", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID
	s.Start()
	drive(t, vc, func() bool { return s.Stats().JobsCompleted == 1 })

	st, known, _ := s.active()[0].jobStatus(id, id)
	if !known {
		t.Fatal("job unknown after completion")
	}
	if st.State != StateDone {
		t.Fatalf("state = %s, want done", st.State)
	}
	// Both machines share the divisible job: 4 units at rate 2+1=3 from
	// t=0, so the flow is exactly 4/3.
	if st.Flow != "4/3" {
		t.Errorf("flow = %s, want 4/3 (perfect split)", st.Flow)
	}
	if st.Stretch != "1/3" {
		t.Errorf("stretch = %s, want 1/3", st.Stretch)
	}
	stats := s.Stats()
	if stats.LPSolves != 1 {
		t.Errorf("lpSolves = %d, want exactly 1", stats.LPSolves)
	}
	if stats.MaxWeightedFlow != "4/3" {
		t.Errorf("maxWeightedFlow = %s, want 4/3", stats.MaxWeightedFlow)
	}
	if stats.Stalled {
		t.Error("server reports stalled")
	}
}

func TestDatabankRoutingUnderService(t *testing.T) {
	// A pdb-bound job may only run on the slow machine; the executed trace
	// must respect that even while a swissprot job competes.
	vc := NewVirtualClock()
	s, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	boundResp, err := s.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"pdb"}})
	if err != nil {
		t.Fatal(err)
	}
	bound := boundResp.ID
	if _, err := s.Submit(&model.SubmitRequest{Size: "6", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	s.Start()
	drive(t, vc, func() bool { return s.Stats().JobsCompleted == 2 })
	sh := s.active()[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, p := range sh.eng.Schedule().Pieces {
		if p.Job == bound && p.Machine == 0 {
			t.Fatal("pdb job ran on the machine without the databank")
		}
	}
}

func TestSubmitAfterClose(t *testing.T) {
	s, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	s.Close()
	if _, err := s.Submit(&model.SubmitRequest{Size: "1"}); err == nil {
		t.Error("submit after close must error")
	}
	s.Close() // idempotent
}

func TestScheduleWindowing(t *testing.T) {
	vc := NewVirtualClock()
	s, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Submit(&model.SubmitRequest{Size: "3", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	s.Start()
	drive(t, vc, func() bool { return s.Stats().JobsCompleted == 1 })
	sh := s.active()[0]
	sh.mu.Lock()
	full := len(sh.eng.Pieces())
	sh.mu.Unlock()
	fromStart := len(sh.scheduleSnapshot(exact.Q{}).Pieces)
	afterEnd := len(sh.scheduleSnapshot(exact.Int(100)).Pieces)
	if full == 0 || fromStart != full || afterEnd != 0 {
		t.Errorf("windowing: full=%d fromStart=%d afterEnd=%d", full, fromStart, afterEnd)
	}
}

// TestScheduleSinceWindow pins the window's edges on a trace of two known
// pieces: a job on m0 over [0, 2) and one on m1 over [1, 3), each on the one
// machine hosting its databank. A piece that ends exactly at since is left
// out, a piece that straddles since comes back whole, since 0 returns every
// piece and since past the makespan returns none.
func TestScheduleSinceWindow(t *testing.T) {
	vc := NewVirtualClock()
	sh, err := buildShard(&shardlink.InstallArgs{
		ShardSpec: shardlink.ShardSpec{Stride: 1, MachineIdx: []int{0, 1}, Machines: []model.Machine{
			{Name: "m0", InverseSpeed: rat(1, 1), Databanks: []string{"a"}},
			{Name: "m1", InverseSpeed: rat(1, 1), Databanks: []string{"b"}},
		}},
	}, vc, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	process := func() {
		sh.mu.Lock()
		defer sh.mu.Unlock()
		sh.process()
	}
	for k, bank := range []string{"a", "b"} {
		vc.Advance(rat(int64(k), 1)) // submitted at 0 and at 1
		if _, _, err := sh.submit(model.Job{Size: rat(2, 1), Weight: rat(1, 1), Databanks: []string{bank}}); err != nil {
			t.Fatal(err)
		}
		process()
	}
	vc.Advance(rat(5, 1))
	process()

	window := func(since exact.Q) []schedule.Piece {
		rep := sh.scheduleSnapshot(since)
		if rep.Makespan.Cmp(exact.Int(3)) != 0 {
			t.Fatalf("makespan %v, want 3", rep.Makespan)
		}
		return rep.Pieces
	}
	if got := window(exact.Q{}); len(got) != 2 {
		t.Fatalf("since 0: %d pieces, want both", len(got))
	}
	got := window(exact.Int(2))
	if len(got) != 1 {
		t.Fatalf("since 2: %d pieces, want 1 (the piece ending at 2 is left out)", len(got))
	}
	want := schedule.Piece{Machine: 1, Job: 1, Start: rat(1, 1), End: rat(3, 1), Fraction: rat(1, 1)}
	if pc := got[0]; pc.Machine != want.Machine || pc.Job != want.Job ||
		pc.Start.Cmp(want.Start) != 0 || pc.End.Cmp(want.End) != 0 || pc.Fraction.Cmp(want.Fraction) != 0 {
		t.Errorf("since 2: straddling piece %v, want it whole: %v", pc, want)
	}
	if got := window(exact.Int(4)); len(got) != 0 {
		t.Errorf("since past the makespan: %d pieces, want none", len(got))
	}
}
