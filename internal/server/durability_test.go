package server

import (
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"divflow/internal/faults"
	"divflow/internal/model"
	"divflow/internal/workload"
)

// reopenServer simulates a restart: it opens a fresh server over the same
// configuration (and hence the same WAL directory) on a new virtual clock,
// advanced to the restored virtual time so the recovered engines resume on
// the time axis they froze at. The crashed predecessor is simply abandoned —
// its loops stay asleep on the old clock, exactly like a dead process.
func reopenServer(t *testing.T, cfg Config) (*Server, *VirtualClock) {
	t.Helper()
	vc := NewVirtualClock()
	cfg.Clock = vc
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	vc.Advance(srv.RestoredNow())
	return srv, vc
}

// quiesce waits until every active healthy shard has admitted its pending
// queue and processed every engine event due at or before now — the state a
// crash must strike in for the restored run to be bit-for-bit comparable to
// an uninterrupted one (and for the next routing decision to read exact,
// fully settled backlogs in both runs).
func quiesce(t *testing.T, srv *Server, now *big.Rat) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		settled := true
		for _, sh := range srv.active() {
			sh.mu.Lock()
			if sh.lastErr == nil && !sh.freed {
				if len(sh.pending) > 0 {
					settled = false
				}
				if next, ok := sh.eng.NextEvent(); ok && next.Rat().Cmp(now) <= 0 {
					settled = false
				}
			}
			sh.mu.Unlock()
		}
		if settled {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("quiesce: shards did not settle in 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestWALCleanShutdownRestoresWithZeroReplay pins the graceful-drain
// guarantee: Close writes a final snapshot, so a clean restart restores the
// whole fleet from it with zero WAL records replayed, job history intact.
func TestWALCleanShutdownRestoresWithZeroReplay(t *testing.T) {
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir()}
	vc := NewVirtualClock()
	first := cfg
	first.Clock = vc
	srv, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ size, bank string }{{"4", "swissprot"}, {"6", "pdb"}} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	want0, _ := srv.jobStatus(0)
	want1, _ := srv.jobStatus(1)
	if w := srv.Stats().WAL; w == nil || w.Appends == 0 || w.Error != "" {
		t.Fatalf("durable run WAL stats = %+v, want appends > 0 and no error", w)
	}
	srv.Close()

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	if n := srv2.ReplayedRecords(); n != 0 {
		t.Fatalf("clean shutdown replayed %d WAL records, want 0 (final snapshot covers everything)", n)
	}
	if srv2.RestoredNow().Sign() <= 0 {
		t.Fatal("restored virtual time is zero after a run that completed jobs")
	}
	for id, want := range map[int]model.JobStatus{0: want0, 1: want1} {
		got, known := srv2.jobStatus(id)
		if !known {
			t.Fatalf("job %d unknown after restore", id)
		}
		if got.State != StateDone || got.CompletedAt != want.CompletedAt || got.Flow != want.Flow {
			t.Errorf("job %d restored as %s @ %s flow %s, want %s @ %s flow %s",
				id, got.State, got.CompletedAt, got.Flow, want.State, want.CompletedAt, want.Flow)
		}
	}
	st := srv2.Stats()
	if st.JobsCompleted != 2 {
		t.Errorf("restored jobsCompleted = %d, want 2", st.JobsCompleted)
	}
	if st.WAL == nil || st.WAL.Replayed != 0 {
		t.Errorf("restored WAL stats = %+v, want replayed 0", st.WAL)
	}
	// The restored service is live: new work schedules and completes.
	srv2.Start()
	if _, err := srv2.Submit(&model.SubmitRequest{Size: "3", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 3 })
	validateServer(t, srv2)
}

// scriptState carries a scripted workload across a simulated crash: which
// jobs have been submitted so far and the global IDs they were assigned.
type scriptState struct {
	ids  []int
	next int
}

// runScript submits inst's jobs at their exact release dates over the virtual
// clock, with a full quiescence barrier before each release group (so routing
// reads settled exact backlogs — the property that makes two runs of the same
// script bit-for-bit comparable). With stopAfter >= 0 it returns right after
// the release group containing that index is admitted; otherwise it drives
// the whole workload to completion.
func runScript(t *testing.T, srv *Server, vc *VirtualClock, inst *model.Instance, st *scriptState, stopAfter int) {
	t.Helper()
	if st.ids == nil {
		st.ids = make([]int, inst.N())
	}
	for st.next < inst.N() {
		r := inst.Jobs[st.next].Release
		vc.Advance(r)
		quiesce(t, srv, r)
		for st.next < inst.N() && inst.Jobs[st.next].Release.Cmp(r) == 0 {
			j := st.next
			resp, err := srv.Submit(&model.SubmitRequest{
				Name:   inst.Jobs[j].Name,
				Weight: inst.Jobs[j].Weight.RatString(),
				Size:   inst.Jobs[j].Size.RatString(),
				// Hosted everywhere: the router is free to balance, the
				// adversarial case for routing determinism.
				Databanks: []string{"shared"},
			})
			if err != nil {
				t.Fatal(err)
			}
			st.ids[j] = resp.ID
			st.next++
		}
		submitted := st.next
		waitStats(t, srv, func(s model.StatsResponse) bool {
			return s.BatchedArrivals >= submitted
		})
		quiesce(t, srv, r)
		if stopAfter >= 0 && st.next > stopAfter {
			return
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N() })
}

// TestWALCrashRestartEquivalence is the headline recovery guarantee: a
// scripted multi-shard workload interrupted by a crash mid-run and restored
// from the WAL must finish with exactly the state an uninterrupted run
// reaches — same global IDs, same exact completion times and flows, same
// objective value, and a merged trace that validates exactly.
func TestWALCrashRestartEquivalence(t *testing.T) {
	for _, policy := range []string{"online-mwf-lazy", "srpt"} {
		for _, cut := range []int{3, 7} {
			t.Run(fmt.Sprintf("%s/cut=%d", policy, cut), func(t *testing.T) {
				testCrashRestartEquivalence(t, policy, cut)
			})
		}
	}
}

func testCrashRestartEquivalence(t *testing.T, policy string, cut int) {
	wcfg := workload.Default()
	wcfg.Jobs = 10
	wcfg.Machines = 4
	wcfg.Seed = 7
	inst := workload.MustGenerate(wcfg)

	// Reference: the same script uninterrupted.
	refVC := NewVirtualClock()
	refSrv, err := New(Config{Machines: uniformFleet(4), Policy: policy, Shards: 2,
		DisableSteal: true, Clock: refVC})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	refSrv.Start()
	refState := &scriptState{}
	runScript(t, refSrv, refVC, inst, refState, -1)

	// Interrupted: identical script, crash after the cut group is settled.
	cfg := Config{Machines: uniformFleet(4), Policy: policy, Shards: 2,
		DisableSteal: true, WALDir: t.TempDir()}
	crashCfg := cfg
	vc1 := NewVirtualClock()
	crashCfg.Clock = vc1
	srv1, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	state := &scriptState{}
	runScript(t, srv1, vc1, inst, state, cut)
	if state.next >= inst.N() {
		t.Fatalf("cut %d consumed the whole script; pick an earlier cut", cut)
	}
	// Crash: srv1 is abandoned, not closed — no final snapshot, pure replay.
	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	if srv2.ReplayedRecords() == 0 {
		t.Fatal("crash restore replayed no WAL records")
	}
	srv2.Start()
	runScript(t, srv2, vc2, inst, state, -1)

	for j := 0; j < inst.N(); j++ {
		if state.ids[j] != refState.ids[j] {
			t.Fatalf("job %d got global ID %d across the crash, reference %d", j, state.ids[j], refState.ids[j])
		}
		got, knownGot := srv2.jobStatus(state.ids[j])
		want, knownWant := refSrv.jobStatus(refState.ids[j])
		if !knownGot || !knownWant {
			t.Fatalf("job %d unknown (restored %v, reference %v)", j, knownGot, knownWant)
		}
		if got.State != want.State || got.CompletedAt != want.CompletedAt || got.Flow != want.Flow {
			t.Errorf("job %d restored run: %s @ %s flow %s; uninterrupted: %s @ %s flow %s",
				j, got.State, got.CompletedAt, got.Flow, want.State, want.CompletedAt, want.Flow)
		}
	}
	gotStats, wantStats := srv2.Stats(), refSrv.Stats()
	if gotStats.MaxWeightedFlow != wantStats.MaxWeightedFlow {
		t.Errorf("maxWeightedFlow across crash = %s, uninterrupted %s",
			gotStats.MaxWeightedFlow, wantStats.MaxWeightedFlow)
	}
	validateServer(t, srv2)
}

// migrationCrash is one crash point of the transport × crash table the two
// migration crash tests below run over: none (the whole exchange is durable),
// or a simulated crash striking right after the named record of the exchange
// landed in the log — between extract and admit, or between admit and commit.
type migrationCrash struct {
	name string
	// record is the 0-based position of the fatal append among the appends
	// that follow arming; -1 arms nothing.
	record int
	// committed reports whether the restored fleet holds the migration: a
	// reservation nobody adopted is aborted, an adopted one is committed.
	committed bool
}

// migrationCrashes lists the crash points. Both scenarios arm the fault with
// exactly one append left before the exchange (a completion, the topology
// record), so the extract record is append 1 and the adopt record append 2.
var migrationCrashes = []migrationCrash{
	{name: "complete", record: -1, committed: true},
	{name: "crash-after-extract", record: 1, committed: false},
	{name: "crash-after-admit", record: 2, committed: true},
}

// TestWALCrashAfterStealRestoresExactly crashes right after a cross-shard
// steal migrated a half-executed job — or in the middle of that steal's
// exchange — and checks the restored fleet finishes with the exact
// closed-form completions of the uninterrupted scenario
// (TestStealMigratesHalfExecutedJob): the extract, adopt and commit records
// replay the recorded placements and the donor's re-plan, a cut-off exchange
// is settled (aborted before the adoption, committed after it), and the
// merged trace still validates. Every row runs on both transports.
func TestWALCrashAfterStealRestoresExactly(t *testing.T) {
	for _, tr := range transportAxis {
		// Armed at t=2, the log next takes B's completion at t=3, then the
		// steal's extract, adopt and commit.
		for _, crash := range migrationCrashes {
			t.Run(tr+"/"+crash.name, func(t *testing.T) { testWALCrashAfterSteal(t, tr, crash) })
		}
	}
}

func testWALCrashAfterSteal(t *testing.T, transport string, crash migrationCrash) {
	t.Cleanup(faults.Reset)
	cfg := Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", WALDir: t.TempDir(), Transport: transport}
	vc := NewVirtualClock()
	crashCfg := cfg
	crashCfg.Clock = vc
	srv, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	idD := submitTo(t, srv.active()[0], "2", "shared")
	idA := submitTo(t, srv.active()[0], "6", "shared")
	idC := submitTo(t, srv.active()[0], "10", "hot")
	idB := submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
	vc.Advance(rat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	quiesce(t, srv, rat(2, 1))
	if crash.record >= 0 {
		faults.Arm(faults.CrashAfterAppend, crash.record)
	}
	// t=3: B completes, shard 1 idles and steals the half-executed A. Wait for
	// the thief to admit it so the whole steal batch (and the admission) is in
	// the WAL, then crash.
	vc.Advance(rat(3, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})
	quiesce(t, srv, rat(3, 1))
	if crash.record >= 0 && srv.dur.latchedErr() == nil {
		t.Fatal("simulated crash did not latch durability")
	}
	faults.Reset()
	// A's donor-side record is dated by the extraction, live and replayed
	// alike: the date fixes the record's compaction horizon.
	extractedAt := func(s *Server) string {
		donor := s.allShards()[0]
		donor.mu.Lock()
		defer donor.mu.Unlock()
		if rec := donor.records[idA/2]; rec.State == StateMigrated && rec.MigratedAt != nil {
			return rec.MigratedAt.String()
		}
		return "not migrated"
	}
	if at := extractedAt(srv); at != "3" {
		t.Fatalf("live donor record of A migrated at %s, want 3", at)
	}

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	if at := extractedAt(srv2); crash.committed && at != "3" {
		t.Errorf("restored donor record of A migrated at %s, want 3", at)
	}
	if now := srv2.RestoredNow(); now.Cmp(rat(3, 1)) != 0 {
		t.Fatalf("restored virtual time = %s, want 3 (the steal time)", now.RatString())
	}
	st := srv2.Stats()
	want := 0
	if crash.committed {
		want = 1
	}
	if st.Migrations != want || st.StolenJobs != want {
		t.Fatalf("restored steal counters = %d migrations / %d stolen, want %d/%d", st.Migrations, st.StolenJobs, want, want)
	}
	// The stolen record's local slot decodes to the never-issued global ID 3;
	// it must stay unknown after restore, not leak A under a phantom ID.
	if _, known := srv2.jobStatus(3); known {
		t.Error("phantom global ID 3 resolves after restore")
	}
	srv2.Start()
	// An aborted steal is simply retried by the idle thief; like the first
	// time, it must land before the clock moves on from t=3.
	waitStats(t, srv2, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})
	drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 4 })
	for id, want := range map[int]string{idD: "2", idB: "3", idA: "6", idC: "12"} {
		got, known := srv2.jobStatus(id)
		if !known || got.State != StateDone || got.CompletedAt != want {
			t.Errorf("job %d = %s @ %s (known %v), want done @ %s", id, got.State, got.CompletedAt, known, want)
		}
	}
	validateServer(t, srv2)
}

// reshardScript drives the islandFleet replication scenario to its quiesced
// pre-reshard state: four jobs submitted at t=0, the bankB island done at
// t=2, bankA still grinding.
func reshardScript(t *testing.T, srv *Server, vc *VirtualClock) []int {
	t.Helper()
	var ids []int
	for _, spec := range []struct{ size, bank string }{
		{"8", "bankA"}, {"8", "bankA"}, {"8", "bankA"}, {"2", "bankB"},
	} {
		resp, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
	vc.Advance(rat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	quiesce(t, srv, rat(2, 1))
	return ids
}

// finishReshardScenario drives a post-reshard server to completion and
// returns each job's final status keyed by global ID.
func finishReshardScenario(t *testing.T, srv *Server, vc *VirtualClock, ids []int) map[int]model.JobStatus {
	t.Helper()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })
	out := make(map[int]model.JobStatus, len(ids))
	for _, id := range ids {
		st, known := srv.jobStatus(id)
		if !known {
			t.Fatalf("job %d unknown", id)
		}
		out[id] = st
	}
	return out
}

// TestWALCrashAfterReshardRestoresExactly crashes right after a completed
// live reshard (topology generation 1, jobs migrated onto the merged shard)
// — or in the middle of the reshard's drain of a retired shard — and checks
// the restored fleet comes back in the new topology and finishes exactly like
// the uninterrupted run. Every row runs on both transports.
func TestWALCrashAfterReshardRestoresExactly(t *testing.T) {
	for _, tr := range transportAxis {
		// Armed right before the reshard, the log next takes the topology
		// record, then the bankA island's extract, adopt and commit.
		for _, crash := range migrationCrashes {
			t.Run(tr+"/"+crash.name, func(t *testing.T) { testWALCrashAfterReshard(t, tr, crash) })
		}
	}
}

func testWALCrashAfterReshard(t *testing.T, transport string, crash migrationCrash) {
	t.Cleanup(faults.Reset)
	// Reference: the reshard scenario uninterrupted.
	refVC := NewVirtualClock()
	refSrv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: refVC, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	refIDs := reshardScript(t, refSrv, refVC)
	if _, err := refSrv.Reshard(&model.Platform{Machines: replicatedFleet()}); err != nil {
		t.Fatal(err)
	}
	want := finishReshardScenario(t, refSrv, refVC, refIDs)

	cfg := Config{Machines: islandFleet(), Policy: "srpt", WALDir: t.TempDir(), Transport: transport}
	vc := NewVirtualClock()
	crashCfg := cfg
	crashCfg.Clock = vc
	srv, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := reshardScript(t, srv, vc)
	if crash.record >= 0 {
		faults.Arm(faults.CrashAfterAppend, crash.record)
	}
	resp, err := srv.Reshard(&model.Platform{Machines: replicatedFleet()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 || resp.MigratedJobs != 3 {
		t.Fatalf("reshard = generation %d, %d migrated, want 1 and 3", resp.Generation, resp.MigratedJobs)
	}
	// Let the spawned shard admit the migrated jobs so the whole reshard is
	// durable, then crash.
	quiesce(t, srv, rat(2, 1))
	if crash.record >= 0 && srv.dur.latchedErr() == nil {
		t.Fatal("simulated crash did not latch durability")
	}
	faults.Reset()

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	if srv2.Generation() != 1 || srv2.ShardCount() != 1 {
		t.Fatalf("restored topology = generation %d, %d shards, want generation 1 with 1 shard",
			srv2.Generation(), srv2.ShardCount())
	}
	// However far the drain got, restore finishes it before any loop runs.
	if st := srv2.Stats(); st.ReshardedJobs != 3 {
		t.Fatalf("restored fleet resharded %d jobs, want 3", st.ReshardedJobs)
	}
	srv2.Start()
	got := finishReshardScenario(t, srv2, vc2, ids)
	for id, w := range want {
		g := got[id]
		if g.State != w.State || g.CompletedAt != w.CompletedAt || g.Flow != w.Flow {
			t.Errorf("job %d restored: %s @ %s, uninterrupted: %s @ %s", id, g.State, g.CompletedAt, w.State, w.CompletedAt)
		}
	}
	validateServer(t, srv2)
}

// TestWALCrashDuringReshardRepairsStranded crashes *inside* a reshard: the
// topology record is durable but every migrate record after it is lost. The
// restored server must come up in the new topology, notice the unfinished
// jobs stranded on retired shards, re-migrate them itself (repairRetired),
// and still finish exactly like an uninterrupted run.
func TestWALCrashDuringReshardRepairsStranded(t *testing.T) {
	t.Cleanup(faults.Reset)
	refVC := NewVirtualClock()
	refSrv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: refVC})
	if err != nil {
		t.Fatal(err)
	}
	defer refSrv.Close()
	refIDs := reshardScript(t, refSrv, refVC)
	if _, err := refSrv.Reshard(&model.Platform{Machines: replicatedFleet()}); err != nil {
		t.Fatal(err)
	}
	want := finishReshardScenario(t, refSrv, refVC, refIDs)

	cfg := Config{Machines: islandFleet(), Policy: "srpt", WALDir: t.TempDir()}
	vc := NewVirtualClock()
	crashCfg := cfg
	crashCfg.Clock = vc
	srv, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	ids := reshardScript(t, srv, vc)
	// The very next WAL append is the reshard's topology record: it lands
	// durably, then the simulated crash strikes — every migrate record after
	// it is lost, exactly a crash halfway through writing the reshard.
	faults.Arm(faults.CrashAfterAppend, 0)
	if _, err := srv.Reshard(&model.Platform{Machines: replicatedFleet()}); err != nil {
		t.Fatal(err)
	}
	if err := srv.dur.latchedErr(); err == nil {
		t.Fatal("simulated crash did not latch durability")
	}
	faults.Reset()

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	if srv2.Generation() != 1 || srv2.ShardCount() != 1 {
		t.Fatalf("restored topology = generation %d, %d shards, want the durable post-reshard topology",
			srv2.Generation(), srv2.ShardCount())
	}
	// Every unfinished job must be off the retired shards before any loop runs.
	for _, sh := range srv2.allShards() {
		if !sh.retired {
			continue
		}
		sh.mu.Lock()
		stranded := len(sh.pending) + sh.eng.Live()
		sh.mu.Unlock()
		if stranded != 0 {
			t.Fatalf("retired shard %d still holds %d unfinished jobs after repair", sh.idx, stranded)
		}
	}
	srv2.Start()
	got := finishReshardScenario(t, srv2, vc2, ids)
	for id, w := range want {
		g := got[id]
		if g.State != w.State || g.CompletedAt != w.CompletedAt {
			t.Errorf("job %d repaired run: %s @ %s, uninterrupted: %s @ %s", id, g.State, g.CompletedAt, w.State, w.CompletedAt)
		}
	}
	validateServer(t, srv2)
}

// TestWALCrashAfterAppendLosesNoAcknowledgedSubmission pins the write-ahead
// contract: a submission acknowledged to the client is durable even when the
// process dies immediately after the append, and the restored run completes
// it at exactly the time the uninterrupted run would have.
func TestWALCrashAfterAppendLosesNoAcknowledgedSubmission(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir()}
	vc := NewVirtualClock()
	crashCfg := cfg
	crashCfg.Clock = vc
	srv, err := New(crashCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	quiesce(t, srv, vc.Now())

	// The crash strikes on the very next append: the submit record of job 1
	// is durable (the client got its ID), everything after is lost.
	faults.Arm(faults.CrashAfterAppend, 0)
	resp, err := srv.Submit(&model.SubmitRequest{Size: "6", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	// The in-memory server keeps scheduling past the crash latch.
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	want, _ := srv.jobStatus(resp.ID)
	faults.Reset()

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	got, known := srv2.jobStatus(resp.ID)
	if !known {
		t.Fatalf("acknowledged job %d lost across the crash", resp.ID)
	}
	if got.State != StateQueued {
		t.Fatalf("restored job %d state = %s, want queued (admission was not durable)", resp.ID, got.State)
	}
	srv2.Start()
	drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 2 })
	got, _ = srv2.jobStatus(resp.ID)
	if got.CompletedAt != want.CompletedAt || got.Flow != want.Flow {
		t.Errorf("restored job completes @ %s flow %s, uninterrupted @ %s flow %s",
			got.CompletedAt, got.Flow, want.CompletedAt, want.Flow)
	}
	validateServer(t, srv2)
}

// TestWALFaultLatchesAndKeepsServing pins the durability failure policy for
// injected append and fsync failures: the first failure latches durability
// at a consistent on-disk prefix, the daemon keeps scheduling, /healthz
// degrades without failing, snapshots refuse to run, and a restart recovers
// exactly the pre-latch prefix.
func TestWALFaultLatchesAndKeepsServing(t *testing.T) {
	for _, pt := range []string{faults.WALAppend, faults.WALFsync} {
		t.Run(pt, func(t *testing.T) {
			t.Cleanup(faults.Reset)
			cfg := Config{Machines: testFleet(), WALDir: t.TempDir(), Fsync: pt == faults.WALFsync}
			vc := NewVirtualClock()
			runCfg := cfg
			runCfg.Clock = vc
			srv, err := New(runCfg)
			if err != nil {
				t.Fatal(err)
			}
			ts := httptest.NewServer(srv.Handler())
			defer ts.Close()
			// First append (job 0's submit) lands, the second fails.
			faults.Arm(pt, 1)
			id0resp, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.Submit(&model.SubmitRequest{Size: "6", Databanks: []string{"swissprot"}}); err != nil {
				t.Fatal(err)
			}
			srv.Start()
			// The scheduler is unaffected: both jobs complete in memory.
			drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
			st := srv.Stats()
			if st.WAL == nil || st.WAL.Error == "" {
				t.Fatalf("WAL stats after injected %s = %+v, want a latched error", pt, st.WAL)
			}
			var health model.HealthResponse
			getJSON(t, ts.URL+"/healthz", &health)
			if health.Status != "degraded" || health.WALError == "" {
				t.Errorf("healthz = %+v, want degraded with walError", health)
			}
			if err := srv.Snapshot(); err == nil {
				t.Error("snapshot after latched durability must refuse")
			}
			srv.Close()

			// Restart: only the pre-latch prefix (job 0's submission) survives.
			faults.Reset()
			srv2, vc2 := reopenServer(t, cfg)
			defer srv2.Close()
			if n := srv2.ReplayedRecords(); n != 1 {
				t.Fatalf("replayed %d records, want 1 (the pre-latch submit)", n)
			}
			if _, known := srv2.jobStatus(id0resp.ID); !known {
				t.Fatal("pre-latch submission lost")
			}
			srv2.Start()
			drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 1 })
		})
	}
}

// TestWALTornSnapshotFallsBack pins two halves of torn-snapshot handling: the
// snapshot path detects the corrupt file it just published (and refuses to
// truncate the log on its strength), and restore skips the torn file, falling
// back to the previous snapshot plus the full WAL suffix — no history lost.
func TestWALTornSnapshotFallsBack(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir()}
	vc := NewVirtualClock()
	runCfg := cfg
	runCfg.Clock = vc
	srv, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "6", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	want1, _ := srv.jobStatus(1)

	faults.Arm(faults.TornSnapshot, 0)
	if err := srv.Snapshot(); err == nil {
		t.Fatal("torn snapshot write must fail verification, not truncate the WAL")
	}
	faults.Reset()

	// Crash. Restore must skip the torn snapshot and rebuild job 1 from the
	// previous snapshot plus the untruncated WAL suffix.
	srv2, _ := reopenServer(t, cfg)
	defer srv2.Close()
	if srv2.ReplayedRecords() == 0 {
		t.Fatal("no WAL records replayed; the torn snapshot was trusted")
	}
	got1, known := srv2.jobStatus(1)
	if !known || got1.State != StateDone || got1.CompletedAt != want1.CompletedAt {
		t.Fatalf("job 1 restored as %+v (known %v), want done @ %s", got1, known, want1.CompletedAt)
	}
	if st := srv2.Stats(); st.JobsCompleted != 2 {
		t.Errorf("restored jobsCompleted = %d, want 2", st.JobsCompleted)
	}
	validateServer(t, srv2)
}

// TestShardPanicSupervised pins the supervisor: an injected panic inside one
// shard's scheduling decision latches that shard as stalled — counted,
// journaled, /healthz naming it — while the rest of the fleet keeps serving
// and the process survives.
func TestShardPanicSupervised(t *testing.T) {
	t.Cleanup(faults.Reset)
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, DisableSteal: true, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	faults.Arm(faults.PanicInPolicy, 0)
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"shared"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.Stalled })
	st := srv.Stats()
	var panicked *model.ShardStats
	for i := range st.Shards {
		if st.Shards[i].Panics > 0 {
			panicked = &st.Shards[i]
		}
	}
	if panicked == nil || !panicked.Stalled || panicked.LastError == "" {
		t.Fatalf("no shard reports the caught panic: %+v", st.Shards)
	}
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz with a stalled shard = %d, want 503", resp.StatusCode)
	}
	// The healthy shard still serves: the router skips the poisoned one.
	if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"shared"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
}

// TestRestartStalledRecoversPanickedShard pins -restart-stalled: the
// supervisor rebuilds the panicked shard in place from its intact engine
// state, the interrupted decision is retried, every job completes, and (with
// a WAL) a crash after the recovery restores the same final state.
func TestRestartStalledRecoversPanickedShard(t *testing.T) {
	t.Cleanup(faults.Reset)
	cfg := Config{Machines: uniformFleet(4), Shards: 2, DisableSteal: true,
		RestartStalled: true, WALDir: t.TempDir()}
	vc := NewVirtualClock()
	runCfg := cfg
	runCfg.Clock = vc
	srv, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	faults.Arm(faults.PanicInPolicy, 0)
	resp, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"shared"}})
	if err != nil {
		t.Fatal(err)
	}
	// The panic latches the shard; the restart hook rebuilds it and the job
	// completes without any external intervention.
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	st := srv.Stats()
	if st.Stalled {
		t.Fatal("fleet still stalled after a supervised restart")
	}
	restarted := false
	for _, ss := range st.Shards {
		if ss.Panics == 1 && ss.Restarts == 1 && !ss.Stalled {
			restarted = true
		}
	}
	if !restarted {
		t.Fatalf("no shard shows panics=1 restarts=1: %+v", st.Shards)
	}
	want, _ := srv.jobStatus(resp.ID)
	faults.Reset()

	// Crash after recovery: replay admits the job normally (the fault is
	// gone) and must land on the identical completion.
	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	srv2.Start()
	drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 1 })
	got, known := srv2.jobStatus(resp.ID)
	if !known || got.CompletedAt != want.CompletedAt {
		t.Errorf("restored completion = %s (known %v), want %s", got.CompletedAt, known, want.CompletedAt)
	}
}

// TestRetiredShardFreedAfterCompaction is the regression test for retired-
// shard memory: once a retired shard's whole history compacts away, its
// records, queues, engine, and policy are released — only the ID-decoding
// tombstone stays, old global IDs answer not-found, frozen counters keep the
// history, and the tombstone survives snapshot/restore.
func TestRetiredShardFreedAfterCompaction(t *testing.T) {
	cfg := Config{Machines: islandFleet(), Policy: "srpt", Retention: rat(5, 1), WALDir: t.TempDir()}
	vc := NewVirtualClock()
	runCfg := cfg
	runCfg.Clock = vc
	srv, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, bank := range []string{"bankA", "bankB"} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{bank}}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	if _, err := srv.Reshard(&model.Platform{Machines: replicatedFleet()}); err != nil {
		t.Fatal(err)
	}
	// The retired islands hold only completed history; their low-duty loops
	// wake once per retention window, compact it away, and free themselves.
	drive(t, vc, func() bool {
		freed := 0
		for _, ss := range srv.Stats().Shards {
			if ss.Freed {
				freed++
			}
		}
		return freed == 2
	})
	for _, sh := range srv.allShards() {
		if !sh.retired {
			continue
		}
		sh.mu.Lock()
		if !sh.freed || sh.eng != nil || sh.policy != nil || sh.records != nil {
			t.Errorf("retired shard %d not fully freed: freed=%v eng=%v records=%d", sh.idx, sh.freed, sh.eng != nil, len(sh.records))
		}
		sh.mu.Unlock()
	}
	// Old global IDs decode through the tombstone to not-found — no panic, no
	// phantom status.
	for id := 0; id < 2; id++ {
		if _, known := srv.jobStatus(id); known {
			t.Errorf("compacted job %d still resolves", id)
		}
	}
	// Frozen counters keep the aggregate history.
	st := srv.Stats()
	if st.JobsCompleted != 2 || st.JobsAccepted != 2 {
		t.Errorf("aggregates after free = %d completed / %d accepted, want 2/2", st.JobsCompleted, st.JobsAccepted)
	}
	// The tombstones survive snapshot + crash + restore.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"bankA"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	st2 := srv2.Stats()
	freed := 0
	for _, ss := range st2.Shards {
		if ss.Freed {
			freed++
		}
	}
	if freed != 2 {
		t.Fatalf("restored fleet has %d freed tombstones, want 2", freed)
	}
	if _, known := srv2.jobStatus(0); known {
		t.Error("compacted job resolves after restore")
	}
	if st2.JobsCompleted != 3 {
		t.Errorf("restored jobsCompleted = %d, want 3", st2.JobsCompleted)
	}
	// The restored fleet still schedules.
	srv2.Start()
	if _, err := srv2.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"bankB"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc2, func() bool { return srv2.Stats().JobsCompleted == 4 })
}

// TestWALUnderConcurrentTraffic runs free-running concurrent submitters over
// a real clock with the WAL, cadence snapshots, and stealing all on — the
// -race exercise for the durability layer's locking — then closes cleanly and
// checks a restart restores the full fleet state.
func TestWALUnderConcurrentTraffic(t *testing.T) {
	cfg := Config{Machines: uniformFleet(4), Shards: 2, WALDir: t.TempDir(), SnapshotEvery: 16}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	const workers, perWorker = 4, 10
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if _, err := srv.Submit(&model.SubmitRequest{Size: "1/100", Databanks: []string{"shared"}}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.JobsCompleted == workers*perWorker
	})
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	want := srv.Stats()
	srv.Close()

	vc := NewVirtualClock()
	cfg.Clock = vc
	srv2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	got := srv2.Stats()
	if got.JobsCompleted != want.JobsCompleted || got.JobsAccepted != want.JobsAccepted {
		t.Errorf("restored %d completed / %d accepted, want %d / %d",
			got.JobsCompleted, got.JobsAccepted, want.JobsCompleted, want.JobsAccepted)
	}
	if want.WAL != nil && want.WAL.Snapshots == 0 {
		t.Error("cadence snapshots never ran despite SnapshotEvery=16")
	}
	validateServer(t, srv2)
}

// TestWALRestorePreservesFlowHistogram pins the snapshot's telemetry
// carriage: per-shard completed-flow histograms ride in the DIVSNAP1
// document and are restored before WAL replay re-observes post-snapshot
// completions, so /v1/stats answers the same p95Flow before a crash and
// after the restore. Without the Flow field a restored fleet would estimate
// quantiles from post-crash completions only.
func TestWALRestorePreservesFlowHistogram(t *testing.T) {
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir()}
	vc := NewVirtualClock()
	first := cfg
	first.Clock = vc
	srv, err := New(first)
	if err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ size, bank string }{
		{"4", "swissprot"}, {"6", "pdb"}, {"2", "swissprot"},
	} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}}); err != nil {
			t.Fatal(err)
		}
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	// Force a snapshot now: the first three flows must survive through the
	// document, not through replay.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	for _, spec := range []struct{ size, bank string }{{"3", "pdb"}, {"5", "swissprot"}} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}}); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 5 })
	want := srv.Stats().P95Flow
	if want <= 0 {
		t.Fatalf("pre-crash p95Flow = %v, want positive", want)
	}

	// Crash: srv is abandoned, not closed — restore = snapshot + WAL suffix.
	srv2, _ := reopenServer(t, cfg)
	defer srv2.Close()
	if srv2.ReplayedRecords() == 0 {
		t.Fatal("crash restore replayed no WAL records; the post-snapshot completions should be in the suffix")
	}
	if got := srv2.Stats().P95Flow; got != want {
		t.Errorf("restored p95Flow = %v, pre-crash %v; flow histogram not carried through the snapshot", got, want)
	}
}
