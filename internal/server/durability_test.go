package server

import (
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"divflow/internal/faults"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/wal"
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
			if sh.lastErr == nil {
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
	// cut, when set, ends the script at the first quiescence point where it
	// reports true, before another release group is submitted.
	cut func() bool
}

func (st *scriptState) stop() bool { return st.cut != nil && st.cut() }

// runScript submits inst's jobs at their exact release dates over the virtual
// clock, with a full quiescence barrier before each release group (so routing
// reads settled exact backlogs — the property that makes two runs of the same
// script bit-for-bit comparable). With stopAfter >= 0 it returns right after
// the release group containing that index is admitted; otherwise it drives
// the whole workload to completion. Either way it returns where st.cut fires.
func runScript(t *testing.T, srv *Server, vc *VirtualClock, inst *model.Instance, st *scriptState, stopAfter int) {
	t.Helper()
	if st.ids == nil {
		st.ids = make([]int, inst.N())
	}
	for st.next < inst.N() {
		r := inst.Jobs[st.next].Release
		vc.Advance(r)
		quiesce(t, srv, r)
		if st.stop() {
			return
		}
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
			return s.BatchedArrivals >= submitted || st.stop()
		})
		quiesce(t, srv, r)
		if stopAfter >= 0 && st.next > stopAfter || st.stop() {
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
		if rec := donor.records.get(idA / 2); rec.State == StateMigrated && rec.MigratedAt != nil {
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

// TestPanicUnderWALRestoresUninterrupted pins the one way a panicked shard
// recovers: the panic latches the live shard, and a restore from its
// write-ahead log finishes the stream with exactly the completions of a
// fault-free run: replay retakes the interrupted decision as the fault-free
// run took it.
func TestPanicUnderWALRestoresUninterrupted(t *testing.T) {
	t.Cleanup(faults.Reset)
	wcfg := workload.Default()
	wcfg.Jobs, wcfg.Machines, wcfg.Seed = 8, 3, 7
	inst := workload.MustGenerate(wcfg)

	refVC := NewVirtualClock()
	ref, err := New(Config{Machines: uniformFleet(3), Shards: 1, Clock: refVC})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	ref.Start()
	refState := &scriptState{}
	runScript(t, ref, refVC, inst, refState, -1)

	for _, decision := range []int{5, 7} {
		t.Run(fmt.Sprintf("decision=%d", decision), func(t *testing.T) {
			cfg := Config{Machines: uniformFleet(3), Shards: 1, WALDir: t.TempDir()}
			live := cfg
			vc := NewVirtualClock()
			live.Clock = vc
			srv, err := New(live)
			if err != nil {
				t.Fatal(err)
			}
			srv.Start()
			faults.Arm(faults.PanicInPolicy, decision-1)
			// Cut the script where the panic fired: a latched shard admits
			// nothing, so a later group would reach the log at the wrong
			// time. Fired turns true inside the panicking decision, before
			// Stats shows the latch.
			fired := func() bool { return faults.Fired(faults.PanicInPolicy) }
			state := &scriptState{cut: fired}
			runScript(t, srv, vc, inst, state, -1)
			if !fired() {
				t.Fatalf("the script ended before decision %d", decision)
			}
			waitStats(t, srv, func(s model.StatsResponse) bool { return s.Stalled })
			st := srv.Stats()
			if len(st.Shards) != 1 || st.Shards[0].Panics != 1 || st.Shards[0].LastError == "" {
				t.Fatalf("the panic on decision %d did not latch the shard: %+v", decision, st.Shards)
			}
			faults.Reset()
			state.cut = nil

			// Crash: the log ends where it stands (the latched loop keeps
			// running), srv is abandoned, and the restore replays the log.
			srv.dur.mu.Lock()
			srv.dur.err = faults.ErrCrash
			srv.dur.mu.Unlock()
			srv2, vc2 := reopenServer(t, cfg)
			defer srv2.Close()
			if st := srv2.Stats(); st.Stalled {
				t.Fatalf("restored shard still latched: %+v", st.Shards)
			}
			srv2.Start()
			runScript(t, srv2, vc2, inst, state, -1)
			for j := 0; j < inst.N(); j++ {
				got, knownGot := srv2.jobStatus(state.ids[j])
				want, knownWant := ref.jobStatus(refState.ids[j])
				if !knownGot || !knownWant || state.ids[j] != refState.ids[j] {
					t.Fatalf("job %d: ID %d (known %v), reference %d (known %v)", j, state.ids[j], knownGot, refState.ids[j], knownWant)
				}
				if got.CompletedAt != want.CompletedAt || got.Flow != want.Flow {
					t.Errorf("job %d restored: done @ %s flow %s; fault-free: @ %s flow %s",
						j, got.CompletedAt, got.Flow, want.CompletedAt, want.Flow)
				}
			}
			if got, want := srv2.Stats().MaxWeightedFlow, ref.Stats().MaxWeightedFlow; got != want {
				t.Errorf("maxWeightedFlow restored %s, fault-free %s", got, want)
			}
			validateServer(t, srv2)
		})
	}
}

// panicFixture is a standalone shard with two jobs admitted through process(),
// the virtual clock advanced to the engine's next event and
// faults.PanicInPolicy armed: the decision the next catch-up runs, wherever it
// runs, panics. The shard journals into the returned telemetry.
func panicFixture(t *testing.T, admission string) (*shard, *telemetry) {
	t.Helper()
	t.Cleanup(faults.Reset)
	vc := NewVirtualClock()
	sh, err := buildShard(nil, &shardlink.InstallArgs{
		ShardSpec: shardlink.ShardSpec{Stride: 1, Machines: uniformFleet(2), MachineIdx: []int{0, 1}},
		Admission: admission,
	}, vc, nil)
	if err != nil {
		t.Fatal(err)
	}
	tel := newTelemetry(true, nil)
	sh.obs = tel.newShardObs(sh)
	for _, size := range []int64{2, 3} {
		if _, _, err := sh.submit(model.Job{Size: rat(size, 1), Weight: rat(1, 1), Databanks: []string{"shared"}}); err != nil {
			t.Fatal(err)
		}
	}
	sh.mu.Lock()
	sh.process()
	next, ok := sh.eng.NextEvent()
	sh.mu.Unlock()
	if !ok {
		t.Fatal("no engine event after admitting two jobs")
	}
	vc.Advance(next.Rat())
	faults.Arm(faults.PanicInPolicy, 0)
	return sh, tel
}

// deadlineJob is a job the fixture's shard can host, due well after its
// two jobs finish.
func deadlineJob() model.Job {
	return model.Job{Size: rat(1, 1), Weight: rat(1, 1), Databanks: []string{"shared"}, Deadline: rat(100, 1)}
}

// checkPanicLatched requires the fixture's panic to have fired and latched
// the shard: stalled on its routing key and in its stats, counted once, and
// journaled with its stack.
func checkPanicLatched(t *testing.T, sh *shard, tel *telemetry) {
	t.Helper()
	if !faults.Fired(faults.PanicInPolicy) {
		t.Fatal("the armed policy panic never fired")
	}
	if sh.route.Load().Err == "" {
		t.Error("the routing key does not report the panic")
	}
	snap := sh.statsSnapshot()
	if !snap.Wire.Stalled || snap.Wire.Panics != 1 || !strings.Contains(snap.Wire.LastError, "injected panic") {
		t.Errorf("stats after the panic: stalled %v, panics %d, lastError %q", snap.Wire.Stalled, snap.Wire.Panics, snap.Wire.LastError)
	}
	events, _, _ := tel.journal.Since(0, obs.Filter{Type: obs.EventShardPanic})
	if len(events) != 1 || !strings.Contains(events[0].Detail, "goroutine") {
		t.Errorf("journaled panics %+v, want one with its stack", events)
	}
}

// TestDecidePanicInSubmitLatches pins the panic barrier on the admission
// catch-up: a policy panic in the decision a deadline submission's catch-up
// runs returns from submit with the shard latched, instead of unwinding
// through the caller.
func TestDecidePanicInSubmitLatches(t *testing.T) {
	sh, tel := panicFixture(t, AdmissionAdvisory)
	if _, _, err := sh.submit(deadlineJob()); err != nil {
		t.Fatal(err)
	}
	checkPanicLatched(t, sh, tel)
}

// TestDecidePanicInExtractLatches pins the panic barrier on a donor's
// catch-up: a steal's extraction, which runs on the thief's loop goroutine
// outside its loop barrier, returns with the donor latched.
func TestDecidePanicInExtractLatches(t *testing.T) {
	sh, tel := panicFixture(t, AdmissionStrict)
	sh.extractJobs(shardlink.ExtractArgs{ThiefMachines: uniformFleet(1)})
	checkPanicLatched(t, sh, tel)
}

// TestStalledAdmissionChecksNothing pins what an admission whose catch-up
// failed answers: it checked nothing, so it certifies nothing. Strict
// refuses the job as a stalled shard, over the message boundary too;
// advisory admits it without a certificate.
func TestStalledAdmissionChecksNothing(t *testing.T) {
	t.Run("strict", func(t *testing.T) {
		sh, _ := panicFixture(t, AdmissionStrict)
		rep := sh.submitOp(shardlink.SubmitArgs{Job: deadlineJob()})
		if rep.Outcome != shardlink.OutcomeStalled || rep.Admission != nil {
			t.Fatalf("strict submit on a failed catch-up: %+v, want outcome %q and no certificate", rep, shardlink.OutcomeStalled)
		}
		_, err := submitErr(rep)
		status, we := submitWireError(err, model.SubmitResponse{})
		if status != http.StatusServiceUnavailable || we.Code != model.ErrCodeShardStalled || we.RetryAfter == 0 {
			t.Errorf("strict refusal maps to %d %+v, want 503 shard_stalled with Retry-After", status, we)
		}
		if n := sh.records.next(); n != 2 {
			t.Errorf("the refused job took a record: %d records, want 2", n)
		}
	})
	t.Run("advisory", func(t *testing.T) {
		sh, _ := panicFixture(t, AdmissionAdvisory)
		gid, cert, err := sh.submit(deadlineJob())
		if err != nil {
			t.Fatal(err)
		}
		if cert != nil {
			t.Errorf("advisory submit on a failed catch-up certified %+v", *cert)
		}
		if rec := sh.records.get(gid); rec == nil || rec.State != StateQueued {
			t.Errorf("advisory submit did not queue the job: %+v", rec)
		}
	})
}

// TestRetiredShardFreedAfterCompaction is the regression test for retired-
// shard memory: once a retired shard's whole history compacts away, /v1/stats
// flags it freed and the shard holds no records, jobs, pieces or plan pieces;
// old global IDs answer not-found, the aggregates keep the history, and all
// of it survives snapshot/restore.
func TestRetiredShardFreedAfterCompaction(t *testing.T) {
	cfg := Config{Machines: islandFleet(), Policy: "online-mwf-lazy", Retention: rat(5, 1), WALDir: t.TempDir()}
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
	freedShards := func(st model.StatsResponse) (freed []model.ShardStats) {
		for _, ss := range st.Shards {
			if ss.Freed {
				freed = append(freed, ss)
			}
		}
		return freed
	}
	// The retired islands hold only completed history; their low-duty loops
	// wake once per retention window and compact it away.
	drive(t, vc, func() bool { return len(freedShards(srv.Stats())) == 2 })
	for _, ss := range freedShards(srv.Stats()) {
		if !ss.Retired || ss.JobsAccepted != 1 || ss.JobsCompleted != 1 || ss.LPSolves == 0 || ss.Solver.FloatVerified == 0 {
			t.Errorf("freed shard %d lost its history: %+v", ss.Shard, ss)
		}
	}
	for _, sh := range srv.allShards() {
		if !sh.retired {
			continue
		}
		sh.mu.Lock()
		eng, plan := sh.eng.ExportState(), sh.mwf.ExportPlanState()
		if sh.records.recs != nil || len(eng.Jobs) != 0 || len(eng.Pieces) != 0 || len(plan.Plan) != 0 {
			t.Errorf("retired shard %d still holds %d record slots, %d jobs, %d pieces, %d plan pieces",
				sh.idx, len(sh.records.recs), len(eng.Jobs), len(eng.Pieces), len(plan.Plan))
		}
		sh.mu.Unlock()
	}
	// Old global IDs decode to not-found — no panic, no phantom status.
	for id := 0; id < 2; id++ {
		if _, known := srv.jobStatus(id); known {
			t.Errorf("compacted job %d still resolves", id)
		}
	}
	// The aggregates keep the history.
	st := srv.Stats()
	if st.JobsCompleted != 2 || st.JobsAccepted != 2 {
		t.Errorf("aggregates after the free = %d completed / %d accepted, want 2/2", st.JobsCompleted, st.JobsAccepted)
	}
	// The freed shards survive snapshot + crash + restore.
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"bankA"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	wantFreed := freedShards(srv.Stats())

	srv2, vc2 := reopenServer(t, cfg)
	defer srv2.Close()
	st2 := srv2.Stats()
	if got := freedShards(st2); !reflect.DeepEqual(got, wantFreed) {
		t.Errorf("restored freed shards:\n%+v\nbefore the crash:\n%+v", got, wantFreed)
	}
	if _, known := srv2.jobStatus(0); known {
		t.Error("compacted job resolves after restore")
	}
	if st2.JobsCompleted != 3 || st2.JobsAccepted != 3 {
		t.Errorf("restored aggregates = %d completed / %d accepted, want 3/3", st2.JobsCompleted, st2.JobsAccepted)
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

// walFiles returns the watermarks of the snapshot files in dir and the
// first seqs of its log segments, both oldest first.
func walFiles(t *testing.T, dir string) (snaps, segs []uint64) {
	t.Helper()
	for _, f := range []struct {
		glob, prefix, suffix string
		out                  *[]uint64
	}{{"snap-*.json", "snap-", ".json", &snaps}, {"wal-*.log", "wal-", ".log", &segs}} {
		names, err := filepath.Glob(filepath.Join(dir, f.glob))
		if err != nil {
			t.Fatal(err)
		}
		sort.Strings(names)
		for _, name := range names {
			hex := strings.TrimSuffix(strings.TrimPrefix(filepath.Base(name), f.prefix), f.suffix)
			n, err := strconv.ParseUint(hex, 16, 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			*f.out = append(*f.out, n)
		}
	}
	return snaps, segs
}

// TestWALSnapshotSealsTheSegmentItCovers pins what a snapshot leaves behind:
// it seals the log at its watermark and truncates the log behind the older of
// the two snapshots kept, so after cadence snapshots and a clean Close the
// directory holds two snapshots and only the log from the older one's
// watermark on. A restart decodes at most one snapshot interval of records
// the newest snapshot covers, and with the newest snapshot torn the fleet
// still restores exactly from the older one.
func TestWALSnapshotSealsTheSegmentItCovers(t *testing.T) {
	t.Cleanup(faults.Reset)
	// One job is three records — submit, admit, complete — and each job runs
	// alone, so every cadence snapshot falls on a completion.
	const every = 3
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir(), SnapshotEvery: every}
	vc := NewVirtualClock()
	runCfg := cfg
	runCfg.Clock = vc
	srv, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	// caughtUp waits for the cadence snapshot an append asked for.
	caughtUp := func() {
		t.Helper()
		waitStats(t, srv, func(model.StatsResponse) bool {
			srv.dur.mu.Lock()
			defer srv.dur.mu.Unlock()
			return srv.dur.sinceSnap < every
		})
	}
	srv.Start()
	const jobs = 4
	for k := 1; k <= jobs; k++ {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}}); err != nil {
			t.Fatal(err)
		}
		waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= k })
		drive(t, vc, func() bool { return srv.Stats().JobsCompleted == k })
		caughtUp()
	}
	if n := srv.Stats().WAL.Snapshots; n != 1+jobs {
		t.Fatalf("%d snapshots after %d jobs of %d records at SnapshotEvery %d, want %d", n, jobs, every, every, 1+jobs)
	}
	// A job still queued at shutdown: Close snapshots past the last cadence
	// watermark.
	if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"pdb"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= jobs+1 })
	quiesce(t, srv, vc.Now())
	want := make(map[int]model.JobStatus)
	for id := 0; id <= jobs; id++ {
		want[id], _ = srv.jobStatus(id)
	}
	wantStats := srv.Stats()
	srv.Close()

	snaps, segs := walFiles(t, cfg.WALDir)
	if len(snaps) != 2 || snaps[0] != every*jobs || snaps[1] <= snaps[0] {
		t.Fatalf("snapshots at watermarks %v, want the last cadence one (%d) and Close's after it", snaps, every*jobs)
	}
	older, newest := snaps[0], snaps[1]
	if len(segs) == 0 || segs[0] != older+1 {
		t.Fatalf("segments start at seqs %v, want the log from the older snapshot's watermark %d on", segs, older)
	}
	_, recs, err := wal.Open(cfg.WALDir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	covered := 0
	for _, rec := range recs {
		if rec.Seq <= newest {
			covered++
		}
	}
	if covered == 0 || covered > every {
		t.Fatalf("a restart decodes %d records at or below the newest watermark %d, want 1 to %d", covered, newest, every)
	}

	torn := t.TempDir()
	copyDir(t, cfg.WALDir, torn)
	restoresExactly := func(srv *Server, replayed int) {
		t.Helper()
		if n := srv.ReplayedRecords(); n != replayed {
			t.Errorf("replayed %d records, want %d", n, replayed)
		}
		for id, w := range want {
			if got, known := srv.jobStatus(id); !known || !reflect.DeepEqual(got, w) {
				t.Errorf("job %d restored as %+v (known %v), want %+v", id, got, known, w)
			}
		}
		st := srv.Stats()
		if st.JobsCompleted != wantStats.JobsCompleted || st.MaxWeightedFlow != wantStats.MaxWeightedFlow {
			t.Errorf("restored %d completed, max weighted flow %s; want %d and %s",
				st.JobsCompleted, st.MaxWeightedFlow, wantStats.JobsCompleted, wantStats.MaxWeightedFlow)
		}
	}
	srv2, _ := reopenServer(t, cfg)
	restoresExactly(srv2, 0)
	srv2.Close()

	// Tear the newest snapshot: the older one and the log kept behind it
	// restore the same fleet.
	_, payload, _ := wal.LoadSnapshot(torn)
	faults.Arm(faults.TornSnapshot, 0)
	if err := wal.WriteSnapshot(torn, newest, payload); err != nil {
		t.Fatal(err)
	}
	faults.Reset()
	if seq, _, ok := wal.LoadSnapshot(torn); !ok || seq != older {
		t.Fatalf("with the newest snapshot torn, LoadSnapshot = %d %v; want the older one at %d", seq, ok, older)
	}
	tornCfg := cfg
	tornCfg.WALDir = torn
	srv3, _ := reopenServer(t, tornCfg)
	defer srv3.Close()
	restoresExactly(srv3, int(newest-older))
}

// TestWALRefusesLogWithHole: a log that does not continue the snapshot it is
// restored from is refused with both seqs named, never replayed with a gap —
// a segment missing from the middle of the log, or, with the newest snapshot
// torn, the segment the older snapshot's suffix starts in.
func TestWALRefusesLogWithHole(t *testing.T) {
	t.Cleanup(faults.Reset)
	const every = 3
	cfg := Config{Machines: testFleet(), WALDir: t.TempDir(), SnapshotEvery: every}
	vc := NewVirtualClock()
	runCfg := cfg
	runCfg.Clock = vc
	srv, err := New(runCfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	for k := 1; k <= 2; k++ {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}}); err != nil {
			t.Fatal(err)
		}
		drive(t, vc, func() bool { return srv.Stats().JobsCompleted == k })
		waitStats(t, srv, func(st model.StatsResponse) bool { return st.WAL.Snapshots == 1+k })
	}
	srv.Close()
	// Snapshots at 3 and 6; the log from 4 on, the last segment empty.
	snaps, segs := walFiles(t, cfg.WALDir)
	if !reflect.DeepEqual(snaps, []uint64{3, 6}) || !reflect.DeepEqual(segs, []uint64{4, 7}) {
		t.Fatalf("snapshots %v, segments %v; want [3 6] and [4 7]", snaps, segs)
	}
	restart := func(t *testing.T, prepare func(dir string)) error {
		t.Helper()
		dir := t.TempDir()
		copyDir(t, cfg.WALDir, dir)
		prepare(dir)
		c := cfg
		c.WALDir, c.Clock = dir, NewVirtualClock()
		srv, err := New(c)
		if err == nil {
			srv.Close()
		}
		return err
	}
	remove := func(t *testing.T, dir string, first uint64) {
		t.Helper()
		if err := os.Remove(filepath.Join(dir, fmt.Sprintf("wal-%016x.log", first))); err != nil {
			t.Fatal(err)
		}
	}
	tearNewest := func(t *testing.T, dir string) {
		t.Helper()
		seq, payload, _ := wal.LoadSnapshot(dir)
		faults.Arm(faults.TornSnapshot, 0)
		defer faults.Reset()
		if err := wal.WriteSnapshot(dir, seq, payload); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("older snapshot's suffix", func(t *testing.T) {
		// The newest snapshot covers segment 4 whole ...
		if err := restart(t, func(dir string) { remove(t, dir, 4) }); err != nil {
			t.Fatalf("restore without a segment the newest snapshot covers: %v", err)
		}
		// ... the older one needs it.
		err := restart(t, func(dir string) { tearNewest(t, dir); remove(t, dir, 4) })
		if err == nil || !strings.Contains(err.Error(), "the log resumes at seq 7, the snapshot watermark is 3") {
			t.Fatalf("restore from snapshot 3 without records 4-6: err = %v, want the hole named", err)
		}
	})
	t.Run("middle segment", func(t *testing.T) {
		err := restart(t, func(dir string) {
			// A snapshot that seals the log and then fails verification
			// truncates nothing: segments 4, 7 and 8.
			c := cfg
			c.WALDir = dir
			srv, _ := reopenServer(t, c)
			if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"pdb"}}); err != nil {
				t.Fatal(err)
			}
			faults.Arm(faults.TornSnapshot, 0)
			err := srv.Snapshot()
			faults.Reset()
			srv.Close()
			if err == nil {
				t.Fatal("torn snapshot passed verification")
			}
			if _, segs := walFiles(t, dir); !reflect.DeepEqual(segs, []uint64{4, 7, 8}) {
				t.Fatalf("segments %v, want [4 7 8]", segs)
			}
			remove(t, dir, 7)
		})
		if err == nil || !strings.Contains(err.Error(), "starts at seq 8, the segment before it ends at seq 6") {
			t.Fatalf("restore without segment 7: err = %v, want the hole named", err)
		}
	})
}

// TestSnapshotCadenceFiresOncePerInterval: appends made while a cadence
// snapshot is held open re-arm the trigger before that snapshot resets the
// count. The snapshot covers them, so they must not fire a second one at once.
func TestSnapshotCadenceFiresOncePerInterval(t *testing.T) {
	const every = 4
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock(), WALDir: t.TempDir(), SnapshotEvery: every})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	submit := func(n int) {
		t.Helper()
		for range n {
			if _, err := srv.Submit(&model.SubmitRequest{Size: "1", Databanks: []string{"swissprot"}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(10 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("%s: not reached in 10s", what)
			}
			time.Sleep(100 * time.Microsecond)
		}
	}
	before := srv.dur.stats().Snapshots
	// Hold the snapshot the first crossing triggers: it waits on reshardMu.
	srv.reshardMu.Lock()
	submit(every)
	waitFor("the trigger taken", func() bool { return len(srv.dur.snapReq) == 0 })
	submit(every) // a second crossing, re-arming the trigger
	srv.reshardMu.Unlock()
	waitFor("the held snapshot written", func() bool {
		return srv.dur.stats().Snapshots > before && len(srv.dur.snapReq) == 0
	})
	// The re-armed trigger has been taken; give a second snapshot its chance.
	time.Sleep(50 * time.Millisecond)
	srv.reshardMu.Lock()
	got := srv.dur.stats().Snapshots
	srv.reshardMu.Unlock()
	if got != before+1 {
		t.Errorf("%d cadence snapshots after %d appends held behind one, want 1", got-before, 2*every)
	}
}

// TestRestoreKeepsSolverTally: the solver-path tally is part of the plan
// cache's state, so a restored twin reports the original's — fleet-wide and
// per shard — instead of starting it over at zero (and running the exported
// solver-path counters backwards).
func TestRestoreKeepsSolverTally(t *testing.T) {
	cfg := Config{Machines: testFleet(), Policy: "online-mwf-lazy", WALDir: t.TempDir()}
	srv, vc := reopenServer(t, cfg)
	srv.Start()
	for k, size := range []string{"4", "2", "3", "1", "5"} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: size, Databanks: []string{"swissprot"}}); err != nil {
			t.Fatal(err)
		}
		waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals == k+1 })
		vc.Advance(rat(int64(k+1), 1))
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 5 })
	want := srv.Stats()
	srv.Close()
	if want.LPSolves < 2 || want.Solver.Total() == 0 {
		t.Fatalf("too few solves tallied before the restart: %+v", want)
	}

	twin, _ := reopenServer(t, cfg)
	defer twin.Close()
	got := twin.Stats()
	if got.LPSolves != want.LPSolves || !reflect.DeepEqual(got.Solver, want.Solver) {
		t.Errorf("restored twin: %d solves tallied %+v; the original: %d tallied %+v", got.LPSolves, got.Solver, want.LPSolves, want.Solver)
	}
	for i := range want.Shards {
		if !reflect.DeepEqual(got.Shards[i].Solver, want.Shards[i].Solver) {
			t.Errorf("restored shard %d tallies %+v, the original %+v", i, got.Shards[i].Solver, want.Shards[i].Solver)
		}
	}
}
