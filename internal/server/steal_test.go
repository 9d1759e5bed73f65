package server

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net/http/httptest"
	"sync"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
)

// hotSharedFleet is four speed-1 machines where machines 0 and 2 also host
// "hot". Under -shards 2 (round-robin) shard 0 = {0, 2} hosts hot+shared and
// shard 1 = {1, 3} hosts shared only — a legal partition ("hot" has full
// coverage of the single shard it touches) where shard 1 can steal shared
// jobs but never hot ones.
func hotSharedFleet() []model.Machine {
	return []model.Machine{
		{Name: "h0", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "hot"}},
		{Name: "h1", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
		{Name: "h2", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "hot"}},
		{Name: "h3", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
	}
}

// submitTo routes one job directly onto a specific shard, bypassing the
// router — the white-box way to build the imbalance the router would
// normally smooth out.
func submitTo(t *testing.T, sh *shard, size string, databanks ...string) int {
	t.Helper()
	job, err := (&model.SubmitRequest{Size: size, Databanks: databanks}).Job()
	if err != nil {
		t.Fatal(err)
	}
	gid, _, err := sh.submit(job)
	if err != nil {
		t.Fatal(err)
	}
	return gid
}

// TestStealMigratesHalfExecutedJob is the end-to-end migration scenario on
// a virtual clock, with the deterministic srpt policy so every time and
// fraction is pinned exactly:
//
//	shard 0 (machines 0, 2): D size 2, A size 6, C size 10 ("hot").
//	  srpt runs D and A from t=0; D completes at 2 with A exactly 1/3 done,
//	  and A keeps running (reassigned to the freed machine) until stolen.
//	shard 1 (machines 1, 3): B size 3, done at t=3 — the shard goes idle
//	  and steals from shard 0. C is bigger but needs "hot"; the thief takes
//	  A, a half-executed divisible job. The steal first catches the donor
//	  up to t=3, so A's [2,3] run is preserved and exactly remaining 1/2
//	  migrates — no executed work is retroactively discarded.
//
// A keeps its global ID, its release 0, and its executed prefix: the merged
// trace holds A's pre-migration pieces on shard-0 machines and its
// post-migration piece on a shard-1 machine, summing to exactly 1, and both
// /v1/jobs/{id} and /v1/schedule report it seamlessly before and after.
func TestStealMigratesHalfExecutedJob(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idD := submitTo(t, srv.active()[0], "2", "shared")
	idA := submitTo(t, srv.active()[0], "6", "shared")
	idC := submitTo(t, srv.active()[0], "10", "hot")
	idB := submitTo(t, srv.active()[1], "3", "shared")
	_ = idD
	srv.Start()
	// Admission barrier: the loops must batch all four arrivals at t=0
	// before the clock moves, or the releases would shift.
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })

	// t=2: D completes; the shard-0 engine advances, recording A's first
	// third on machine 2 (local m1). A is now genuinely half-executed state.
	vc.Advance(big.NewRat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	var before model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA), &before)
	if before.State != StateScheduled || before.Remaining != "2/3" {
		t.Fatalf("A before migration = %s remaining %s, want scheduled with 2/3", before.State, before.Remaining)
	}

	// t=3: B completes, shard 1 goes idle and steals A (C needs "hot").
	// Wait until the thief has *admitted* the stolen job (live on shard 1),
	// not just until the migration counter moved: driving the clock in
	// between would delay A's restart past t=3 and shift every exact time.
	vc.Advance(big.NewRat(3, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})

	var after model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA), &after)
	if after.ID != idA || after.Release != "0" || after.Size != "6" {
		t.Fatalf("A after migration = %+v, want same global ID %d, release 0, size 6", after, idA)
	}
	if after.Remaining != "1/2" {
		t.Errorf("A remaining after migration = %s, want 1/2 (the donor was caught up to t=3 before extraction)", after.Remaining)
	}
	srv.topoMu.RLock()
	loc, forwarded := srv.forward[idA]
	srv.topoMu.RUnlock()
	if !forwarded || loc.sh != srv.active()[1] {
		t.Fatalf("forwarding table does not point job %d at shard 1", idA)
	}

	// The stolen record occupies shard 1's local slot 1, whose arithmetic
	// encoding is the never-issued global ID 3: reading it must 404, not
	// leak A's status under a phantom ID.
	if _, known := srv.jobStatus(3); known {
		t.Error("phantom global ID 3 resolves to the stolen record's status")
	}

	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })

	// Exact completions: D@2, B@3, A@3+3=6 (remaining 1/2 of size 6 on a
	// speed-1 machine), C@12 (started at 2 after D freed its machine).
	wantDone := map[int]string{idD: "2", idB: "3", idA: "6", idC: "12"}
	for id, want := range wantDone {
		var st model.JobStatus
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), &st)
		if st.State != StateDone || st.CompletedAt != want {
			t.Errorf("job %d = %s @ %s, want done @ %s", id, st.State, st.CompletedAt, want)
		}
		if st.Flow != want { // every release is 0
			t.Errorf("job %d flow = %s, want %s", id, st.Flow, want)
		}
	}
	var stA model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA), &stA)
	if stA.Stretch != "1" {
		t.Errorf("A stretch = %s, want 1 (flow 6 over size 6)", stA.Stretch)
	}

	// The merged schedule shows the same global ID on both sides of the
	// migration: the executed prefix on shard 0, the rest on shard 1.
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	var sched schedule.Schedule
	if err := json.Unmarshal(schedResp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	frac := new(big.Rat)
	preDonor, postThief := false, false
	for _, pc := range sched.Pieces {
		if pc.Job != idA {
			continue
		}
		frac.Add(frac, pc.Fraction)
		switch pc.Machine {
		case 0, 2: // shard 0: only before the steal
			preDonor = true
			if pc.End.Cmp(big.NewRat(3, 1)) > 0 {
				t.Errorf("donor piece of A ends at %s, after the steal at 3", pc.End.RatString())
			}
		case 1, 3: // shard 1: only after the steal
			postThief = true
			if pc.Start.Cmp(big.NewRat(3, 1)) < 0 {
				t.Errorf("thief piece of A starts at %s, before the steal at 3", pc.Start.RatString())
			}
		}
	}
	if !preDonor || !postThief {
		t.Errorf("A's pieces span donor=%v thief=%v, want both sides of the migration", preDonor, postThief)
	}
	if frac.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("A's merged executed fraction = %s, want exactly 1 (no work lost or duplicated)", frac.RatString())
	}
	validateServer(t, srv)

	st := srv.Stats()
	if st.Migrations != 1 || st.StolenJobs != 1 {
		t.Errorf("migrations/stolen = %d/%d, want 1/1", st.Migrations, st.StolenJobs)
	}
	if st.Shards[0].Migrations != 1 || st.Shards[0].StolenJobs != 0 {
		t.Errorf("shard 0 migrations/stolen = %d/%d, want 1/0", st.Shards[0].Migrations, st.Shards[0].StolenJobs)
	}
	if st.Shards[1].StolenJobs != 1 || st.Shards[1].Migrations != 0 {
		t.Errorf("shard 1 stolen/migrations = %d/%d, want 1/0", st.Shards[1].StolenJobs, st.Shards[1].Migrations)
	}
	if st.Shards[0].JobsAccepted != 3 || st.Shards[1].JobsAccepted != 1 {
		t.Errorf("per-shard accepted = %d/%d, want 3/1 (births only, no double count)",
			st.Shards[0].JobsAccepted, st.Shards[1].JobsAccepted)
	}
	if st.BatchedArrivals != 4 {
		t.Errorf("batchedArrivals = %d, want 4 (the steal re-admission must not count as an arrival)",
			st.BatchedArrivals)
	}
}

// TestSubmitPokesNonHostingIdleShard covers the poke path for shards that
// cannot host the submitted job itself: the submission can still push the
// donor past the keeps-one threshold and make its *other* jobs stealable,
// so every idle shard must be woken, not just those eligible for this job.
func TestSubmitPokesNonHostingIdleShard(t *testing.T) {
	vc := NewVirtualClock()
	machines := []model.Machine{
		{Name: "h0", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "only0"}},
		{Name: "h1", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
	}
	srv, err := New(Config{Machines: machines, Shards: 2, Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	// J1 ("shared") routes to shard 0 on the tie-break; shard 1 idles with
	// nothing to steal (donor keeps its only job).
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"shared"}}); err != nil {
		t.Fatal(err)
	}
	// J2 is restricted to shard 0's private databank — shard 1 cannot host
	// it, but its submission makes J1 stealable. The poke must wake the
	// sleeping shard 1 anyway.
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"only0"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.StolenJobs == 1 })
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	st := srv.Stats()
	if st.Shards[1].JobsCompleted != 1 {
		t.Errorf("shard 1 completed %d jobs, want 1 (the stolen shared job)", st.Shards[1].JobsCompleted)
	}
	validateServer(t, srv)
}

// TestStealDisabledPinsJobs replays the same scenario with -steal off: the
// idle shard never helps, every job completes on its original shard, and no
// migration counters move — the PR 3 behavior, pinned.
func TestStealDisabledPinsJobs(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", Clock: vc, DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	submitTo(t, srv.active()[0], "2", "shared")
	idA := submitTo(t, srv.active()[0], "6", "shared")
	submitTo(t, srv.active()[0], "10", "hot")
	submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })

	st := srv.Stats()
	if st.Migrations != 0 || st.StolenJobs != 0 {
		t.Fatalf("migrations/stolen with steal disabled = %d/%d, want 0/0", st.Migrations, st.StolenJobs)
	}
	// A stays on shard 0: srpt finishes it there at t=6 instead of 7-via-
	// migration, and its pieces touch only shard-0 machines.
	stA, known := srv.jobStatus(idA)
	if !known || stA.CompletedAt != "6" {
		t.Errorf("A without stealing completes at %s, want 6 (on its own shard)", stA.CompletedAt)
	}
	sh := srv.active()[0]
	sh.mu.Lock()
	for _, pc := range sh.eng.Schedule().Pieces {
		if sh.records.get(pc.Job).GID == idA && sh.machineIdx[pc.Machine] != 0 && sh.machineIdx[pc.Machine] != 2 {
			t.Errorf("A executed on machine %d outside shard 0", sh.machineIdx[pc.Machine])
		}
	}
	sh.mu.Unlock()
	for _, sh := range srv.allShards() {
		validateShard(t, sh)
	}
}

// TestStealRescuesFullyIdleShard covers the submission-time poke: jobs land
// on a loaded shard while another is already idle and asleep; the idle
// shard must be woken, steal, and the whole burst completes with work on
// both shards.
func TestStealRescuesFullyIdleShard(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	// The hot shard gets the whole burst directly; shard 1 sleeps with no
	// timer. A router-level submission then lands on shard 1 (least
	// backlog), and when it finishes at t=4 the shard goes idle and steals.
	for j := 0; j < 6; j++ {
		submitTo(t, srv.active()[0], "4", "shared")
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"shared"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 7 })
	// Step to the steal point and wait for it before driving on — a
	// free-running drive could let the hot shard drain the burst alone
	// before the thief's loop gets scheduled.
	vc.Advance(big.NewRat(4, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.StolenJobs >= 1 })
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 7 })

	st := srv.Stats()
	if st.StolenJobs == 0 {
		t.Fatal("idle shard never stole from the hot one")
	}
	if st.Shards[1].JobsCompleted == 0 {
		t.Error("shard 1 completed nothing despite stealing")
	}
	if st.JobsAccepted != 7 {
		t.Errorf("accepted = %d, want 7 (migration must not double count)", st.JobsAccepted)
	}
	validateServer(t, srv)
}

// TestRetentionCompactsMigratedRecords pins the memory bound under steady
// stealing: the donor-side record of a migrated job (which its engine never
// completes, so Engine.Compact alone would keep it forever) is dropped once
// the retention horizon passes the migration, and when the thief compacts
// the completed stolen record the forwarding-table entry is released too.
func TestRetentionCompactsMigratedRecords(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{
		Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", Clock: vc,
		Retention: big.NewRat(4, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	submitTo(t, srv.active()[0], "2", "shared")
	idA := submitTo(t, srv.active()[0], "6", "shared")
	submitTo(t, srv.active()[0], "10", "hot")
	submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
	// Step the clock to the steal point (t=3, B's completion) and wait for
	// the migration before driving on — a free-running drive could let the
	// donor finish A itself first.
	vc.Advance(big.NewRat(3, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })

	// A late submission wakes the loops far past every completion; both
	// shards compact everything behind the horizon.
	vc.Advance(big.NewRat(100, 1))
	if _, err := srv.Submit(&model.SubmitRequest{Size: "1", Databanks: []string{"shared"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.CompactedJobs >= 5 })

	srv.topoMu.RLock()
	entries := len(srv.forward)
	srv.topoMu.RUnlock()
	if entries != 0 {
		t.Errorf("forwarding table holds %d entries after compaction, want 0", entries)
	}
	sh := srv.active()[0]
	sh.mu.Lock()
	migrated := sh.records.get(idA / 2)
	pendingMigrated := len(sh.migratedIDs)
	sh.mu.Unlock()
	if migrated != nil {
		t.Error("donor record of the migrated job survived retention compaction")
	}
	if pendingMigrated != 0 {
		t.Errorf("donor still tracks %d migrated records awaiting compaction", pendingMigrated)
	}
	// The compacted migrated job now reads like any compacted job: gone.
	if _, known := srv.jobStatus(idA); known {
		t.Error("compacted migrated job still answers status")
	}
}

// TestStatsRaceUnderCompletions hammers the stats endpoint from many
// goroutines while jobs complete — under -race this pins the snapshot
// deep-copies: statsSnapshot used to alias the live maxWF/maxStretch
// rationals out of the shard lock.
func TestStatsRaceUnderCompletions(t *testing.T) {
	const jobs = 40
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "mct", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	for j := 0; j < jobs; j++ {
		if _, err := srv.Submit(&model.SubmitRequest{Size: fmt.Sprintf("%d", 1+j%5), Databanks: []string{"shared"}}); err != nil {
			t.Fatal(err)
		}
	}

	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 6; g++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
					st := srv.Stats()
					if st.JobsCompleted > 0 && st.MaxWeightedFlow == "" {
						t.Error("completions without maxWeightedFlow")
						return
					}
				}
			}
		}()
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == jobs })
	close(stop)
	readers.Wait()
	validateServer(t, srv)
}
