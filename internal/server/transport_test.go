package server

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
	"divflow/internal/wal"
	"divflow/internal/workload"
)

// The transport axis: every scenario in this file runs once per transport
// through one table-driven harness. The in-process transport must stay
// bit-for-bit the pre-shardlink behavior; the loopback rpc transport runs
// the same local shards but routes every router↔shard operation through a
// full net/rpc+gob round-trip (and migrations through the two-phase
// reserve→commit exchange), and must reproduce the same exact traces,
// times, and fractions — the equivalence suite's transport dimension.
var transportAxis = []string{shardlink.TransportInproc, shardlink.TransportRPC}

// TestTransportSingleShardEquivalence is the P=1 pin on the transport axis:
// a one-shard server must execute event-for-event the same trace as the
// closed-world simulator on the identical instance, no matter which
// transport carries the router's traffic.
func TestTransportSingleShardEquivalence(t *testing.T) {
	for _, policy := range []string{"online-mwf-lazy", "srpt"} {
		for _, tr := range transportAxis {
			t.Run(fmt.Sprintf("%s/%s", policy, tr), func(t *testing.T) {
				testTransportSingleShard(t, policy, tr)
			})
		}
	}
}

func testTransportSingleShard(t *testing.T, policy, transport string) {
	cfg := workload.Default()
	cfg.Jobs = 12
	cfg.Machines = 3
	cfg.Seed = 7
	inst := workload.MustGenerate(cfg)

	refPol, err := NewPolicy(policy)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := sim.Run(inst, refPol)
	if err != nil {
		t.Fatal(err)
	}

	vc := NewVirtualClock()
	srv, err := New(Config{Machines: inst.Machines, Policy: policy, Clock: vc,
		Shards: 1, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	submitted := 0
	for j := 0; j < inst.N(); {
		r := inst.Jobs[j].Release
		vc.Advance(r)
		for j < inst.N() && inst.Jobs[j].Release.Cmp(r) == 0 {
			resp, err := srv.Submit(&model.SubmitRequest{
				Name:      inst.Jobs[j].Name,
				Weight:    inst.Jobs[j].Weight.RatString(),
				Size:      inst.Jobs[j].Size.RatString(),
				Databanks: inst.Jobs[j].Databanks,
			})
			if err != nil {
				t.Fatal(err)
			}
			if resp.ID != j {
				t.Fatalf("job %d got global ID %d under transport %s", j, resp.ID, transport)
			}
			j++
			submitted++
		}
		waitStats(t, srv, func(st model.StatsResponse) bool {
			return st.BatchedArrivals >= submitted
		})
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N() })

	// The rpc transport keeps shards colocated with real engines, so the
	// white-box trace read works identically on both rows of the table.
	sh := srv.active()[0]
	sh.mu.Lock()
	got := append([]schedule.Piece(nil), sh.eng.Schedule().Pieces...)
	sh.mu.Unlock()
	comparePieces(t, got, ref.Schedule.Pieces)
	if st := srv.Stats(); st.MaxWeightedFlow != ref.MaxWeightedFlow.RatString() {
		t.Errorf("transport %s: maxWeightedFlow = %s, simulator %s",
			transport, st.MaxWeightedFlow, ref.MaxWeightedFlow.RatString())
	}
}

// TestSubmitRefusesMalformedJob sends the shard's Submit handler jobs the HTTP
// edge would never let through, over the loopback net/rpc transport, where
// every message crosses a gob round trip. Each must come back as a refusal
// carrying the check's text, and the shard must stay healthy: a nil size used
// to panic under the shard's mu (net/rpc does not recover, so the process
// died), and a zero weight was accepted and then latched the engine at its
// admission. A sound job still runs to completion afterwards.
func TestSubmitRefusesMalformedJob(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Shards: 1, Transport: shardlink.TransportRPC})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	sh := srv.active()[0]
	banks := []string{"swissprot"}
	for _, tc := range []struct {
		name string
		job  model.Job
		want string
	}{
		{"no size", model.Job{Weight: rat(1, 1), Databanks: banks}, "needs size > 0"},
		{"zero size", model.Job{Size: rat(0, 1), Weight: rat(1, 1), Databanks: banks}, "needs size > 0"},
		{"no weight", model.Job{Size: rat(2, 1), Databanks: banks}, "needs weight > 0"},
		{"zero weight", model.Job{Size: rat(2, 1), Weight: rat(0, 1), Databanks: banks}, "needs weight > 0"},
		{"negative deadline", model.Job{Size: rat(2, 1), Weight: rat(1, 1), Deadline: rat(-1, 1), Databanks: banks}, "needs deadline > 0"},
	} {
		rep, err := sh.link.Submit(shardlink.SubmitArgs{Job: tc.job})
		if err != nil {
			t.Fatalf("%s: transport error %v", tc.name, err)
		}
		if rep.Outcome != shardlink.OutcomeNoHost || !strings.Contains(rep.Err, tc.want) {
			t.Errorf("%s: reply %+v, want a refusal containing %q", tc.name, rep, tc.want)
		}
	}
	job, err := (&model.SubmitRequest{Size: "2", Databanks: banks}).Job()
	if err != nil {
		t.Fatal(err)
	}
	if rep, err := sh.link.Submit(shardlink.SubmitArgs{Job: job}); err != nil || rep.Outcome != shardlink.OutcomeOK {
		t.Fatalf("sound submit = %+v, %v; want accepted", rep, err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	if st := srv.Stats(); st.Stalled || st.LastError != "" || st.JobsAccepted != 1 {
		t.Errorf("after the refusals: stalled %v, error %q, %d accepted; want a healthy shard with the one sound job",
			st.Stalled, st.LastError, st.JobsAccepted)
	}
}

// TestAdmitMigratedRefusesMalformedJob is the same for the adoption half of a
// migration, AdmitMigrated over the loopback net/rpc transport: each malformed
// job must be refused (Accepted=false, so the router aborts and the donor
// takes the job back) before the shard logs or adopts anything. A zero size
// used to be logged, adopted and then latched the engine at admission, and a
// refused steal has nothing to latch. A sound partial job is adopted and runs.
func TestAdmitMigratedRefusesMalformedJob(t *testing.T) {
	vc := NewVirtualClock()
	dir := t.TempDir()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Shards: 1, Transport: shardlink.TransportRPC, WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	sh := srv.active()[0]
	banks := []string{"swissprot"}
	sound := shardlink.Job{Size: exact.Int(2), Weight: exact.Int(1), Databanks: banks}
	for _, tc := range []struct {
		name string
		edit func(mj *shardlink.MigratedJob)
	}{
		{"no size", func(mj *shardlink.MigratedJob) { mj.Size = exact.Q{} }},
		{"negative size", func(mj *shardlink.MigratedJob) { mj.Size = exact.Int(-2) }},
		{"no weight", func(mj *shardlink.MigratedJob) { mj.Weight = exact.Q{} }},
		{"negative deadline", func(mj *shardlink.MigratedJob) { mj.Deadline = exact.Int(-1) }},
		{"negative release", func(mj *shardlink.MigratedJob) { mj.Release = exact.Int(-1) }},
		{"remaining above one", func(mj *shardlink.MigratedJob) { mj.Remaining = exact.New(3, 2) }},
		{"negative remaining", func(mj *shardlink.MigratedJob) { mj.Remaining = exact.New(-1, 2) }},
	} {
		bad := shardlink.MigratedJob{GID: 7, Job: sound}
		tc.edit(&bad)
		// The malformed job rides second: the sound one before it must not be
		// adopted either.
		args := shardlink.AdmitArgs{Reason: migrateSteal, Jobs: []shardlink.MigratedJob{{GID: 6, Job: sound}, bad}}
		rep, err := sh.link.AdmitMigrated(args)
		if err != nil {
			t.Fatalf("%s: transport error %v", tc.name, err)
		}
		if rep.Accepted || len(rep.Locals) != 0 {
			t.Errorf("%s: reply %+v, want a refusal", tc.name, rep)
		}
	}
	rep, err := sh.link.AdmitMigrated(shardlink.AdmitArgs{Reason: migrateSteal,
		Jobs: []shardlink.MigratedJob{{GID: 8, Remaining: exact.New(1, 2), Job: sound}}})
	if err != nil || !rep.Accepted || len(rep.Locals) != 1 {
		t.Fatalf("sound adoption = %+v, %v; want accepted", rep, err)
	}
	if err := sh.link.Poke(shardlink.PokeArgs{}); err != nil { // as the router does after a steal
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	if st := srv.Stats(); st.Stalled || st.LastError != "" {
		t.Errorf("after the refusals: stalled %v, error %q; want a healthy shard", st.Stalled, st.LastError)
	}
	srv.Close()
	_, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	adopts := 0
	for _, rec := range recs {
		if rec.Type == walTypeAdopt {
			adopts++
		}
	}
	if adopts != 1 {
		t.Errorf("the log holds %d adopt records, want the sound one alone", adopts)
	}
}

// TestTransportStealScenario replays the exact half-executed-job migration
// scenario of TestStealMigratesHalfExecutedJob on both transports: under
// rpc the steal runs as the two-phase reserve→commit message exchange, and
// every time, fraction, and ID must still come out identical — D@2, B@3,
// A stolen with exactly 1/2 remaining and done @6, C@12.
func TestTransportStealScenario(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) { testTransportSteal(t, tr) })
	}
}

func testTransportSteal(t *testing.T, transport string) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt",
		Clock: vc, Transport: transport})
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
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })

	vc.Advance(big.NewRat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	var before model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idA), &before)
	if before.State != StateScheduled || before.Remaining != "2/3" {
		t.Fatalf("A before migration = %s remaining %s, want scheduled with 2/3",
			before.State, before.Remaining)
	}

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
		t.Errorf("transport %s: A remaining after migration = %s, want 1/2", transport, after.Remaining)
	}
	srv.topoMu.RLock()
	loc, forwarded := srv.forward[idA]
	srv.topoMu.RUnlock()
	if !forwarded || loc.sh != srv.active()[1] {
		t.Fatalf("forwarding table does not point job %d at shard 1", idA)
	}
	// The stolen record's slot encodes a never-issued global ID; it must 404.
	if _, known := srv.jobStatus(3); known {
		t.Error("phantom global ID 3 resolves to the stolen record's status")
	}

	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })

	wantDone := map[int]string{idD: "2", idB: "3", idA: "6", idC: "12"}
	for id, want := range wantDone {
		var st model.JobStatus
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), &st)
		if st.State != StateDone || st.CompletedAt != want {
			t.Errorf("transport %s: job %d = %s @ %s, want done @ %s",
				transport, id, st.State, st.CompletedAt, want)
		}
	}
	// The merged trace must still hold exactly one whole job A: its
	// pre-migration pieces on shard-0 machines plus its post-migration run
	// on a shard-1 machine, fractions summing to 1.
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	var sched schedule.Schedule
	if err := json.Unmarshal(schedResp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	fracA := new(big.Rat)
	for _, p := range sched.Pieces {
		if p.Job == idA {
			fracA.Add(fracA, p.Fraction)
		}
	}
	if fracA.Cmp(big.NewRat(1, 1)) != 0 {
		t.Errorf("transport %s: job A's merged fractions sum to %s, want 1", transport, fracA.RatString())
	}
	validateServer(t, srv)
}

// TestTransportLocateChase chases one global ID across a steal and then a
// structural reshard on both transports (the rpc row is the regression test
// for reads racing an RPC-backed migration chain: forwarding entries land
// before the donor-side commit, so the chase can never observe a window
// where nobody knows the job).
func TestTransportLocateChase(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) { testTransportLocateChase(t, tr) })
	}
}

func testTransportLocateChase(t *testing.T, transport string) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "srpt",
		Clock: vc, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	sh0 := srv.active()[0]

	idBig := submitTo(t, sh0, "8", "shared")
	idSmall := submitTo(t, sh0, "2", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.StolenJobs >= 1 })

	vc.Advance(rat(1, 1))
	resp, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.RetiredShards) != 2 || len(resp.SpawnedShards) != 4 {
		t.Fatalf("reshard = %+v, want 2 retired / 4 spawned", resp)
	}
	for _, id := range []int{idBig, idSmall} {
		if _, known := srv.jobStatus(id); !known {
			t.Errorf("transport %s: ID %d lost across steal+reshard", transport, id)
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	for _, id := range []int{idBig, idSmall} {
		st, known := srv.jobStatus(id)
		if !known || st.State != StateDone {
			t.Errorf("transport %s: job %d = %+v known=%v, want done", transport, id, st, known)
		}
	}
	validateServer(t, srv)
}

// TestTransportReshardStorm is the concurrent-traffic stress on the
// transport axis (run under -race in CI): submissions and reads from many
// goroutines while the topology restructures repeatedly, on each transport.
func TestTransportReshardStorm(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) { testTransportReshardStorm(t, tr) })
	}
}

func testTransportReshardStorm(t *testing.T, transport string) {
	const clients, perClient = 8, 6
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 1, Policy: "mct",
		Clock: vc, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	stop := make(chan struct{})
	var driver sync.WaitGroup
	driver.Add(1)
	go func() {
		defer driver.Done()
		for {
			select {
			case <-stop:
				return
			default:
				vc.AdvanceToNextTimer()
			}
		}
	}()

	ids := make([][]int, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				resp, err := srv.Submit(&model.SubmitRequest{
					Size:      fmt.Sprintf("%d", 1+(c+k)%5),
					Databanks: []string{"shared"},
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				ids[c] = append(ids[c], resp.ID)
				if _, known := srv.jobStatus(resp.ID); !known {
					t.Errorf("client %d: fresh ID %d does not resolve", c, resp.ID)
				}
			}
		}(c)
	}
	machines := uniformFleet(4)
	for _, shards := range []int{4, 2, 3} {
		if _, err := srv.Reshard(&model.Platform{Machines: machines, Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()

	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.JobsCompleted == clients*perClient
	})
	close(stop)
	driver.Wait()

	seen := make(map[int]bool)
	for c := range ids {
		for _, id := range ids[c] {
			if seen[id] {
				t.Errorf("global ID %d issued twice across generations", id)
			}
			seen[id] = true
			st, known := srv.jobStatus(id)
			if !known || st.State != StateDone {
				t.Errorf("transport %s: job %d = %+v known=%v, want done", transport, id, st, known)
			}
		}
	}
	validateServer(t, srv)
}
