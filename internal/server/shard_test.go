package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
)

// twoIslandFleet is four machines in two databank-connectivity components:
// {a0, a1} host "x", {b0, b1} host "y", and nothing bridges them.
func twoIslandFleet() []model.Machine {
	return []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"x"}},
		{Name: "a1", InverseSpeed: rat(1, 2), Databanks: []string{"x"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"y"}},
		{Name: "b1", InverseSpeed: rat(1, 2), Databanks: []string{"y"}},
	}
}

// uniformFleet is n identical machines all hosting one shared databank, the
// shape where the connectivity partition degenerates and -shards applies.
func uniformFleet(n int) []model.Machine {
	machines := make([]model.Machine, n)
	for i := range machines {
		machines[i] = model.Machine{
			Name:         fmt.Sprintf("u%d", i),
			InverseSpeed: rat(1, 1),
			Databanks:    []string{"shared"},
		}
	}
	return machines
}

// waitStats polls the merged stats until pred holds, without advancing the
// clock — for conditions the loops reach in real time (admissions, errors).
func waitStats(t *testing.T, srv *Server, pred func(model.StatsResponse) bool) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for !pred(srv.Stats()) {
		if time.Now().After(deadline) {
			t.Fatal("waitStats: condition not reached in 30s")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestPartitionFleet(t *testing.T) {
	islands := twoIslandFleet()
	groups, err := partitionFleet(islands, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 2 || len(groups[1]) != 2 {
		t.Fatalf("connectivity partition = %v, want [[0 1] [2 3]]", groups)
	}
	if groups[0][0] != 0 || groups[0][1] != 1 || groups[1][0] != 2 || groups[1][1] != 3 {
		t.Fatalf("connectivity partition = %v, want [[0 1] [2 3]]", groups)
	}
	// The shared databank of testFleet joins both machines into one shard.
	groups, err = partitionFleet(testFleet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 1 || len(groups[0]) != 2 {
		t.Fatalf("connected fleet partition = %v, want one group of 2", groups)
	}
	// Round-robin override.
	groups, err = partitionFleet(uniformFleet(5), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 2 {
		t.Fatalf("round-robin partition = %v, want sizes 3 and 2", groups)
	}
	// Machines with no databanks pool into one component, not one shard
	// each: a plain compute fleet keeps cross-machine divisibility.
	bare := []model.Machine{
		{Name: "c0", InverseSpeed: rat(1, 1)},
		{Name: "c1", InverseSpeed: rat(1, 1)},
		{Name: "c2", InverseSpeed: rat(1, 2), Databanks: []string{"x"}},
		{Name: "c3", InverseSpeed: rat(1, 2)},
	}
	groups, err = partitionFleet(bare, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 2 || len(groups[0]) != 3 || len(groups[1]) != 1 {
		t.Fatalf("bare-machine partition = %v, want [[0 1 3] [2]]", groups)
	}
	// More shards than machines is a configuration error.
	if _, err := partitionFleet(uniformFleet(2), 3); err == nil {
		t.Error("3 shards over 2 machines must error")
	}
	if _, err := New(Config{Machines: uniformFleet(2), Shards: 3}); err == nil {
		t.Error("New with more shards than machines must error")
	}
}

// TestPartitionRejectsSplitDatabank is the regression test for the silent
// round-robin databank split: -shards used to deal machines out even when a
// databank's hosts landed in several shards with partial coverage, so a
// restricted job routed to such a shard could use only a subset of its
// machines while full hosts idled elsewhere — and work stealing could not
// rescue it either. That shape is now a configuration error naming the
// databank.
func TestPartitionRejectsSplitDatabank(t *testing.T) {
	// "x" is hosted by machines 0 and 1; shards=2 would put them in
	// different shards, each sitting next to a machine that cannot serve x.
	split := []model.Machine{
		{Name: "s0", InverseSpeed: rat(1, 1), Databanks: []string{"x"}},
		{Name: "s1", InverseSpeed: rat(1, 1), Databanks: []string{"x"}},
		{Name: "s2", InverseSpeed: rat(1, 1)},
		{Name: "s3", InverseSpeed: rat(1, 1)},
	}
	if _, err := partitionFleet(split, 2); err == nil || !strings.Contains(err.Error(), `"x"`) {
		t.Errorf("split databank partition = %v, want error naming databank x", err)
	}
	if _, err := New(Config{Machines: split, Shards: 2}); err == nil {
		t.Error("New must reject the split-databank round-robin config")
	}
	// The clean uniform-fleet path stays legal: every machine of every shard
	// hosts the shared databank, so a restricted job keeps a full shard (and
	// every shard can steal it).
	if _, err := partitionFleet(uniformFleet(5), 2); err != nil {
		t.Errorf("uniform fleet round-robin must stay legal: %v", err)
	}
	// A databank whose hosts all land in one shard is fine too, even when
	// other machines of that shard do not host it.
	oneShard := []model.Machine{
		{Name: "h0", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "hot"}},
		{Name: "h1", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
		{Name: "h2", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "hot"}},
		{Name: "h3", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
	}
	if _, err := partitionFleet(oneShard, 2); err != nil {
		t.Errorf("hot databank confined to shard 0 must stay legal: %v", err)
	}
}

// TestSubmitSkipsStalledShard is the regression test for routing new jobs
// onto poisoned shards: a shard whose loop latched an error used to keep
// winning least-backlog routing, accepting jobs that would queue forever.
func TestSubmitSkipsStalledShard(t *testing.T) {
	vc := NewVirtualClock()
	// Machine h0 (shard 0) is the sole host of "only0"; everything hosts
	// "shared".
	machines := []model.Machine{
		{Name: "h0", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "only0"}},
		{Name: "h1", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
	}
	srv, err := New(Config{Machines: machines, Shards: 2, Clock: vc, DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	poisonResp, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"shared"}})
	if err != nil {
		t.Fatal(err)
	}
	if poisonResp.ID%2 != 0 {
		t.Fatalf("first job routed to shard %d, want 0 (tie-break)", poisonResp.ID%2)
	}
	// Fault injection: clear the job's hosts so shard 0's loop latches a
	// rejected admit.
	sh := srv.active()[0]
	sh.mu.Lock()
	sh.records[poisonResp.ID/2].hosts = nil
	sh.mu.Unlock()
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.LastError != "" })

	// Unrestricted job: shard 0 has the smaller backlog (2 vs whatever) but
	// is poisoned — the healthy shard 1 must take it, with no warning.
	resp, err := srv.Submit(&model.SubmitRequest{Size: "100", Databanks: []string{"shared"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID%2 != 1 {
		t.Errorf("unrestricted job routed to shard %d, want 1 (healthy beats stalled)", resp.ID%2)
	}
	if resp.Warning != "" {
		t.Errorf("healthy routing carries warning %q", resp.Warning)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })

	// A job only shard 0 can host still lands there — with the shard's error
	// surfaced in the response.
	soleResp, err := srv.Submit(&model.SubmitRequest{Size: "1", Databanks: []string{"only0"}})
	if err != nil {
		t.Fatal(err)
	}
	if soleResp.ID%2 != 0 {
		t.Errorf("only0 job routed to shard %d, want 0 (sole host)", soleResp.ID%2)
	}
	if soleResp.Warning == "" || !strings.Contains(soleResp.Warning, "stalled shard 0") {
		t.Errorf("sole-host routing to a stalled shard must carry its error, got %q", soleResp.Warning)
	}
}

// TestFailedAdmitKeepsTailPending is the regression test for a failed admit
// silently discarding the rest of its batch: the unadmitted tail used to be
// detached from pending, leaving jobs invisible to the steal census and to
// the close() drain — "queued" forever with their sizes stuck in backlog.
// The successfully admitted prefix must still land in the arrival-batch
// statistics, or BatchedArrivals would fall short of the submission count
// forever.
func TestFailedAdmitKeepsTailPending(t *testing.T) {
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	good, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	poisoned, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	tail, err := srv.Submit(&model.SubmitRequest{Size: "1", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.active()[0]
	sh.mu.Lock()
	sh.records[poisoned.ID].hosts = nil
	sh.mu.Unlock()
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.LastError != "" })

	sh.mu.Lock()
	pendingLen := len(sh.pending)
	sh.mu.Unlock()
	if pendingLen != 2 {
		t.Errorf("pending after failed admit = %d records, want 2 (failed record and unadmitted tail)", pendingLen)
	}
	st := srv.Stats()
	if st.BatchedArrivals != 1 {
		t.Errorf("batchedArrivals = %d, want 1 (the admitted prefix must be counted despite the failure)", st.BatchedArrivals)
	}
	if st.JobsLive != 1 {
		t.Errorf("jobsLive = %d, want 1 (only the job admitted before the failure)", st.JobsLive)
	}
	srv.Close()
	for _, id := range []int{poisoned.ID, tail.ID} {
		jst, known := srv.jobStatus(id)
		if !known || jst.State != StateRejected {
			t.Errorf("job %d after Close = %+v, want known and %q", id, jst, StateRejected)
		}
	}
	if gst, _ := srv.jobStatus(good.ID); gst.State != StateScheduled {
		t.Errorf("admitted job after Close = %q, want still %q (close drains only the queue)", gst.State, StateScheduled)
	}
	// Backlog keeps only the live job's size; the drained tail gave back
	// 2 + 1.
	if got := srv.Stats().Shards[0].Backlog; got != "4" {
		t.Errorf("backlog after Close = %s, want 4 (rejected sizes subtracted, live job kept)", got)
	}
}

// TestCloseDrainsPendingToRejected is the regression test for Close
// stranding accepted-but-never-admitted jobs: they used to stay "queued"
// forever with their sizes still in the backlog. Close now drains them into
// the terminal "rejected" state and corrects the backlog.
func TestCloseDrainsPendingToRejected(t *testing.T) {
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	// Never started: both submissions sit in pending when Close runs.
	first, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	second, err := srv.Submit(&model.SubmitRequest{Size: "3", Databanks: []string{"pdb"}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()

	for _, id := range []int{first.ID, second.ID} {
		st, known := srv.jobStatus(id)
		if !known {
			t.Fatalf("job %d vanished after Close", id)
		}
		if st.State != StateRejected {
			t.Errorf("job %d state after Close = %q, want %q", id, st.State, StateRejected)
		}
	}
	st := srv.Stats()
	if st.JobsLive != 0 {
		t.Errorf("jobsLive after Close = %d, want 0", st.JobsLive)
	}
	for _, ss := range st.Shards {
		if ss.Backlog != "0" {
			t.Errorf("shard %d backlog after Close = %s, want 0 (stranded sizes subtracted)", ss.Shard, ss.Backlog)
		}
	}
}

// TestShardPartitionAndRouting: a two-island fleet yields two shards; jobs
// route by databank, IDs are shard-encoded, reads merge both shards, and a
// job needing databanks from both islands is rejected (no single machine
// hosts them).
func TestShardPartitionAndRouting(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: twoIslandFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ShardCount() != 2 {
		t.Fatalf("ShardCount = %d, want 2", srv.ShardCount())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	idx := postJob(t, ts.URL, model.SubmitRequest{Size: "6", Databanks: []string{"x"}}).ID
	idy := postJob(t, ts.URL, model.SubmitRequest{Size: "3", Databanks: []string{"y"}}).ID
	if idx%2 != 0 {
		t.Errorf("x job got global ID %d, want even (shard 0)", idx)
	}
	if idy%2 != 1 {
		t.Errorf("y job got global ID %d, want odd (shard 1)", idy)
	}
	// No machine hosts both databanks: 422, not a mis-route.
	body := []byte(`{"size":"1","databanks":["x","y"]}`)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Errorf("cross-island job = %d, want 422", resp.StatusCode)
	}

	// Admission barrier before moving the clock: both loops must admit
	// their job at t=0 or the exact flows below would shift.
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 2 })
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })

	// Job status by global ID from either shard.
	var stx, sty model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idx), &stx)
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, idy), &sty)
	if stx.ID != idx || stx.State != StateDone {
		t.Errorf("x job status = %+v, want done with ID %d", stx, idx)
	}
	// Each island's rate is 1+2=3: size 6 → flow 2, size 3 → flow 1.
	if stx.Flow != "2" || sty.Flow != "1" {
		t.Errorf("flows = %s, %s, want 2 and 1", stx.Flow, sty.Flow)
	}

	// Merged schedule: global machine indices, island-respecting placement.
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	var sched schedule.Schedule
	if err := json.Unmarshal(schedResp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Pieces) == 0 {
		t.Fatal("merged schedule is empty")
	}
	for _, pc := range sched.Pieces {
		switch pc.Job {
		case idx:
			if pc.Machine > 1 {
				t.Errorf("x job ran on global machine %d, want 0 or 1", pc.Machine)
			}
		case idy:
			if pc.Machine < 2 {
				t.Errorf("y job ran on global machine %d, want 2 or 3", pc.Machine)
			}
		default:
			t.Errorf("merged schedule references unknown job %d", pc.Job)
		}
	}
	if schedResp.Makespan != "2" {
		t.Errorf("merged makespan = %s, want 2 (the slower island's completion)", schedResp.Makespan)
	}

	// Stats: fleet aggregates plus the per-shard breakdown.
	st := srv.Stats()
	if st.ShardCount != 2 || len(st.Shards) != 2 {
		t.Fatalf("shardCount=%d len(shards)=%d, want 2/2", st.ShardCount, len(st.Shards))
	}
	if st.Shards[0].JobsAccepted != 1 || st.Shards[1].JobsAccepted != 1 {
		t.Errorf("per-shard accepted = %d/%d, want 1/1",
			st.Shards[0].JobsAccepted, st.Shards[1].JobsAccepted)
	}
	if st.JobsAccepted != 2 || st.JobsCompleted != 2 {
		t.Errorf("aggregates accepted=%d completed=%d, want 2/2", st.JobsAccepted, st.JobsCompleted)
	}
	if got := st.Shards[0].Machines; len(got) != 2 || got[0] != "a0" || got[1] != "a1" {
		t.Errorf("shard 0 machines = %v, want [a0 a1]", got)
	}
	if st.MaxWeightedFlow != "2" {
		t.Errorf("merged maxWeightedFlow = %s, want 2", st.MaxWeightedFlow)
	}
}

// TestRoutingPicksLeastLoadedShard: with submissions queued before the loops
// start, backlog only grows, so the router's least-residual-work choice is
// fully deterministic.
func TestRoutingPicksLeastLoadedShard(t *testing.T) {
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	submit := func(size string) int {
		t.Helper()
		resp, err := srv.Submit(&model.SubmitRequest{Size: size, Databanks: []string{"shared"}})
		if err != nil {
			t.Fatal(err)
		}
		return resp.ID
	}
	// Ties go to shard 0; then the big job tilts the balance so the next
	// two small ones both land on shard 1 until it catches up.
	if id := submit("10"); id%2 != 0 {
		t.Errorf("first job → shard %d, want 0 (tie-break)", id%2)
	}
	if id := submit("4"); id%2 != 1 {
		t.Errorf("second job → shard %d, want 1 (backlog 0 < 10)", id%2)
	}
	if id := submit("4"); id%2 != 1 {
		t.Errorf("third job → shard %d, want 1 (backlog 4 < 10)", id%2)
	}
	if id := submit("4"); id%2 != 1 {
		t.Errorf("fourth job → shard %d, want 1 (backlog 8 < 10)", id%2)
	}
	if id := submit("4"); id%2 != 0 {
		t.Errorf("fifth job → shard %d, want 0 (backlog 10 < 12)", id%2)
	}
	st := srv.Stats()
	if st.Shards[0].Backlog != "14" || st.Shards[1].Backlog != "12" {
		t.Errorf("backlogs = %s/%s, want 14/12", st.Shards[0].Backlog, st.Shards[1].Backlog)
	}
}

// TestMakespanMonotoneUnderRetention is the regression test for the
// makespan-moves-backwards bug: GET /v1/schedule used to recompute the
// makespan from the compacted trace, so once retention dropped every piece
// the reported "whole execution" makespan collapsed to 0.
func TestMakespanMonotoneUnderRetention(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Retention: big.NewRat(10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	// Size 4 shared by both machines at rate 3: completes at 4/3.
	postJob(t, ts.URL, model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	var before model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &before)
	if before.Makespan != "4/3" {
		t.Fatalf("makespan before compaction = %s, want 4/3", before.Makespan)
	}

	// A long idle stretch, then a wake-up: the compaction horizon (t-10)
	// passes the whole first job, dropping all its pieces before the new
	// job has executed anything.
	vc.Advance(big.NewRat(100, 1))
	postJob(t, ts.URL, model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}})
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.CompactedJobs >= 1 })

	var during model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &during)
	var sched schedule.Schedule
	if err := json.Unmarshal(during.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Pieces) != 0 {
		t.Fatalf("retained pieces = %d, want 0 (everything compacted)", len(sched.Pieces))
	}
	// The high-water mark must survive the empty trace.
	if during.Makespan != "4/3" {
		t.Errorf("makespan after compaction = %s, want 4/3 (must not move backwards)", during.Makespan)
	}

	// New execution pushes past the mark again: 100 + 2/3.
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })
	var after model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &after)
	if after.Makespan != "302/3" {
		t.Errorf("final makespan = %s, want 302/3", after.Makespan)
	}
}

// TestQueuedUntilEngineAccepts is the regression test for the premature
// StateScheduled bug: the loop used to flip a record to "scheduled" before
// eng.Add could fail, so a poisoned admit left /v1/jobs/{id} claiming
// scheduling that never happened.
func TestQueuedUntilEngineAccepts(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	resp, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID
	// Fault injection: clear the job's hosts before the loop starts, so the
	// engine rejects the admit ("cannot run on any machine").
	sh := srv.active()[0]
	sh.mu.Lock()
	sh.records[id].hosts = nil
	sh.mu.Unlock()
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.LastError != "" })

	st, known, _ := sh.jobStatus(id, id)
	if !known {
		t.Fatal("job vanished")
	}
	if st.State != StateQueued {
		t.Errorf("state after rejected admit = %s, want %s", st.State, StateQueued)
	}
	stats := srv.Stats()
	if stats.JobsLive != 0 {
		t.Errorf("jobsLive = %d, want 0 (the engine never accepted the job)", stats.JobsLive)
	}
	if !stats.Stalled {
		t.Error("a rejected admit must flag the shard unhealthy")
	}
}

// TestCostGuardsCompactedRecords is the regression test for the nil-record
// panic vector: a compacted job ID reaching the cost function used to
// dereference a nil record and kill the loop goroutine. The guard answers
// ok=false for a forgotten record instead of panicking the daemon.
func TestCostGuardsCompactedRecords(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Retention: big.NewRat(10, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	resp, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.ID
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
	vc.Advance(big.NewRat(100, 1))
	live, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}})
	if err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.CompactedJobs >= 1 })

	sh := srv.active()[0]
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.records[id] != nil {
		t.Fatal("record not compacted; test setup broken")
	}
	if c, ok := sh.cost(0, id); ok || c.Sign() != 0 {
		t.Errorf("cost(compacted) = %v, %v, want 0, false", c, ok)
	}
	// Out-of-range IDs and machines answer false, never panic.
	if _, ok := sh.cost(0, len(sh.records)+7); ok {
		t.Error("cost(out-of-range job) = true, want false")
	}
	for _, machine := range []int{-1, len(sh.machines)} {
		if _, ok := sh.cost(machine, live.ID); ok {
			t.Errorf("cost(machine %d of %d, live job) = true, want false", machine, len(sh.machines))
		}
	}
}

// validateShard rebuilds the shard's offline instance from its records and
// checks its executed trace against the exact validator. Per-shard local IDs
// are dense and release-ordered, so they coincide with instance indices.
// modelJob is a record's job as the offline model takes it.
func modelJob(j shardlink.Job) model.Job {
	m := model.Job{Name: j.Name, Release: j.Release.Rat(), Weight: j.Weight.Rat(), Size: j.Size.Rat(),
		Databanks: j.Databanks, Tenant: j.Tenant, SLAClass: j.SLAClass}
	if j.Deadline.Sign() != 0 {
		m.Deadline = j.Deadline.Rat()
	}
	return m
}

func validateShard(t *testing.T, sh *shard) {
	t.Helper()
	sh.mu.Lock()
	jobs := make([]model.Job, len(sh.records))
	for i, rec := range sh.records {
		if rec == nil {
			t.Fatalf("shard %d: record %d compacted; validateShard needs full history", sh.idx, i)
		}
		jobs[i] = modelJob(rec.Job)
	}
	pieces := append([]schedule.Piece(nil), sh.eng.Schedule().Pieces...)
	machines := sh.machines
	sh.mu.Unlock()
	if len(jobs) == 0 {
		return
	}
	inst, err := model.NewInstance(jobs, machines)
	if err != nil {
		t.Fatalf("shard %d: %v", sh.idx, err)
	}
	sched := &schedule.Schedule{Pieces: pieces}
	if err := sched.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatalf("shard %d: executed trace invalid: %v", sh.idx, err)
	}
}

// validateServer rebuilds the whole fleet's offline instance — every job
// counted once at its birth shard, machines in global order — and validates
// the *merged* executed trace against the exact validator. This is the
// correctness check for work stealing: a migrated job's pre-migration pieces
// (donor trace) and post-migration pieces (thief trace) must together
// process exactly fraction 1 under the original release date.
func validateServer(t *testing.T, srv *Server) {
	t.Helper()
	// The merge spans every shard ever created: after a reshard, retired and
	// active shards cover the same fleet indices, so the fleet is sized by
	// the largest index and later (newer) shards overwrite earlier ones —
	// pieces executed before a replication event stay valid against the
	// updated machine, whose databank set only ever grew in these tests.
	fleetSize := 0
	for _, sh := range srv.allShards() {
		for _, gi := range sh.machineIdx {
			if gi+1 > fleetSize {
				fleetSize = gi + 1
			}
		}
	}
	machines := make([]model.Machine, fleetSize)
	type gidJob struct {
		gid int
		job model.Job
	}
	var jobs []gidJob
	var pieces []schedule.Piece
	for _, sh := range srv.allShards() {
		sh.mu.Lock()
		for i := range sh.machines {
			machines[sh.machineIdx[i]] = sh.machines[i]
		}
		for _, rec := range sh.records {
			if rec == nil {
				sh.mu.Unlock()
				t.Fatalf("shard %d: compacted record; validateServer needs full history", sh.idx)
			}
			if rec.Stolen {
				continue // counted at its birth shard
			}
			jobs = append(jobs, gidJob{gid: rec.GID, job: modelJob(rec.Job)})
		}
		for k := range sh.eng.Schedule().Pieces {
			pc := &sh.eng.Schedule().Pieces[k]
			pieces = append(pieces, schedule.Piece{
				Machine:  sh.machineIdx[pc.Machine],
				Job:      sh.records[pc.Job].GID,
				Start:    new(big.Rat).Set(pc.Start),
				End:      new(big.Rat).Set(pc.End),
				Fraction: new(big.Rat).Set(pc.Fraction),
			})
		}
		sh.mu.Unlock()
	}
	if len(jobs) == 0 {
		return
	}
	// NewInstance stably re-sorts by release; pre-sorting with the same
	// comparator keeps positions aligned with the gid → index map.
	sort.SliceStable(jobs, func(a, b int) bool {
		return jobs[a].job.Release.Cmp(jobs[b].job.Release) < 0
	})
	index := make(map[int]int, len(jobs))
	plain := make([]model.Job, len(jobs))
	for i := range jobs {
		index[jobs[i].gid] = i
		plain[i] = jobs[i].job
	}
	inst, err := model.NewInstance(plain, machines)
	if err != nil {
		t.Fatal(err)
	}
	for k := range pieces {
		idx, ok := index[pieces[k].Job]
		if !ok {
			t.Fatalf("merged trace references unknown global job %d", pieces[k].Job)
		}
		pieces[k].Job = idx
	}
	sched := &schedule.Schedule{Pieces: pieces}
	if err := sched.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatalf("merged executed trace invalid: %v", err)
	}
}

// TestMultiShardConcurrentSubmissionUnderRace hammers a 4-shard server —
// tens of concurrent HTTP clients submitting across shards while a driver
// advances the virtual clock — and verifies every accepted job completes,
// global IDs stay unique, and each shard's executed trace passes the exact
// validator. Under -race this is the data-race check on the sharded
// boundary: four loop goroutines, the router, and the merged readers.
func TestMultiShardConcurrentSubmissionUnderRace(t *testing.T) {
	const clients, perClient = 24, 4
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 4, Policy: "mct", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
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
				size := fmt.Sprintf("%d", 1+(c+k)%7)
				resp := postJob(t, ts.URL, model.SubmitRequest{Size: size, Databanks: []string{"shared"}})
				ids[c] = append(ids[c], resp.ID)
			}
		}(c)
	}
	wg.Wait()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == clients*perClient })
	close(stop)
	driver.Wait()

	stats := srv.Stats()
	if stats.JobsCompleted != clients*perClient || stats.Stalled {
		t.Fatalf("completed %d/%d, stalled=%v, lastError=%q",
			stats.JobsCompleted, clients*perClient, stats.Stalled, stats.LastError)
	}
	seen := make(map[int]bool)
	for _, batch := range ids {
		for _, id := range batch {
			if seen[id] {
				t.Fatalf("global ID %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	perShard := 0
	for _, ss := range stats.Shards {
		// With stealing on, a shard may get all its work by stealing rather
		// than routing; starvation means neither path reached it.
		if ss.JobsAccepted == 0 && ss.StolenJobs == 0 {
			t.Errorf("shard %d got no jobs; neither routing nor stealing reached it", ss.Shard)
		}
		perShard += ss.JobsAccepted
	}
	if perShard != clients*perClient {
		t.Errorf("per-shard accepted sums to %d, want %d", perShard, clients*perClient)
	}
	if stats.StolenJobs != stats.Migrations {
		t.Errorf("stolen %d != migrated %d: a migration has exactly one donor and one thief",
			stats.StolenJobs, stats.Migrations)
	}
	validateServer(t, srv)
}

// TestMultiShardExactSolvesUnderRace runs the exact online-MWF policy on two
// shards with concurrent submissions: two warm-started solver chains living
// side by side must not share state.
func TestMultiShardExactSolvesUnderRace(t *testing.T) {
	const jobs = 20
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for c := 0; c < 5; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < jobs/5; k++ {
				postJob(t, ts.URL, model.SubmitRequest{Size: fmt.Sprintf("%d", 2+(c+k)%5)})
			}
		}(c)
	}
	wg.Wait()
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == jobs })

	stats := srv.Stats()
	if stats.Stalled || stats.LastError != "" {
		t.Fatalf("unhealthy: stalled=%v err=%q", stats.Stalled, stats.LastError)
	}
	if stats.LPSolves < 2 {
		t.Errorf("lpSolves = %d, want >= 2 (one per shard at least)", stats.LPSolves)
	}
	for _, ss := range stats.Shards {
		if ss.LPSolves == 0 {
			t.Errorf("shard %d never solved; routing starved it", ss.Shard)
		}
	}
	validateServer(t, srv)
}
