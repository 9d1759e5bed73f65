package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"divflow/internal/model"
	"divflow/internal/sim"
	"divflow/internal/workload"
)

// islandFleet is two databank islands: machines 0/1 host only "bankA",
// machines 2/3 only "bankB", so the connectivity partition is two shards.
func islandFleet() []model.Machine {
	return []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "a1", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"bankB"}},
		{Name: "b1", InverseSpeed: rat(1, 1), Databanks: []string{"bankB"}},
	}
}

// replicatedFleet is islandFleet after a replication event: the bankB hosts
// now also carry bankA, joining everything into one connectivity component.
// Databank sets only grow, so pieces executed before the event stay valid
// against the updated machines.
func replicatedFleet() []model.Machine {
	return []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "a1", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"bankB", "bankA"}},
		{Name: "b1", InverseSpeed: rat(1, 1), Databanks: []string{"bankB", "bankA"}},
	}
}

// TestRepeatedMachineNamesRefused: a reshard matches one platform's machines
// to the next one's by name (shard.renumber), so with [m{x}, m{y}] resharded
// to [m{y}, m{x}, z{x}] a finished x job's piece was reported on machine 0,
// which hosts only y. A fleet that repeats a name, the empty one included, is
// refused wherever a list comes in: a platform document (-platform, SIGHUP,
// POST /v1/platform answering 400), New and Reshard.
func TestRepeatedMachineNamesRefused(t *testing.T) {
	machine := func(name, bank string) model.Machine {
		return model.Machine{Name: name, InverseSpeed: rat(1, 1), Databanks: []string{bank}}
	}
	for _, name := range []string{"m", ""} {
		fleet := []model.Machine{machine(name, "x"), machine(name, "y")}
		if _, err := New(Config{Machines: fleet, Clock: NewVirtualClock()}); err == nil || !strings.Contains(err.Error(), "both named") {
			t.Errorf("New over two machines named %q: err %v", name, err)
		}
		doc := fmt.Sprintf(`{"machines":[{"name":%q,"inverseSpeed":"1","databanks":["x"]},{"name":%q,"inverseSpeed":"1","databanks":["y"]}]}`, name, name)
		if _, err := model.ParsePlatformConfig([]byte(doc)); err == nil || !strings.Contains(err.Error(), "both named") {
			t.Errorf("platform document naming two machines %q: err %v", name, err)
		}
	}

	srv, err := New(Config{Machines: []model.Machine{machine("m", "x"), machine("y", "y")}, Policy: "srpt", Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Reshard(&model.Platform{Machines: []model.Machine{machine("y", "y"), machine("m", "x"), machine("m", "x")}}); err == nil || !strings.Contains(err.Error(), "both named") {
		t.Errorf("Reshard to a fleet naming two machines m: err %v", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	status, _, env := apiCall(t, ts, "POST", "/v1/platform",
		`{"machines":[{"name":"y","inverseSpeed":"1","databanks":["y"]},{"name":"m","inverseSpeed":"1","databanks":["x"]},{"name":"m","inverseSpeed":"1","databanks":["x"]}]}`)
	if status != http.StatusBadRequest || env.Error.Code != model.ErrCodeInvalidArgument {
		t.Errorf("POST /v1/platform naming two machines m = %d %q, want 400 %q", status, env.Error.Code, model.ErrCodeInvalidArgument)
	}
	if g := srv.Generation(); g != 0 {
		t.Errorf("generation %d after refused reshards, want 0", g)
	}
}

// TestReshardDatabankReplication is the headline live re-sharding scenario:
// a replication event changes which hosts can reach bankA mid-workload, the
// admin repartitions the running fleet, and no work is lost — half-executed
// jobs migrate with their exact remaining fractions, global IDs keep
// resolving across shard generations, and the merged executed trace still
// validates exactly.
func TestReshardDatabankReplication(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ShardCount() != 2 {
		t.Fatalf("island fleet partitioned into %d shards, want 2", srv.ShardCount())
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// bankA island: three jobs (8+8+8 over two machines); bankB island: one
	// small job. The imbalance is structural — bankB machines cannot host
	// bankA jobs, so work stealing cannot fix it. Only re-sharding can.
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

	// t=2: the bankB job is done, its island idle; bankA still grinding
	// (srpt runs two of the three jobs, the third waits).
	vc.Advance(rat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })

	// Replication event: bankB hosts gain bankA. The partition collapses to
	// one shard over all four machines; both island shards retire.
	resp, err := srv.Reshard(&model.Platform{Machines: replicatedFleet()})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Noop {
		t.Fatal("structural reshard reported as no-op")
	}
	if resp.ShardCount != 1 || len(resp.SpawnedShards) != 1 || len(resp.RetiredShards) != 2 || len(resp.KeptShards) != 0 {
		t.Fatalf("reshard outcome = %+v, want 1 shard spawned, 2 retired, none kept", resp)
	}
	if resp.Generation != 1 {
		t.Errorf("generation = %d, want 1", resp.Generation)
	}
	// Exactly the unfinished bankA jobs move (two live, one queued or live
	// depending on srpt's assignment — all three are unfinished at t=2).
	if resp.MigratedJobs != 3 {
		t.Errorf("migrated %d jobs, want 3 (the unfinished bankA jobs)", resp.MigratedJobs)
	}
	if srv.ShardCount() != 1 || srv.Generation() != 1 {
		t.Fatalf("post-reshard topology = %d shards gen %d, want 1 shard gen 1", srv.ShardCount(), srv.Generation())
	}

	// Every original global ID still resolves, mid-flight jobs included.
	for _, id := range ids {
		var st model.JobStatus
		getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id), &st)
		if st.ID != id {
			t.Errorf("job %d reads back as %d across the reshard", id, st.ID)
		}
	}

	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })
	validateServer(t, srv)

	st := srv.Stats()
	if st.Generation != 1 || st.ReshardEvents != 1 || st.ReshardedJobs != 3 {
		t.Errorf("stats generation/events/jobs = %d/%d/%d, want 1/1/3",
			st.Generation, st.ReshardEvents, st.ReshardedJobs)
	}
	if st.JobsAccepted != 4 {
		t.Errorf("jobsAccepted = %d, want 4 (migrated records must not double-count)", st.JobsAccepted)
	}
	retired := 0
	for _, sh := range st.Shards {
		if sh.Retired {
			retired++
			if sh.JobsLive != 0 {
				t.Errorf("retired shard %d still has %d live jobs", sh.Shard, sh.JobsLive)
			}
		}
	}
	if retired != 2 {
		t.Errorf("%d retired shards in the breakdown, want 2", retired)
	}
	// 24 units of bankA work over two machines would finish at 12+; over
	// four (post-replication) the tail must finish strictly earlier. The
	// bankA jobs all complete by t=8: 22 remaining units at t=2 on 4
	// machines. Just pin that the makespan beat the two-machine bound.
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	makespan, ok := new(big.Rat).SetString(schedResp.Makespan)
	if !ok || makespan.Cmp(rat(12, 1)) >= 0 {
		t.Errorf("makespan = %s, want < 12 (the replicated hosts must have helped)", schedResp.Makespan)
	}

	// The spawned shard keeps issuing IDs that resolve through the new
	// generation.
	post, err := srv.Submit(&model.SubmitRequest{Size: "3", Databanks: []string{"bankA"}})
	if err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 5 })
	var stPost model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, post.ID), &stPost)
	if stPost.ID != post.ID || stPost.State != StateDone {
		t.Errorf("post-reshard job %d = %+v, want done under its own ID", post.ID, stPost)
	}
	for _, id := range ids {
		if id == post.ID {
			t.Fatalf("post-reshard ID %d collides with a generation-0 ID", post.ID)
		}
	}
}

// TestReshardKeepsUntouchedShard pins the diff step: a reshard that leaves
// one connectivity component identical must keep that shard — engine, trace,
// and records untouched, its jobs never migrated — while the changed
// component is retired and respawned.
func TestReshardKeepsUntouchedShard(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	keptBefore := srv.active()[0] // the bankA island
	srv.Start()

	for _, spec := range []struct{ size, bank string }{
		{"6", "bankA"}, {"6", "bankB"}, {"4", "bankB"},
	} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}}); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 3 })
	vc.Advance(rat(1, 1))

	// The bankB island gains a machine; the bankA island is untouched.
	grown := append(islandFleet(), model.Machine{
		Name: "b2", InverseSpeed: rat(1, 1), Databanks: []string{"bankB"}})
	resp, err := srv.Reshard(&model.Platform{Machines: grown})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.KeptShards) != 1 || resp.KeptShards[0] != keptBefore.idx {
		t.Fatalf("kept shards = %v, want exactly the bankA shard %d", resp.KeptShards, keptBefore.idx)
	}
	if len(resp.RetiredShards) != 1 || len(resp.SpawnedShards) != 1 {
		t.Fatalf("retired/spawned = %v/%v, want one of each", resp.RetiredShards, resp.SpawnedShards)
	}
	if srv.active()[0] != keptBefore {
		t.Fatal("kept shard object was replaced, not carried over")
	}
	keptBefore.mu.Lock()
	keptStats := keptBefore.ReshardOut
	keptBefore.mu.Unlock()
	if keptStats != 0 {
		t.Errorf("kept shard migrated %d jobs, want 0", keptStats)
	}

	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	validateServer(t, srv)

	// A post-reshard submission to the *kept* shard gets a new-generation ID
	// that must resolve back to it.
	post, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"bankA"}})
	if err != nil {
		t.Fatal(err)
	}
	sh, _, ok := srv.locate(post.ID)
	if !ok || sh != keptBefore {
		t.Fatalf("new-generation ID %d located on %v, want the kept shard", post.ID, sh)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })
	if st, known := srv.jobStatus(post.ID); !known || st.State != StateDone {
		t.Errorf("post-reshard job on kept shard = %+v known=%v, want done", st, known)
	}
}

// TestReshardNoopTraceIdentical pins the no-op guarantee of the equivalence
// suite: re-submitting the identical platform mid-workload must not advance
// the generation, migrate anything, or perturb the executed trace — the
// server replays event-for-event like the closed-world simulator, exactly as
// if the reshard never happened.
func TestReshardNoopTraceIdentical(t *testing.T) {
	for _, policy := range []string{"online-mwf-lazy", "srpt"} {
		t.Run(policy, func(t *testing.T) {
			cfg := workload.Default()
			cfg.Jobs = 12
			cfg.Machines = 3
			cfg.Seed = 9
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
			srv, err := New(Config{Machines: inst.Machines, Policy: policy, Clock: vc, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.Start()

			platform := &model.Platform{Machines: inst.Machines, Shards: 1}
			submitted := 0
			for j := 0; j < inst.N(); {
				r := inst.Jobs[j].Release
				vc.Advance(r)
				for j < inst.N() && inst.Jobs[j].Release.Cmp(r) == 0 {
					if _, err := srv.Submit(&model.SubmitRequest{
						Name:      inst.Jobs[j].Name,
						Weight:    inst.Jobs[j].Weight.RatString(),
						Size:      inst.Jobs[j].Size.RatString(),
						Databanks: inst.Jobs[j].Databanks,
					}); err != nil {
						t.Fatal(err)
					}
					j++
					submitted++
				}
				waitStats(t, srv, func(st model.StatsResponse) bool {
					return st.BatchedArrivals >= submitted
				})
				// A no-op reshard after every admission wave: maximum
				// opportunity to perturb mid-flight state if it ever touched
				// anything it shouldn't.
				resp, err := srv.Reshard(platform)
				if err != nil {
					t.Fatal(err)
				}
				if !resp.Noop || resp.Generation != 0 || resp.MigratedJobs != 0 {
					t.Fatalf("identical platform produced %+v, want a generation-0 no-op", resp)
				}
			}
			drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N() })

			if g := srv.Generation(); g != 0 {
				t.Errorf("generation after no-op reshards = %d, want 0", g)
			}
			sh := srv.active()[0]
			sh.mu.Lock()
			pieces := append(ref.Schedule.Pieces[:0:0], sh.eng.Schedule().Pieces...)
			sh.mu.Unlock()
			comparePieces(t, pieces, ref.Schedule.Pieces)
			if st := srv.Stats(); st.MaxWeightedFlow != ref.MaxWeightedFlow.RatString() {
				t.Errorf("maxWeightedFlow = %s, simulator %s", st.MaxWeightedFlow, ref.MaxWeightedFlow.RatString())
			}
		})
	}
}

// TestReshardRenumbersFleet pins the machine-numbering contract across a
// platform document that reorders the same machines: the partition is
// unchanged (a no-op — every group matches a running shard by signature),
// but /v1/schedule's machine indices must follow the *new* document, on kept
// and previously-retired shards alike.
func TestReshardRenumbersFleet(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	for _, bank := range []string{"bankA", "bankB"} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{bank}}); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })

	// Same four machines, islands swapped in the document: bankB hosts are
	// now fleet indices 0/1 and bankA hosts 2/3.
	orig := islandFleet()
	reordered := append(append([]model.Machine(nil), orig[2:]...), orig[:2]...)
	resp, err := srv.Reshard(&model.Platform{Machines: reordered})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Noop {
		t.Fatalf("pure reorder produced %+v, want a no-op (same partition)", resp)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	var sched struct {
		Pieces []struct {
			Machine int `json:"machine"`
			Job     int `json:"job"`
		} `json:"pieces"`
	}
	if err := json.Unmarshal(schedResp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Pieces) == 0 {
		t.Fatal("no executed pieces")
	}
	for _, pc := range sched.Pieces {
		// Job 0 needed bankA (now machines 2/3), job 1 bankB (now 0/1).
		if pc.Job == 0 && pc.Machine != 2 && pc.Machine != 3 {
			t.Errorf("bankA piece reports machine %d under the reordered fleet, want 2 or 3", pc.Machine)
		}
		if pc.Job == 1 && pc.Machine != 0 && pc.Machine != 1 {
			t.Errorf("bankB piece reports machine %d under the reordered fleet, want 0 or 1", pc.Machine)
		}
	}
}

// TestReshardRetentionCompactsRetiredShards pins that `-retention` keeps
// bounding memory across reshards: a retired shard's loop stays alive at one
// wake-up per retention window, compacting its frozen history — records,
// donor-side migrated entries, forwarding-table entries owned by its stolen
// records — until nothing is left, then exits. Without this, every reshard
// would freeze its retired shards' history forever and retention would stop
// being a real bound on a long-running daemon.
func TestReshardRetentionCompactsRetiredShards(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: vc, Retention: rat(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	for _, spec := range []struct{ size, bank string }{{"6", "bankA"}, {"2", "bankB"}} {
		if _, err := srv.Submit(&model.SubmitRequest{Size: spec.size, Databanks: []string{spec.bank}}); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 2 })
	vc.Advance(rat(1, 1))
	if _, err := srv.Reshard(&model.Platform{Machines: replicatedFleet()}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })

	// Sail the retention horizon past every completion and migration time;
	// the retired loops wake on their own retention timers, the active
	// shard on a poke.
	vc.Advance(rat(30, 1))
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, sh := range srv.active() {
			sh.poke()
		}
		vc.AdvanceToNextTimer() // any retention timer re-armed mid-compaction
		empty := true
		for _, sh := range srv.allShards() {
			sh.mu.Lock()
			if !sh.historyEmpty() {
				empty = false
			}
			sh.mu.Unlock()
		}
		srv.topoMu.RLock()
		entries := len(srv.forward)
		srv.topoMu.RUnlock()
		if empty && entries == 0 {
			break
		}
		if time.Now().After(deadline) {
			st := srv.Stats()
			t.Fatalf("retired history never fully compacted: %d forward entries, compactedJobs=%d", entries, st.CompactedJobs)
		}
		time.Sleep(100 * time.Microsecond)
	}
	// Fully forgotten IDs now answer definitively in bounded attempts.
	if _, known := srv.jobStatus(0); known {
		t.Error("compacted job 0 still resolves")
	}
}

// TestReshardInheritsShardsOverride pins the override precedence: a server
// running under a `-shards N` round-robin override must treat a platform
// document without its own "shards" field as inheriting N — re-POSTing the
// daemon's startup platform is a no-op, not a silent repartition to
// connectivity components — while an explicit "shards" both wins and
// becomes the new standing override.
func TestReshardInheritsShardsOverride(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "mct", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	resp, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Noop || resp.ShardCount != 2 {
		t.Fatalf("no-shards-field platform on a -shards 2 server = %+v, want a 2-shard no-op", resp)
	}
	// Explicit override wins and sticks: later documents without the field
	// inherit the last explicit choice.
	resp, err = srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: 4})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Noop || resp.ShardCount != 4 {
		t.Fatalf("explicit shards:4 = %+v, want a structural reshard to 4", resp)
	}
	resp, err = srv.Reshard(&model.Platform{Machines: uniformFleet(4)})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Noop || resp.ShardCount != 4 {
		t.Fatalf("no-shards-field platform after explicit 4 = %+v, want a 4-shard no-op", resp)
	}
}

// TestReshardRejectsStrandedJob pins atomicity: a platform update that drops
// the only databank a queued or live job needs must be rejected wholesale —
// no migration, no generation bump, no retired shard — and the job still
// completes on the unchanged topology.
func TestReshardRejectsStrandedJob(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: islandFleet(), Policy: "srpt", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	if _, err := srv.Submit(&model.SubmitRequest{Size: "5", Databanks: []string{"bankB"}}); err != nil {
		t.Fatal(err)
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 1 })

	// The new platform forgets bankB entirely.
	noB := []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "a1", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
	}
	if _, err := srv.Reshard(&model.Platform{Machines: noB}); err == nil {
		t.Fatal("reshard stranding a live bankB job must be rejected")
	}
	if g, p := srv.Generation(), srv.ShardCount(); g != 0 || p != 2 {
		t.Fatalf("rejected reshard left generation %d, %d shards; want 0, 2", g, p)
	}
	st := srv.Stats()
	if st.ReshardEvents != 0 || st.ReshardedJobs != 0 {
		t.Errorf("rejected reshard recorded events=%d jobs=%d, want 0/0", st.ReshardEvents, st.ReshardedJobs)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })
}

// TestReshardDisabledGate pins the -reshard=false escape hatch.
func TestReshardDisabledGate(t *testing.T) {
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock(), DisableReshard: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := srv.Reshard(&model.Platform{Machines: testFleet()}); err != ErrReshardDisabled {
		t.Fatalf("Reshard on a gated server = %v, want ErrReshardDisabled", err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	body, _ := json.Marshal(map[string]any{"machines": []map[string]any{
		{"name": "fast", "inverseSpeed": "1/2", "databanks": []string{"swissprot"}},
		{"name": "slow", "inverseSpeed": "1", "databanks": []string{"swissprot", "pdb"}},
	}})
	resp, err := http.Post(ts.URL+"/v1/platform", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("POST /v1/platform on a gated server = %d, want 403", resp.StatusCode)
	}
}

// TestReshardAdminAPI drives a structural reshard end to end over HTTP: the
// same platform JSON format the daemon loads at startup, POSTed to the
// running service.
func TestReshardAdminAPI(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 1, Policy: "mct", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 6; i++ {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"shared"}}); err != nil {
			t.Fatal(err)
		}
	}
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 6 })

	platform := map[string]any{"shards": 4, "machines": []map[string]any{}}
	for i := 0; i < 4; i++ {
		platform["machines"] = append(platform["machines"].([]map[string]any), map[string]any{
			"name": fmt.Sprintf("u%d", i), "inverseSpeed": "1", "databanks": []string{"shared"},
		})
	}
	body, _ := json.Marshal(platform)
	httpResp, err := http.Post(ts.URL+"/v1/platform", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var resp model.ReshardResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		t.Fatal(err)
	}
	httpResp.Body.Close()
	if httpResp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/platform = %d, want 200", httpResp.StatusCode)
	}
	if resp.Noop || resp.ShardCount != 4 || resp.Generation != 1 {
		t.Fatalf("reshard over HTTP = %+v, want 4 shards at generation 1", resp)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 6 })
	validateServer(t, srv)

	// A malformed document is a 400, not a topology change.
	bad, err := http.Post(ts.URL+"/v1/platform", "application/json", bytes.NewReader([]byte(`{"machines": []}`)))
	if err != nil {
		t.Fatal(err)
	}
	bad.Body.Close()
	if bad.StatusCode != http.StatusBadRequest {
		t.Errorf("empty platform = %d, want 400", bad.StatusCode)
	}
	if srv.Generation() != 1 {
		t.Errorf("bad request moved the generation to %d", srv.Generation())
	}
}

// TestReshardUnderConcurrentTraffic is the race check on the dynamic
// topology: HTTP clients keep submitting and reading while the topology is
// repartitioned repeatedly (1 → 4 → 2 → 3 shards); every accepted job must
// complete, every ID must resolve at every moment, and the merged trace must
// validate exactly at the end. Run under -race this exercises the
// topoMu/forwarding/retired-shard interleavings.
func TestReshardUnderConcurrentTraffic(t *testing.T) {
	const clients, perClient = 8, 6
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 1, Policy: "mct", Clock: vc})
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
				resp, err := srv.Submit(&model.SubmitRequest{
					Size:      fmt.Sprintf("%d", 1+(c+k)%5),
					Databanks: []string{"shared"},
				})
				if err != nil {
					t.Errorf("client %d: %v", c, err)
					return
				}
				ids[c] = append(ids[c], resp.ID)
				// Immediately read the job back: the ID must resolve no
				// matter which side of a racing reshard issued it.
				if _, known := srv.jobStatus(resp.ID); !known {
					t.Errorf("client %d: fresh ID %d does not resolve", c, resp.ID)
				}
			}
		}(c)
	}
	// Reshard storm concurrent with the submissions.
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
				t.Errorf("job %d = %+v known=%v, want done", id, st, known)
			}
		}
	}
	st := srv.Stats()
	if st.JobsAccepted != clients*perClient {
		t.Errorf("jobsAccepted = %d, want %d", st.JobsAccepted, clients*perClient)
	}
	if st.Generation != 3 || st.ReshardEvents != 3 {
		t.Errorf("generation/events = %d/%d, want 3/3", st.Generation, st.ReshardEvents)
	}
	validateServer(t, srv)
}
