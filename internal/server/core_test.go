package server

import (
	"bytes"
	"encoding/json"
	"math/big"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/wal"
	"divflow/internal/workload"
)

// TestCoreRunsWithoutServer steps a shard core that has no Server, Clock, WAL,
// loop or telemetry — a nil appender, and effects nobody drains — through one
// shard's log, record by record through run: the log a single-shard fleet on
// a virtual clock wrote for a seeded stream, with submits, admission batches,
// completions, compactions, and one extraction that an abort gives back. The
// core's snapshot entry must then be the fleet shard's, byte for byte in
// JSON: the records, the engine, the plan, the ledger and the routing key all
// follow from the log alone.
func TestCoreRunsWithoutServer(t *testing.T) {
	wcfg := workload.Default()
	wcfg.Jobs, wcfg.Machines, wcfg.Seed = 14, 2, 5
	inst := workload.MustGenerate(wcfg)
	retention := rat(6, 1)
	dir := t.TempDir()
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(2), Retention: retention, WALDir: dir, SnapshotEvery: 1 << 20, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if n := srv.ShardCount(); n != 1 {
		t.Fatalf("%d shards, want 1", n)
	}
	sh := srv.active()[0]
	srv.Start()
	st := &scriptState{}
	runScript(t, srv, vc, inst, st, 6)
	// The give-back: what a steal would take, extracted and then aborted, as
	// when the thief refuses the adoption.
	sh.mu.Lock()
	ex := sh.extractJobs(false, sh.hosts)
	if ex != nil {
		sh.settle(walTypeAbort, ex.Locals)
	}
	sh.mu.Unlock()
	if ex == nil {
		t.Fatal("the extraction took no job")
	}
	runScript(t, srv, vc, inst, st, -1)
	quiesce(t, srv, vc.Now())

	sh.mu.Lock()
	want, err := json.Marshal(sh.exportState())
	sh.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	log, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()

	var core shardCore
	args := &shardlink.InstallArgs{
		ShardSpec: shardlink.ShardSpec{Stride: 1, Machines: uniformFleet(2), MachineIdx: []int{0, 1}},
		Retention: exact.FromRat(retention),
	}
	if err := core.build(args, nil, nil); err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for _, rec := range recs {
		kind, ok := walKinds[rec.Type]
		if !ok {
			t.Fatalf("record %d has unknown type %q", rec.Seq, rec.Type)
		}
		r := kind()
		if err := json.Unmarshal(rec.Data, r); err != nil {
			t.Fatalf("record %d (%s): %v", rec.Seq, rec.Type, err)
		}
		sr, ok := r.(shardRecord)
		if !ok {
			t.Fatalf("record %d (%s) is not a shard record", rec.Seq, rec.Type)
		}
		if err := core.run(sr); err != nil {
			t.Fatalf("record %d (%s): %v", rec.Seq, rec.Type, err)
		}
		seen[rec.Type]++
	}
	for _, typ := range []string{walTypeSubmit, walTypeAdmit, walTypeComplete, walTypeCompact, walTypeExtract, walTypeAbort} {
		if seen[typ] == 0 {
			t.Errorf("the log holds no %s record (%v)", typ, seen)
		}
	}
	t.Logf("records run: %v", seen)
	if seen[walTypeSubmit] != inst.N() || core.lastErr != nil {
		t.Fatalf("the core ran %d submits of %d, latched %v", seen[walTypeSubmit], inst.N(), core.lastErr)
	}
	got, err := json.Marshal(core.exportState())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("the core's snapshot entry differs from the fleet shard's:\ncore:  %s\nshard: %s", got, want)
	}
}

// TestCoreEffectsAreTheJournal holds what the shells report to what the cores
// record. A two-shard fleet on a virtual clock, with a WAL and retention,
// runs a steal, a seeded stream, compactions and a 2→1 reshard. Each shard's
// core is then rebuilt from the log alone, with no telemetry: its records run
// through run, the topology record acts on it as installGeneration does, and
// it catches up to the time the shard's loop last reached. The rebuilt core's
// effects must be the fleet journal's events of that shard, event for event,
// and its snapshot entry the shard's, byte for byte. The stream is submitted
// into a quiesced fleet, every loop caught up to the submission's release, so
// the rebuilt core catches up to a submit record's release before running it;
// the record itself carries no engine time, and a core that ran it first
// would note the submission ahead of the decisions taken before it.
func TestCoreEffectsAreTheJournal(t *testing.T) {
	retention := rat(4, 1)
	dir := t.TempDir()
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Retention: retention, WALDir: dir, SnapshotEvery: 1 << 20, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	specs := make(map[int]shardlink.ShardSpec)
	for _, sh := range srv.active() {
		sh.mu.Lock()
		specs[sh.idx] = sh.exportState().ShardSpec
		sh.mu.Unlock()
	}
	// Shard 1 runs dry at 3/2, its one job done on both machines, while
	// shard 0 still holds three: it steals.
	for _, size := range []string{"2", "6", "10"} {
		submitTo(t, srv.active()[0], size, "shared")
	}
	submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals == 4 })
	vc.Advance(rat(3, 2))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.Migrations > 0 })
	wcfg := workload.Default()
	wcfg.Jobs, wcfg.Machines, wcfg.Seed = 12, 4, 3
	inst := workload.MustGenerate(wcfg)
	base := vc.Now()
	for _, job := range inst.Jobs {
		at := new(big.Rat).Add(base, job.Release)
		vc.Advance(at)
		quiesce(t, srv, at)
		req := model.SubmitRequest{Weight: job.Weight.RatString(), Size: job.Size.RatString(), Databanks: []string{"shared"}}
		if _, err := srv.Submit(&req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Reshard(&model.Platform{Machines: hotSharedFleet(), Shards: 1}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N()+4 })
	if st := srv.Stats(); st.Migrations == 0 || st.ReshardedJobs == 0 || st.CompactedJobs == 0 {
		t.Fatalf("stolen %d, resharded %d, compacted %d: the run missed a step", st.Migrations, st.ReshardedJobs, st.CompactedJobs)
	}
	srv.Close() // the loops stop, so the shards hold still

	log, recs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	cores := make(map[int]*shardCore)
	build := func(spec shardlink.ShardSpec) {
		c := new(shardCore)
		if err := c.build(&shardlink.InstallArgs{ShardSpec: spec, Retention: exact.FromRat(retention)}, nil, nil); err != nil {
			t.Fatal(err)
		}
		cores[spec.Idx] = c
	}
	for _, spec := range specs {
		build(spec)
	}
	for _, rec := range recs {
		r := walKinds[rec.Type]()
		if err := json.Unmarshal(rec.Data, r); err != nil {
			t.Fatalf("record %d (%s): %v", rec.Seq, rec.Type, err)
		}
		topo, ok := r.(*recTopo)
		if !ok {
			idx, at, _ := r.head()
			if _, submit := r.(*recSubmit); submit {
				cores[idx].catchUpTo(at)
			}
			if err := cores[idx].run(r.(shardRecord)); err != nil {
				t.Fatalf("record %d (%s): %v", rec.Seq, rec.Type, err)
			}
			continue
		}
		member := make(map[int]bool)
		for pos, ts := range topo.Shards {
			member[ts.Idx] = true
			if ts.Kept {
				cores[ts.Idx].reencode(topo.Gen, topo.Base, topo.Stride, pos, ts.MachineIdx)
			} else {
				build(shardlink.ShardSpec{Idx: ts.Idx, Pos: pos, Stride: topo.Stride, GidBase: topo.Base, Gen: topo.Gen, Machines: ts.Machines, MachineIdx: ts.MachineIdx})
			}
		}
		for _, idx := range topo.Retired {
			cores[idx].retired = true
		}
		for idx, c := range cores {
			if !member[idx] {
				c.renumber(fleetIndex(topo.Fleet))
			}
		}
	}

	type event struct {
		Type, VTime, Detail string
		Gen, GID            int
	}
	for _, sh := range srv.allShards() {
		c := cores[sh.idx]
		sh.mu.Lock()
		now := sh.eng.Now()
		want, err := json.Marshal(sh.exportState())
		sh.mu.Unlock()
		if err != nil {
			t.Fatal(err)
		}
		c.catchUpTo(now)
		got, err := json.Marshal(c.exportState())
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("shard %d: the rebuilt core's snapshot entry differs:\ncore:  %s\nshard: %s", sh.idx, got, want)
		}
		journaled, _, dropped := srv.tel.journal.Since(0, obs.Filter{Shard: sh.idx})
		if dropped != 0 {
			t.Fatalf("the journal dropped %d events", dropped)
		}
		if len(c.effects) != len(journaled) {
			t.Errorf("shard %d: the rebuilt core noted %d effects, the journal holds %d events", sh.idx, len(c.effects), len(journaled))
		}
		types := make(map[string]int)
		for i := range min(len(c.effects), len(journaled)) {
			e, j := c.effects[i].event(sh.idx), journaled[i]
			types[e.Type]++
			if a, b := (event{e.Type, e.VTime, e.Detail, e.Gen, e.GID}), (event{j.Type, j.VTime, j.Detail, j.Gen, j.GID}); a != b {
				t.Fatalf("shard %d event %d: the core noted %+v, the journal holds %+v", sh.idx, i, a, b)
			}
		}
		t.Logf("shard %d: %d events %v", sh.idx, len(journaled), types)
	}
}
