package server

import (
	"bytes"
	"encoding/json"
	"testing"

	"divflow/internal/exact"
	"divflow/internal/shardlink"
	"divflow/internal/wal"
	"divflow/internal/workload"
)

// TestCoreRunsWithoutServer steps a shard core that has no Server, Clock, WAL
// or loop — a nil appender and a detached telemetry bundle — through one
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
	if err := core.build(args, nil, nil, nil); err != nil {
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
