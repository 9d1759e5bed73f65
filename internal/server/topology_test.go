package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"divflow/internal/model"
	"divflow/internal/shardlink"
	"divflow/internal/wal"
)

// TestWALRestoreRejectsDamagedTopology feeds replay topology records that are
// intact on disk (CRC-valid) but structurally wrong: the fixture's log is
// rewritten with one field of its topology record (a 2→1 reshard: shard 2
// spawned over the whole fleet, shards 0 and 1 retired) changed, or a second
// one appended. Each must come back from New as a replay error naming the
// record — not as a fleet that panics or misroutes on its first read: one that
// does restore is read through /v1/schedule, Stats and jobStatus before the
// test fails, so a hole of that kind shows up here as the panic it would be.
func TestWALRestoreRejectsDamagedTopology(t *testing.T) {
	src := t.TempDir()
	copyDir(t, filepath.Join(parentFixture, "wal"), src)
	snapSeq, snap, ok := wal.LoadSnapshot(src)
	if !ok {
		t.Fatal("fixture holds no valid snapshot")
	}
	log, recs, err := wal.Open(src, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	keepShard0 := func(topo map[string]any, machineIdx ...any) {
		topo["shards"] = []any{map[string]any{"idx": 0, "kept": true, "machineIdx": machineIdx}}
	}
	for _, tc := range []struct {
		name string
		// damage edits the fixture's topology record in place and returns
		// what to append behind the log.
		damage func(topo map[string]any) (appended map[string]any)
		want   string
	}{
		{"spawned shard's machineIdx shorter than its machines", func(topo map[string]any) map[string]any {
			sh := topo["shards"].([]any)[0].(map[string]any)
			sh["machineIdx"] = sh["machineIdx"].([]any)[:1]
			return nil
		}, "record 29 (topology): generation 1: shard 2 maps 4 machines through 1 fleet indices"},
		{"kept shard's machineIdx of the wrong length", func(topo map[string]any) map[string]any {
			keepShard0(topo, 0)
			topo["retired"] = []any{1}
			return nil
		}, "record 29 (topology): generation 1: kept shard 0 maps 2 machines through 1 fleet indices"},
		{"spawned index is not the next creation index", func(topo map[string]any) map[string]any {
			topo["shards"].([]any)[0].(map[string]any)["idx"] = 1
			return nil
		}, "record 29 (topology): generation 1: spawns shard 1, the next creation index is 2"},
		{"retired shard is also a member", func(topo map[string]any) map[string]any {
			keepShard0(topo, 0, 2)
			return nil
		}, "record 29 (topology): generation 1: retires shard 0"},
		{"base of the generation before", func(topo map[string]any) map[string]any {
			topo["base"] = 0
			return nil
		}, "record 29 (topology): generation 1: based at 0, below 11"},
		{"negative base", func(topo map[string]any) map[string]any {
			topo["base"] = -1
			return nil
		}, "record 29 (topology): generation 1: based at -1, below 11"},
		{"base among the IDs already issued", func(topo map[string]any) map[string]any {
			// Above generation 0's base, so only the issued IDs refuse it.
			topo["base"] = 5
			return nil
		}, "record 29 (topology): generation 1: based at 5, below 11"},
		{"kept names a tombstone", func(topo map[string]any) map[string]any {
			// Shard 0 went with generation 1; nothing brings a retired shard back.
			next := map[string]any{"gen": 2, "base": 40, "stride": 1, "retired": []any{2}, "fleet": topo["fleet"], "at": "107"}
			keepShard0(next, 0, 2)
			return next
		}, "record 46 (topology): generation 2: keeps shard 0, which is not in generation 1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			out, _, err := wal.Open(dir, wal.Options{})
			if err != nil {
				t.Fatal(err)
			}
			var appended map[string]any
			for _, rec := range recs {
				data := rec.Data
				if rec.Type == walTypeTopo {
					var topo map[string]any
					if err := json.Unmarshal(data, &topo); err != nil {
						t.Fatal(err)
					}
					appended = tc.damage(topo)
					if data, err = json.Marshal(topo); err != nil {
						t.Fatal(err)
					}
				}
				if _, err := out.Append(rec.Type, data); err != nil {
					t.Fatal(err)
				}
			}
			if appended != nil {
				if _, err := out.Append(walTypeTopo, appended); err != nil {
					t.Fatal(err)
				}
			}
			out.Close()
			if err := wal.WriteSnapshot(dir, snapSeq, snap); err != nil {
				t.Fatal(err)
			}
			cfg := parentFixtureCfg(dir)
			cfg.Clock = NewVirtualClock()
			srv, err := New(cfg)
			if err == nil {
				defer srv.Close()
				srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
				srv.Stats()
				for id := 0; id < 16; id++ {
					srv.jobStatus(id)
				}
				t.Fatal("New restored the damaged log")
			}
			if want := "server: replay: " + tc.want; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q, want the %q prefix", err, want)
			}
		})
	}
}

// TestNewReleasesTransportOnFailedRestore: a New that fails after it opened
// the loopback rpc pair must take it down again, or every failed start leaves
// the pipe's two serving goroutines behind.
func TestNewReleasesTransportOnFailedRestore(t *testing.T) {
	_, payload, ok := wal.LoadSnapshot(filepath.Join(parentFixture, "wal"))
	if !ok {
		t.Fatal("fixture holds no valid snapshot")
	}
	var doc map[string]any
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	doc["gens"].([]any)[0].(map[string]any)["stride"] = 0
	damaged, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := wal.WriteSnapshot(dir, 0, damaged); err != nil {
		t.Fatal(err)
	}
	cfg := parentFixtureCfg(dir)
	cfg.Clock, cfg.Transport = NewVirtualClock(), shardlink.TransportRPC
	before := runtime.NumGoroutine()
	if srv, err := New(cfg); err == nil {
		srv.Close()
		t.Fatal("New restored the damaged snapshot")
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines before the failed New, %d still running after it", before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// wideFleet partitions into four shards by databank; mergedFleet is the same
// machines, listed in another order, after bankX was replicated onto b0, c0
// and d0: their three islands join into one shard and the bankA island is kept
// — at another position, under other fleet indices.
func wideFleet() []model.Machine {
	return []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "a1", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"bankB"}},
		{Name: "c0", InverseSpeed: rat(1, 1), Databanks: []string{"bankC"}},
		{Name: "d0", InverseSpeed: rat(1, 1), Databanks: []string{"bankD"}},
	}
}

func mergedFleet() []model.Machine {
	return []model.Machine{
		{Name: "d0", InverseSpeed: rat(1, 1), Databanks: []string{"bankD", "bankX"}},
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "a1", InverseSpeed: rat(1, 1), Databanks: []string{"bankA"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"bankB", "bankX"}},
		{Name: "c0", InverseSpeed: rat(1, 1), Databanks: []string{"bankC", "bankX"}},
	}
}

// topologyOf snapshots the fleet and returns the topology part of the
// document it wrote: the generations, and every shard's spec and retirement.
func topologyOf(t *testing.T, srv *Server, dir string) string {
	t.Helper()
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, payload, ok := wal.LoadSnapshot(dir)
	if !ok {
		t.Fatal("no valid snapshot after Snapshot")
	}
	var doc struct {
		Gens   []snapGen `json:"gens"`
		Shards []struct {
			shardlink.ShardSpec
			Retired bool `json:"retired"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		t.Fatal(err)
	}
	return string(out)
}

// TestWALTopologyAgreesAcrossInstallPaths runs one script — a durable
// four-shard fleet, submits, a 4→2 reshard that keeps one shard and merges
// three, submits, the 2→4 reshard back — and requires the same topology from
// every way a generation comes to exist: the live fleet (startup and Reshard),
// a crash-restore from the log alone (both topology records replayed onto the
// startup generation) and a restore from a snapshot.
func TestWALTopologyAgreesAcrossInstallPaths(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) {
			// A cadence the script never reaches: the log alone holds the run.
			cfg := Config{Machines: wideFleet(), Policy: "srpt", WALDir: t.TempDir(), SnapshotEvery: 1 << 20, Transport: tr}
			vc := NewVirtualClock()
			liveCfg := cfg
			liveCfg.Clock = vc
			srv, err := New(liveCfg)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			srv.Start()
			submitted := 0
			submit := func(size, bank string) {
				t.Helper()
				if _, err := srv.Submit(&model.SubmitRequest{Size: size, Databanks: []string{bank}}); err != nil {
					t.Fatal(err)
				}
				submitted++
			}
			settle := func(now int64) {
				t.Helper()
				waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= submitted })
				vc.Advance(rat(now, 1))
				quiesce(t, srv, rat(now, 1))
			}
			reshard := func(fleet []model.Machine, gen, shards int) {
				t.Helper()
				resp, err := srv.Reshard(&model.Platform{Machines: fleet})
				if err != nil {
					t.Fatal(err)
				}
				if resp.Generation != gen || resp.ShardCount != shards || len(resp.KeptShards) != 1 {
					t.Fatalf("reshard = %+v, want generation %d with %d shards, one of them kept", resp, gen, shards)
				}
			}
			submit("8", "bankA")
			submit("4", "bankB")
			submit("4", "bankC")
			submit("2", "bankD")
			settle(2)
			reshard(mergedFleet(), 1, 2)
			submit("3", "bankA")
			submit("2", "bankD")
			settle(4)
			reshard(wideFleet(), 2, 4)
			settle(4)

			logOnly := cfg
			logOnly.WALDir = t.TempDir()
			copyDir(t, cfg.WALDir, logOnly.WALDir)
			live := topologyOf(t, srv, cfg.WALDir)

			replayed, _ := reopenServer(t, logOnly)
			defer replayed.Close()
			if replayed.ReplayedRecords() == 0 || replayed.Generation() != 2 {
				t.Fatalf("log-only restore replayed %d records to generation %d", replayed.ReplayedRecords(), replayed.Generation())
			}
			if got := topologyOf(t, replayed, logOnly.WALDir); got != live {
				t.Errorf("topology replayed from the log:\n%s\nthe live fleet's:\n%s", got, live)
			}
			srv.Close()
			restored, _ := reopenServer(t, cfg)
			defer restored.Close()
			if n := restored.ReplayedRecords(); n != 0 {
				t.Fatalf("snapshot restore replayed %d records, want 0", n)
			}
			if got := topologyOf(t, restored, cfg.WALDir); got != live {
				t.Errorf("topology restored from the snapshot:\n%s\nthe live fleet's:\n%s", got, live)
			}
		})
	}
}
