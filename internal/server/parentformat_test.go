package server

import (
	"encoding/json"
	"math/big"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/stats"
	"divflow/internal/wal"
)

// The parent-format fixture (testdata/parentformat, written by the PR 14
// build — see gen_test.go.txt beside it) is a WAL directory abandoned
// mid-run: a snapshot at t=103 holding compacted (null), done, migrated,
// stolen and live records, the forwarding table and tenant accounting, then a
// 23-record suffix with every record type — submits and admits (deadline and
// tenant jobs included), completions, compaction horizons, and a 2→1 reshard's
// topology record and extract/adopt/commit exchanges. expected.json is what
// the live fleet answered at the crash point.

const parentFixture = "testdata/parentformat"

// The base-format fixture (testdata/baseformat) is the same script run by the
// first build whose snapshot entries state the record index's base instead of
// one null per compacted local ID; its expected.json equals the parent
// fixture's apart from the WAL counters.
const baseFixture = "testdata/baseformat"

func parentFixtureCfg(dir string) Config {
	return Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", Retention: rat(50, 1), WALDir: dir}
}

func copyDir(t testing.TB, from, to string) {
	t.Helper()
	ents, err := os.ReadDir(from)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(from, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(to, e.Name()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALRestoresParentFormat restores each committed directory and requires
// the fleet its writing build left: every job status, the /v1/stats
// aggregates and per-shard breakdown, the tenant rows — and, driven to
// completion, a merged schedule that validates exactly.
func TestWALRestoresParentFormat(t *testing.T) {
	for _, fixture := range []string{parentFixture, baseFixture} {
		t.Run(filepath.Base(fixture), func(t *testing.T) { restoresFixture(t, fixture) })
	}
}

func restoresFixture(t *testing.T, fixture string) {
	var want struct {
		Jobs    map[string]model.JobStatus `json:"jobs"`
		Unknown []int                      `json:"unknown"`
		Stats   model.StatsResponse        `json:"stats"`
		Tenants model.TenantsResponse      `json:"tenants"`
	}
	data, err := os.ReadFile(filepath.Join(fixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join(fixture, "wal"), dir)
	srv, vc := reopenServer(t, parentFixtureCfg(dir))
	defer srv.Close()
	if now := srv.RestoredNow().RatString(); now != "107" || srv.ReplayedRecords() != 23 {
		t.Fatalf("restored at %s replaying %d records, want 107 and 23", now, srv.ReplayedRecords())
	}

	var ids []int
	for key, w := range want.Jobs {
		id, _ := strconv.Atoi(key)
		ids = append(ids, id)
		got, known := srv.jobStatus(id)
		if !known || !reflect.DeepEqual(got, w) {
			t.Errorf("job %d restored as %+v (known %v), the parent's fleet had %+v", id, got, known, w)
		}
	}
	for _, id := range want.Unknown {
		if st, known := srv.jobStatus(id); known {
			t.Errorf("job %d resolves to %+v after restore; it was compacted or never issued", id, st)
		}
	}
	// Not part of the durable state: the WAL's own counters, and a retired
	// shard's engine clock (the restore-time repair catches donors up).
	normalize := func(st model.StatsResponse) string {
		st.WAL = nil
		for i := range st.Shards {
			if st.Shards[i].Retired {
				st.Shards[i].Now = ""
			}
		}
		out, _ := json.MarshalIndent(st, "", " ")
		return string(out)
	}
	if got, w := normalize(srv.Stats()), normalize(want.Stats); got != w {
		t.Errorf("restored /v1/stats:\n%s\nthe parent's fleet answered:\n%s", got, w)
	}
	if got := srv.TenantStats(); !reflect.DeepEqual(got, want.Tenants) {
		t.Errorf("restored /v1/tenants = %+v, the parent's fleet answered %+v", got, want.Tenants)
	}

	// The restored fleet is live: everything still queued or running finishes
	// (well inside the retention window, so the phase-B history stays whole).
	srv.Start()
	vc.Advance(rat(125, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.JobsLive == 0 && st.JobsCompleted == want.Stats.JobsAccepted
	})
	validateKnownJobs(t, srv, ids)
}

// validateKnownJobs validates the merged /v1/schedule exactly against the
// instance rebuilt from the listed jobs' served statuses — validateServer for
// a fleet whose older history was compacted away.
func validateKnownJobs(t *testing.T, srv *Server, ids []int) {
	t.Helper()
	sort.Ints(ids)
	jobs := make([]model.Job, len(ids))
	for k, id := range ids {
		st, known := srv.jobStatus(id)
		if !known || st.State != StateDone {
			t.Fatalf("job %d = %+v (known %v), want done", id, st, known)
		}
		release, _ := new(big.Rat).SetString(st.Release)
		weight, _ := new(big.Rat).SetString(st.Weight)
		size, _ := new(big.Rat).SetString(st.Size)
		jobs[k] = model.Job{Name: st.Name, Release: release, Weight: weight, Size: size, Databanks: st.Databanks}
	}
	// Stable by release, as NewInstance will sort them; IDs map to positions.
	order := make([]int, len(ids))
	for k := range order {
		order[k] = k
	}
	sort.SliceStable(order, func(a, b int) bool { return jobs[order[a]].Release.Cmp(jobs[order[b]].Release) < 0 })
	index := make(map[int]int, len(ids))
	sorted := make([]model.Job, len(ids))
	for pos, k := range order {
		index[ids[k]] = pos
		sorted[pos] = jobs[k]
	}
	inst, err := model.NewInstance(sorted, hotSharedFleet())
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	var resp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &resp)
	var sched schedule.Schedule
	if err := json.Unmarshal(resp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	for k := range sched.Pieces {
		pos, ok := index[sched.Pieces[k].Job]
		if !ok {
			t.Fatalf("merged schedule references job %d, not among the restored jobs", sched.Pieces[k].Job)
		}
		sched.Pieces[k].Job = pos
	}
	if err := sched.Validate(inst, schedule.Divisible, nil); err != nil {
		t.Fatalf("restored fleet's merged schedule invalid: %v", err)
	}
}

// keyPaths collects the JSON object keys of a decoded document as paths
// ("shards[].machines[].inverseSpeed").
func keyPaths(v any, prefix string, out map[string]bool) {
	switch v := v.(type) {
	case map[string]any:
		for k, c := range v {
			out[prefix+k] = true
			keyPaths(c, prefix+k+".", out)
		}
	case []any:
		for _, c := range v {
			keyPaths(c, prefix[:len(prefix)-1]+"[].", out)
		}
	}
}

// recordKeys collects, per record type, the key paths the records carry.
func recordKeys(t *testing.T, recs []wal.Record) map[string]map[string]bool {
	t.Helper()
	keys := make(map[string]map[string]bool)
	for _, rec := range recs {
		var doc any
		if err := json.Unmarshal(rec.Data, &doc); err != nil {
			t.Fatal(err)
		}
		if keys[rec.Type] == nil {
			keys[rec.Type] = make(map[string]bool)
		}
		keyPaths(doc, "", keys[rec.Type])
	}
	return keys
}

// TestWALWritesParentFormat is the other direction: what this build writes
// is what the base-format fixture's build wrote. From the fixture's snapshot
// alone the rebuilt fleet must snapshot to the very same document; re-running
// the suffix's script from there must log records that, type by type, carry
// exactly the JSON keys the fixture's records carry.
func TestWALWritesParentFormat(t *testing.T) {
	src := t.TempDir()
	copyDir(t, filepath.Join(baseFixture, "wal"), src)
	snapSeq, parentSnap, ok := wal.LoadSnapshot(src)
	if !ok {
		t.Fatal("fixture holds no valid snapshot")
	}
	log, recs, err := wal.Open(src, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	log.Close()
	wantKeys := recordKeys(t, recs[snapSeq:])

	// The directory as it stood when the parent took the snapshot: the log up
	// to the watermark, and the snapshot.
	dir := t.TempDir()
	prefix, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs[:snapSeq] {
		if _, err := prefix.Append(rec.Type, rec.Data); err != nil {
			t.Fatal(err)
		}
	}
	prefix.Close()
	if err := wal.WriteSnapshot(dir, snapSeq, parentSnap); err != nil {
		t.Fatal(err)
	}
	srv, vc := reopenServer(t, parentFixtureCfg(dir))
	defer srv.Close()
	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, ourSnap, _ := wal.LoadSnapshot(dir)
	var parentDoc, ourDoc any
	if err := json.Unmarshal(parentSnap, &parentDoc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(ourSnap, &ourDoc); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ourDoc, parentDoc) {
		t.Errorf("snapshot of the restored fleet:\n%s\nthe parent's snapshot of the same fleet:\n%s", ourSnap, parentSnap)
	}

	// The suffix's script, as gen_test.go.txt ran it after the snapshot.
	srv.Start()
	submit := func(req model.SubmitRequest, batched int) {
		t.Helper()
		if _, err := srv.Submit(&req); err != nil {
			t.Fatal(err)
		}
		waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= batched })
	}
	step := func(to int64) {
		vc.Advance(rat(to, 1))
		quiesce(t, srv, rat(to, 1))
	}
	submit(model.SubmitRequest{Name: "G", Size: "4", Weight: "2", Databanks: []string{"shared"},
		Deadline: "130", Tenant: "acme", SLAClass: "batch"}, 7)
	step(104)
	submit(model.SubmitRequest{Size: "5/2", Databanks: []string{"shared"}}, 8)
	step(105)
	if _, err := srv.Reshard(&model.Platform{Machines: hotSharedFleet(), Shards: 1}); err != nil {
		t.Fatal(err)
	}
	quiesce(t, srv, rat(105, 1))
	submit(model.SubmitRequest{Name: "H", Size: "3", Databanks: []string{"hot"}, Deadline: "160", Tenant: "initech"}, 9)
	step(107)
	srv.Close()

	_, ourRecs, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Select by seq, not by index: the snapshots this fleet took truncated
	// the log behind them.
	var ourSuffix []wal.Record
	for _, rec := range ourRecs {
		if rec.Seq > snapSeq {
			ourSuffix = append(ourSuffix, rec)
		}
	}
	gotKeys := recordKeys(t, ourSuffix)
	for typ, w := range wantKeys {
		if !reflect.DeepEqual(gotKeys[typ], w) {
			t.Errorf("%s records carry keys %v, the parent's carry %v", typ, sortedKeys(gotKeys[typ]), sortedKeys(w))
		}
	}
	for _, typ := range []string{walTypeSubmit, walTypeAdopt, walTypeTopo} {
		if len(wantKeys[typ]) == 0 {
			t.Errorf("the fixture's suffix holds no %s record", typ)
		}
	}
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestWALRestoreRejectsDamagedSnapshot feeds restore snapshot documents that
// are intact on disk (CRC-valid) but structurally wrong. Each must come back
// as a restore error from New — not as a panic on the first read: a fleet
// that does restore is read through Stats and TenantStats before the test
// fails, so a hole of that kind shows up here as the panic it would be.
func TestWALRestoreRejectsDamagedSnapshot(t *testing.T) {
	_, payload, ok := wal.LoadSnapshot(filepath.Join(parentFixture, "wal"))
	if !ok {
		t.Fatal("fixture holds no valid snapshot")
	}
	for _, tc := range []struct {
		name   string
		damage func(doc map[string]any)
	}{
		{"generation stride 0", func(doc map[string]any) {
			doc["gens"].([]any)[0].(map[string]any)["stride"] = 0
		}},
		{"generation stride beyond its shards", func(doc map[string]any) {
			doc["gens"].([]any)[0].(map[string]any)["stride"] = 3
		}},
		{"generation without shards", func(doc map[string]any) {
			gen := doc["gens"].([]any)[0].(map[string]any)
			gen["stride"], gen["shards"] = 0, []any{}
		}},
		{"machineIdx shorter than machines", func(doc map[string]any) {
			sh := doc["shards"].([]any)[0].(map[string]any)
			sh["machineIdx"] = sh["machineIdx"].([]any)[:1]
		}},
		{"machine without a speed", func(doc map[string]any) {
			sh := doc["shards"].([]any)[1].(map[string]any)
			delete(sh["machines"].([]any)[0].(map[string]any), "inverseSpeed")
		}},
		{"record without a size", func(doc map[string]any) {
			sh := doc["shards"].([]any)[0].(map[string]any)
			delete(sh["records"].([]any)[1].(map[string]any), "size")
		}},
		{"completed jobs without a max weighted flow", func(doc map[string]any) {
			delete(doc["shards"].([]any)[0].(map[string]any), "maxWF")
		}},
		{"tenant completions without a max weighted flow", func(doc map[string]any) {
			sh := doc["shards"].([]any)[0].(map[string]any)
			delete(sh["tenants"].(map[string]any)["acme"].(map[string]any), "maxWF")
		}},
		{"negative doneCount", func(doc map[string]any) {
			doc["shards"].([]any)[0].(map[string]any)["doneCount"] = -1
		}},
		{"flow histogram miscounting its slots", func(doc map[string]any) {
			doc["shards"].([]any)[1].(map[string]any)["flow"].(map[string]any)["Count"] = 5
		}},
		{"migratedIds naming an unknown record", func(doc map[string]any) {
			doc["shards"].([]any)[0].(map[string]any)["migratedIds"] = []any{99}
		}},
		{"migratedIds naming a record that did not migrate", func(doc map[string]any) {
			doc["shards"].([]any)[0].(map[string]any)["migratedIds"] = []any{0}
		}},
		{"first generation based above 0", func(doc map[string]any) {
			doc["gens"].([]any)[0].(map[string]any)["base"] = 7
		}},
		{"first generation based below 0", func(doc map[string]any) {
			doc["gens"].([]any)[0].(map[string]any)["base"] = -2
		}},
		{"negative recordBase", func(doc map[string]any) {
			doc["shards"].([]any)[0].(map[string]any)["recordBase"] = -1
		}},
		{"recordBase above the first record's ID", func(doc map[string]any) {
			doc["shards"].([]any)[0].(map[string]any)["recordBase"] = 5
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var doc map[string]any
			if err := json.Unmarshal(payload, &doc); err != nil {
				t.Fatal(err)
			}
			tc.damage(doc)
			damaged, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			if err := wal.WriteSnapshot(dir, 0, damaged); err != nil {
				t.Fatal(err)
			}
			cfg := parentFixtureCfg(dir)
			cfg.Clock = NewVirtualClock()
			srv, err := New(cfg)
			if err == nil {
				defer srv.Close()
				srv.Stats()
				srv.TenantStats()
				t.Fatal("New restored the damaged snapshot")
			}
			if want := "server: restore: "; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q, want the %q prefix", err, want)
			}
		})
	}
}

// The freed-format fixture (testdata/freedformat, written by the last build
// that released retired shards into tombstones — see gen_test.go.txt beside
// it) is a WAL directory abandoned mid-run whose snapshot holds two freed
// tombstones: the retired islands of an online-mwf-lazy fleet, their history
// compacted away, written without records, engine or plan and with their
// counters frozen. A restore turns each into an ordinary empty retired shard.
const freedFixture = "testdata/freedformat"

// TestWALRestoresFreedTombstones restores the fixture and requires what the
// writing build's live fleet answered at the crash point: per shard the freed
// flag and the counters a tombstone froze, every job read — compacted IDs
// not-found — and a fleet that keeps scheduling.
func TestWALRestoresFreedTombstones(t *testing.T) {
	var want struct {
		Jobs    map[string]model.JobStatus `json:"jobs"`
		Unknown []int                      `json:"unknown"`
		Stats   model.StatsResponse        `json:"stats"`
	}
	data, err := os.ReadFile(filepath.Join(freedFixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join(freedFixture, "wal"), dir)
	srv, vc := reopenServer(t, Config{Machines: islandFleet(), Policy: "online-mwf-lazy", Retention: rat(5, 1), DisableSteal: true, WALDir: dir})
	defer srv.Close()

	type shardView struct {
		Shard                                                        int
		Freed                                                        bool
		JobsAccepted, JobsCompleted, Events, LPSolves, PlanCacheHits int
		Solver                                                       stats.SolverTally
	}
	view := func(st model.StatsResponse) (out []shardView) {
		for _, ss := range st.Shards {
			out = append(out, shardView{ss.Shard, ss.Freed, ss.JobsAccepted, ss.JobsCompleted, ss.Events, ss.LPSolves, ss.PlanCacheHits, ss.Solver})
		}
		return out
	}
	st := srv.Stats()
	if got, w := view(st), view(want.Stats); !reflect.DeepEqual(got, w) {
		t.Errorf("restored shards:\n%+v\nthe writing build's fleet:\n%+v", got, w)
	}
	if st.JobsAccepted != want.Stats.JobsAccepted || st.JobsCompleted != want.Stats.JobsCompleted ||
		st.MaxWeightedFlow != want.Stats.MaxWeightedFlow || !reflect.DeepEqual(st.Solver, want.Stats.Solver) {
		t.Errorf("restored aggregates %d accepted, %d completed, max weighted flow %s, solver %+v; want %d, %d, %s, %+v",
			st.JobsAccepted, st.JobsCompleted, st.MaxWeightedFlow, st.Solver,
			want.Stats.JobsAccepted, want.Stats.JobsCompleted, want.Stats.MaxWeightedFlow, want.Stats.Solver)
	}
	for key, w := range want.Jobs {
		id, _ := strconv.Atoi(key)
		if got, known := srv.jobStatus(id); !known || !reflect.DeepEqual(got, w) {
			t.Errorf("job %d restored as %+v (known %v), the writing build's fleet had %+v", id, got, known, w)
		}
	}
	for _, id := range want.Unknown {
		if got, known := srv.jobStatus(id); known {
			t.Errorf("job %d resolves to %+v after restore; it was compacted or never issued", id, got)
		}
	}
	for _, sh := range srv.allShards() {
		sh.mu.Lock()
		if sh.retired && (sh.records.recs != nil || sh.eng.Live() != 0 || len(sh.eng.Pieces()) != 0 || len(sh.mwf.ExportPlanState().Plan) != 0) {
			t.Errorf("restored tombstone %d holds %d record slots, %d live jobs, %d pieces",
				sh.idx, len(sh.records.recs), sh.eng.Live(), len(sh.eng.Pieces()))
		}
		sh.mu.Unlock()
	}

	// The restored fleet is live: what was running finishes, and a new job
	// takes the next ID of the newest generation.
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == want.Stats.JobsAccepted })
	resp, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"bankA"}})
	if err != nil {
		t.Fatal(err)
	}
	if _, taken := want.Jobs[strconv.Itoa(resp.ID)]; taken {
		t.Fatalf("new job got ID %d, already issued before the crash", resp.ID)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == want.Stats.JobsAccepted+1 })
	if got, _ := srv.jobStatus(resp.ID); got.State != StateDone {
		t.Errorf("job submitted after the restore = %+v, want done", got)
	}
}
