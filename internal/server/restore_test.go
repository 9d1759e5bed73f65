package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"divflow/internal/model"
	"divflow/internal/wal"
)

// parentSuffix returns the parent-format fixture's snapshot and its log's
// records: seq 1 to 45, of which the snapshot covers the first 22.
func parentSuffix(t testing.TB) (snapSeq uint64, snap []byte, recs []wal.Record) {
	t.Helper()
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
	return snapSeq, snap, recs
}

// restoreLog writes recs as a fresh log behind the fixture's snapshot and
// restores a fleet from it. A fleet that does restore is read through
// /v1/schedule, Stats, TenantStats and jobStatus and closed before the error
// (nil) is returned, so a restore that should have failed shows up as the
// panic it leads to.
func restoreLog(t testing.TB, snapSeq uint64, snap []byte, recs []wal.Record) error {
	t.Helper()
	dir := t.TempDir()
	out, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if _, err := out.Append(rec.Type, rec.Data); err != nil {
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
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodGet, "/v1/schedule", nil))
	srv.Stats()
	srv.TenantStats()
	for id := 0; id < 20; id++ {
		srv.jobStatus(id)
	}
	return nil
}

// TestWALRestoreRejectsDamagedRecords is TestWALRestoreRejectsDamagedTopology
// for the shard records: the fixture's log is rewritten with one field of one
// record changed (or a record appended), intact on disk, and each case must
// come back from New as an error naming the record's seq and type. The
// complete and compact cases are held to what the live path wrote them from:
// the job the engine completed at the record's time, and the horizon
// retention puts behind the record's now. The log is the one outside source
// of an adoption, so a malformed migrated job is refused here
// (MigratedJob.Check).
func TestWALRestoreRejectsDamagedRecords(t *testing.T) {
	snapSeq, snap, recs := parentSuffix(t)
	set := func(field string, v any) func(map[string]any) {
		return func(r map[string]any) { r[field] = v }
	}
	// setJob edits the first job of an adopt record's message.
	setJob := func(field string, v any) func(map[string]any) {
		return func(r map[string]any) { r["jobs"].([]any)[0].(map[string]any)[field] = v }
	}
	for _, tc := range []struct {
		name string
		seq  uint64                 // the record damaged; 0 when one is only appended
		edit func(r map[string]any) // applied to record seq's payload
		// appended, when set, is a record written behind the log.
		appended *wal.Record
		want     string
	}{
		{"submit out of local order", 24, set("local", 4), nil,
			"record 24 (submit): shard 1 expects local 3, record says 4"},
		{"submit without its release", 24, func(r map[string]any) { delete(r, "release") }, nil,
			"record 24 (submit): submit 7 missing its release"},
		{"submit released after its admit", 24, set("release", "1000000"), nil,
			"record 25 (admit): shard 1 record 3 released at 1000000, after the admit at 103"},
		{"submit to databanks no machine hosts", 24, set("databanks", []string{"cold"}), nil,
			"record 24 (submit): submit 7: no machine of shard 1 hosts [cold]"},
		{"admit of another pending set", 25, set("locals", []int{2}), nil,
			"record 25 (admit): shard 1 pending[0] = 3, admit record says 2"},
		{"admit of more than is pending", 25, set("locals", []int{3, 4}), nil,
			"record 25 (admit): shard 1 has 1 pending, admit record lists 2"},
		{"extract of an unknown record", 30, set("locals", []int{3, 9}), nil,
			"record 30 (extract): shard 0 has no record 9"},
		{"adopt without its message", 31, func(r map[string]any) {
			for k := range r {
				if k != "shard" {
					delete(r, k)
				}
			}
		}, nil, "record 31 (adopt): adopt record carries no adoption message"},
		{"adopt of a zero-size job", 31, setJob("size", "0"), nil,
			"record 31 (adopt): job 6: shardlink: migrated job 6 needs size > 0"},
		{"adopt of more than the whole job", 31, setJob("remaining", "3/2"), nil,
			"record 31 (adopt): job 6: shardlink: migrated job 6 needs remaining in (0, 1], got 3/2"},
		{"record of the retired migrate type", 0, nil,
			&wal.Record{Type: "migrate", Data: json.RawMessage(`{"shard":0,"locals":[0]}`)},
			`record 46 (migrate): unknown record type "migrate"`},
		{"complete of another local", 42, set("local", 1), nil,
			"record 42 (complete): shard 2 did not complete local 1 (job 4) at 106"},
		{"complete of another job", 42, set("gid", 5), nil,
			"record 42 (complete): shard 2 did not complete local 2 (job 5) at 106"},
		{"complete at another time", 42, set("at", "211/2"), nil,
			"record 42 (complete): shard 2 did not complete local 2 (job 4) at 211/2"},
		{"compact off its now", 45, set("horizon", "56"), nil,
			"record 45 (compact): shard 2 horizon 56, want now 107 less retention 50 = 57"},
		{"admit dated past the records after it", 41, set("at", "1000000"), nil,
			"record 42 (complete): shard 2 record dated 106 is behind its engine at 1000000"},
		{"compact at the last horizon", 0, nil,
			&wal.Record{Type: walTypeCompact, Data: json.RawMessage(`{"shard":2,"now":"107","horizon":"57"}`)},
			"record 46 (compact): shard 2 horizon 57 is not above the last compaction 57"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			damaged := append([]wal.Record(nil), recs...)
			found := tc.seq == 0
			for i := range damaged {
				if damaged[i].Seq != tc.seq {
					continue
				}
				var r map[string]any
				if err := json.Unmarshal(damaged[i].Data, &r); err != nil {
					t.Fatal(err)
				}
				tc.edit(r)
				data, err := json.Marshal(r)
				if err != nil {
					t.Fatal(err)
				}
				damaged[i].Data, found = data, true
			}
			if !found {
				t.Fatalf("the fixture holds no record %d", tc.seq)
			}
			if tc.appended != nil {
				damaged = append(damaged, *tc.appended)
			}
			err := restoreLog(t, snapSeq, snap, damaged)
			if err == nil {
				t.Fatal("New restored the damaged log")
			}
			if want := "server: replay: " + tc.want; !strings.HasPrefix(err.Error(), want) {
				t.Errorf("error %q, want the %q prefix", err, want)
			}
		})
	}
}

// FuzzWALReplay replaces one suffix record's payload of the parent-format
// fixture and restores: New must refuse the log or hand back a fleet whose
// reads do not panic. The seed corpus is the fixture's own records; no loop
// starts.
func FuzzWALReplay(f *testing.F) {
	snapSeq, snap, recs := parentSuffix(f)
	first := 0 // index of the first suffix record
	for first < len(recs) && recs[first].Seq <= snapSeq {
		first++
	}
	suffix := uint(len(recs) - first)
	for i := range suffix {
		f.Add(i, []byte(recs[first+int(i)].Data))
	}
	f.Fuzz(func(t *testing.T, i uint, payload []byte) {
		if !json.Valid(payload) {
			t.Skip("the log holds only valid JSON payloads")
		}
		damaged := append([]wal.Record(nil), recs...)
		damaged[first+int(i%suffix)].Data = payload
		restoreLog(t, snapSeq, snap, damaged)
	})
}

// crashedDir runs three jobs to completion under policy on testFleet, then
// copies the WAL directory as a crash would leave it (the server is closed
// after the copy, so its final snapshot lands elsewhere), and returns the copy
// with every job's status.
func crashedDir(t *testing.T, policy string) (string, map[int]model.JobStatus) {
	t.Helper()
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), WALDir: t.TempDir(), Policy: policy, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var ids []int
	for _, size := range []string{"6", "1", "3"} {
		resp, err := srv.Submit(&model.SubmitRequest{Size: size, Databanks: []string{"swissprot"}})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, resp.ID)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == len(ids) })
	quiesce(t, srv, vc.Now())
	dir := t.TempDir()
	copyDir(t, srv.dur.dir, dir)
	jobs := make(map[int]model.JobStatus)
	for _, id := range ids {
		jobs[id], _ = srv.jobStatus(id)
	}
	return dir, jobs
}

// TestWALRestoresLogOnlyDirectoryUnderItsPolicy restores a directory holding a
// log and no snapshot (a build before the watermark-0 snapshot left such
// directories), which names no policy of its own: under the policy that wrote
// it the log replays to the jobs it left; under any other, the first
// completion the engine does not reproduce refuses it.
func TestWALRestoresLogOnlyDirectoryUnderItsPolicy(t *testing.T) {
	dir, want := crashedDir(t, "srpt")
	snaps, _ := filepath.Glob(filepath.Join(dir, "snap-*.json"))
	for _, f := range snaps {
		if err := os.Remove(f); err != nil {
			t.Fatal(err)
		}
	}
	for _, policy := range []string{"mct", "online-mwf-lazy"} {
		other := t.TempDir()
		copyDir(t, dir, other)
		_, err := New(Config{Machines: testFleet(), WALDir: other, Policy: policy, Clock: NewVirtualClock()})
		if prefix := "server: replay: record 5 (complete): shard 0 did not complete local 1 (job 1) at 1/2"; err == nil || !strings.HasPrefix(err.Error(), prefix) {
			t.Errorf("a log written under srpt restored under %s: %v, want the %q prefix", policy, err, prefix)
		}
	}
	srv, _ := reopenServer(t, Config{Machines: testFleet(), WALDir: dir, Policy: "srpt"})
	defer srv.Close()
	for id, w := range want {
		if got, known := srv.jobStatus(id); !known || !reflect.DeepEqual(got, w) {
			t.Errorf("job %d restored as %+v (known %v), the crashed fleet had %+v", id, got, known, w)
		}
	}
}

// TestWALRestoresRepeatedMachineNames restores a snapshot whose fleet names two
// machines alike, which New and Reshard now refuse: a restored document is
// acknowledged state (checkMachines), so it restores as it stands and keeps
// scheduling on both machines.
func TestWALRestoresRepeatedMachineNames(t *testing.T) {
	dir, want := crashedDir(t, "srpt")
	seq, payload, ok := wal.LoadSnapshot(dir)
	if !ok {
		t.Fatal("no snapshot to rewrite")
	}
	var doc snapDoc
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	for i := range doc.Shards {
		for j := range doc.Shards[i].Machines {
			doc.Shards[i].Machines[j].Name = "twin"
		}
	}
	if payload, err := json.Marshal(&doc); err != nil {
		t.Fatal(err)
	} else if err := wal.WriteSnapshot(dir, seq, payload); err != nil {
		t.Fatal(err)
	}
	srv, vc := reopenServer(t, Config{Machines: testFleet(), WALDir: dir, Policy: "srpt"})
	defer srv.Close()
	if machines := srv.Stats().Shards[0].Machines; !reflect.DeepEqual(machines, []string{"twin", "twin"}) {
		t.Fatalf("restored shard machines %v, want the document's [twin twin]", machines)
	}
	for id, w := range want {
		if got, known := srv.jobStatus(id); !known || !reflect.DeepEqual(got, w) {
			t.Errorf("job %d restored as %+v (known %v), the crashed fleet had %+v", id, got, known, w)
		}
	}
	srv.Start()
	if _, err := srv.Submit(&model.SubmitRequest{Size: "3", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == len(want)+1 })
	validateServer(t, srv)
}
