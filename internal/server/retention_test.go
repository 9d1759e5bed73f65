package server

import (
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/wal"
)

// TestRetentionCompaction drives a retention-bounded server through many
// waves of traffic on a virtual clock: executed pieces and job records from
// before the retention window must be compacted away (bounding memory),
// while the all-time aggregates keep reporting the compacted jobs' flows.
func TestRetentionCompaction(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{
		Machines:  testFleet(),
		Clock:     vc,
		Retention: big.NewRat(10, 1),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	// Each wave: one size-4 job shared by both machines (rate 3), flow 4/3,
	// then 20 virtual seconds of quiet — far past the 10s retention, so by
	// the time the next wave arrives the previous one is compactable.
	const waves = 8
	for w := 0; w < waves; w++ {
		postJob(t, ts.URL, model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
		drive(t, vc, func() bool { return srv.Stats().JobsCompleted == w+1 })
		vc.Advance(big.NewRat(int64((w+1)*20), 1))
	}
	// One trailing submission wakes the loop at t = 8*20 so the final
	// compaction pass runs, then let it finish.
	postJob(t, ts.URL, model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == waves+1 })

	var st model.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.JobsCompleted != waves+1 {
		t.Fatalf("jobsCompleted = %d, want %d", st.JobsCompleted, waves+1)
	}
	if st.CompactedJobs < waves-1 {
		t.Errorf("compactedJobs = %d, want >= %d", st.CompactedJobs, waves-1)
	}
	// Aggregates survive compaction: every wave contributed flow 4/3.
	if st.MaxWeightedFlow != "4/3" || st.MaxStretch != "1/3" {
		t.Errorf("maxWeightedFlow=%s maxStretch=%s, want 4/3 and 1/3", st.MaxWeightedFlow, st.MaxStretch)
	}
	if want := 4.0 / 3.0; st.MeanFlow < want-1e-9 || st.MeanFlow > want+1e-9 {
		t.Errorf("meanFlow = %v, want %v", st.MeanFlow, want)
	}

	// Compacted jobs are gone from the per-job API...
	resp, err := http.Get(ts.URL + "/v1/jobs/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET compacted job = %d, want 404", resp.StatusCode)
	}
	// ...and their pieces from the schedule: memory is bounded by the
	// retention window, not by service lifetime.
	var schedResp model.ScheduleResponse
	getJSON(t, ts.URL+"/v1/schedule", &schedResp)
	var sched schedule.Schedule
	if err := json.Unmarshal(schedResp.Schedule, &sched); err != nil {
		t.Fatal(err)
	}
	if len(sched.Pieces) > 2*len(testFleet()) {
		t.Errorf("%d pieces retained, want at most the last wave's", len(sched.Pieces))
	}
	horizon := new(big.Rat).Sub(vc.Now(), big.NewRat(10, 1))
	for _, pc := range sched.Pieces {
		if pc.End.Cmp(horizon) <= 0 {
			t.Errorf("piece ending at %v predates the retention horizon %v", pc.End, horizon)
		}
	}

	sh := srv.active()[0]
	sh.mu.Lock()
	retained := 0
	for _, rec := range sh.records.recs {
		if rec != nil {
			retained++
		}
	}
	sh.mu.Unlock()
	if retained > 2 {
		t.Errorf("%d job records retained, want memory bounded by the retention window", retained)
	}
}

// TestRetentionKeepsRecentWork: jobs inside the retention window must stay
// queryable even while older ones are being compacted.
func TestRetentionKeepsRecentWork(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Retention: big.NewRat(1000, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	id := postJob(t, ts.URL, model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}})
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 1 })

	var st model.JobStatus
	getJSON(t, fmt.Sprintf("%s/v1/jobs/%d", ts.URL, id.ID), &st)
	if st.State != StateDone || st.Flow != "4/3" {
		t.Errorf("recent job: state=%s flow=%s, want done 4/3", st.State, st.Flow)
	}
	if srv.Stats().CompactedJobs != 0 {
		t.Errorf("compactedJobs = %d inside the window, want 0", srv.Stats().CompactedJobs)
	}
}

// TestRetentionBoundsRecordIndex: retention bounds what a live shard holds,
// not only what it serves, and what its snapshot entry writes. After many
// times more jobs than the window retains, the shard's record index and the
// written entry hold just the retained records: the entry states the index's
// base instead of one null per compacted local ID.
func TestRetentionBoundsRecordIndex(t *testing.T) {
	dir := t.TempDir()
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, Retention: big.NewRat(10, 1), WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()
	// One size-4 job every 5 virtual seconds, each done in 4/3: a 10s window
	// retains the last three at most.
	const jobs, retained = 120, 3
	for k := 0; k < jobs; k++ {
		if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
			t.Fatal(err)
		}
		drive(t, vc, func() bool { return srv.Stats().JobsCompleted == k+1 })
		vc.Advance(big.NewRat(int64(k+1)*5, 1))
	}

	sh := srv.active()[0]
	sh.mu.Lock()
	slots, next := len(sh.records.recs), sh.records.next()
	sh.mu.Unlock()
	if next != jobs {
		t.Fatalf("the shard issued %d local IDs, want %d", next, jobs)
	}
	if slots > retained {
		t.Errorf("the index holds %d slots after %d jobs, want at most the %d retained", slots, jobs, retained)
	}

	if err := srv.Snapshot(); err != nil {
		t.Fatal(err)
	}
	_, payload, ok := wal.LoadSnapshot(dir)
	if !ok {
		t.Fatal("no valid snapshot after Snapshot()")
	}
	var doc struct {
		Shards []struct {
			RecordBase int          `json:"recordBase"`
			Records    []*jobRecord `json:"records"`
		} `json:"shards"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Shards) != 1 {
		t.Fatalf("the snapshot holds %d shard entries, want 1", len(doc.Shards))
	}
	entry := doc.Shards[0]
	if n := len(entry.Records); n == 0 || n > retained {
		t.Fatalf("the written entry lists %d records after %d jobs, want 1 to %d", n, jobs, retained)
	}
	for i, rec := range entry.Records {
		if rec == nil {
			t.Errorf("the written entry's slot %d is null; it holds only the retained records", i)
		}
	}
	if first := entry.Records[0]; first != nil && first.ID != entry.RecordBase {
		t.Errorf("the written entry's first record has local ID %d, its recordBase is %d", first.ID, entry.RecordBase)
	}
	if end := entry.RecordBase + len(entry.Records); end != jobs {
		t.Errorf("recordBase %d + %d records = %d, want the %d local IDs issued", entry.RecordBase, len(entry.Records), end, jobs)
	}
}
