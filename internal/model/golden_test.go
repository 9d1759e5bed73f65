package model

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"divflow/internal/obs"
	"divflow/internal/stats"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/wire golden fixtures")

// goldenWireValues seeds one fully-populated instance of every wire type the
// HTTP API marshals to clients. Every field carries a distinctive non-zero
// value, so a renamed JSON tag, a dropped field, or a changed omitempty shows
// up as a fixture diff — the committed testdata/wire/*.json files are the
// wire-compatibility contract.
func goldenWireValues() map[string]any {
	yes := true
	shard := 2
	cert := &AdmissionCertificate{
		Mode:         "strict",
		Feasible:     false,
		Deadline:     "15/2",
		CounterOffer: "31/3",
		ResidualJobs: 4,
	}
	return map[string]any{
		"submit_request": SubmitRequest{
			Name:      "blast",
			Weight:    "3/2",
			Size:      "40",
			Databanks: []string{"swissprot", "pdb"},
			Deadline:  "15/2",
			Tenant:    "acme",
			SLAClass:  SLAPremium,
		},
		"batch_submit_request": BatchSubmitRequest{
			Jobs: []SubmitRequest{
				{Name: "a", Size: "7"},
				{Name: "b", Size: "11/2", Tenant: "acme", SLAClass: SLABatch},
			},
		},
		"batch_submit_response": BatchSubmitResponse{
			Results: []BatchSubmitResult{
				{ID: 12, State: "queued", Warning: "shard 1 degraded", Admission: cert},
				{Error: &WireError{Code: ErrCodeTenantOverQuota, Message: "tenant over share", RetryAfter: 1}},
			},
		},
		"admission_certificate": *cert,
		"error_response": ErrorResponse{Error: WireError{
			Code:       ErrCodeShardStalled,
			Message:    "shard 2 unreachable: dial tcp: refused",
			Shard:      &shard,
			RetryAfter: 1,
			Admission:  cert,
		}},
		"submit_response": SubmitResponse{
			ID:        12,
			State:     "queued",
			Warning:   "shard 1 degraded",
			Admission: cert,
		},
		"job_status": JobStatus{
			ID:           12,
			Name:         "blast",
			State:        "completed",
			Weight:       "3/2",
			Size:         "40",
			Databanks:    []string{"swissprot"},
			Release:      "5",
			Remaining:    "0",
			CompletedAt:  "7",
			Flow:         "2",
			WeightedFlow: "3",
			Stretch:      "1/20",
			Deadline:     "15/2",
			Tenant:       "acme",
			SLAClass:     SLAStandard,
			DeadlineMet:  &yes,
		},
		"tenants_response": TenantsResponse{Tenants: []TenantStats{{
			Tenant:          "acme",
			Weight:          "3",
			Submitted:       9,
			Completed:       7,
			Shed:            2,
			Backlog:         "11/2",
			MaxWeightedFlow: "21/4",
			MeanFlow:        1.5,
			P95WeightedFlow: 5.25,
			ByClass:         map[string]int{SLAStandard: 8, SLABatch: 1},
		}}},
		"stats_response": StatsResponse{
			Policy:          "mwf",
			Now:             "17/2",
			JobsAccepted:    9,
			JobsLive:        1,
			JobsCompleted:   7,
			Events:          30,
			LPSolves:        12,
			PlanCacheHits:   18,
			Solver:          stats.SolverTally{FloatVerified: 8, Crossovers: 2, Fallbacks: 1, WarmHits: 1, WarmMisses: 3},
			ArrivalBatches:  5,
			BatchedArrivals: 9,
			LargestBatch:    3,
			MaxWeightedFlow: "21/4",
			MaxStretch:      "7/5",
			MeanFlow:        1.5,
			P95Flow:         5.25,
			CompactedJobs:   2,
			StolenJobs:      1,
			Migrations:      1,
			Stalled:         true,
			LastError:       "solve: infeasible basis",
			ShardCount:      2,
			Generation:      3,
			ReshardEvents:   1,
			ReshardedJobs:   4,
			Shards: []ShardStats{{
				Shard:           0,
				Generation:      3,
				Machines:        []string{"cluster-a", "cluster-b"},
				Now:             "17/2",
				JobsAccepted:    9,
				JobsQueued:      1,
				JobsLive:        1,
				JobsCompleted:   7,
				Events:          30,
				LPSolves:        12,
				PlanCacheHits:   18,
				Solver:          stats.SolverTally{FloatVerified: 8, Crossovers: 2, Fallbacks: 1, WarmHits: 1, WarmMisses: 3},
				ArrivalBatches:  5,
				BatchedArrivals: 9,
				LargestBatch:    3,
				CompactedJobs:   2,
				StolenJobs:      1,
				Migrations:      1,
				ReshardedIn:     4,
				ReshardedOut:    2,
				Retired:         true,
				Freed:           true,
				Backlog:         "11/2",
				Stalled:         true,
				Panics:          1,
				LastError:       "solve: infeasible basis",
			}},
			WAL: &WALStats{Appends: 40, Snapshots: 2, Replayed: 13, Error: "write wal: disk full"},
		},
		"reshard_response": ReshardResponse{
			Generation:    3,
			ShardCount:    2,
			Noop:          false,
			MigratedJobs:  4,
			SpawnedShards: []int{2, 3},
			RetiredShards: []int{0},
			KeptShards:    []int{1},
			Warning:       "job 12 placed on stalled shard 2",
		},
		"schedule_response": ScheduleResponse{
			Now:      "17/2",
			Makespan: "21/2",
			Schedule: json.RawMessage(`[{"job":12,"machine":"cluster-a","start":"5","end":"7","fraction":"1/3"}]`),
		},
		"health_response": HealthResponse{
			Status:        "stalled",
			StalledShards: []int{2},
			Errors:        []string{"shard 2: solve: infeasible basis"},
			WALError:      "write wal: disk full",
		},
		"events_response": EventsResponse{
			Events: []obs.Event{{
				Seq:    41,
				Wall:   1700000000,
				Type:   "reject",
				Shard:  2,
				Gen:    3,
				GID:    12,
				VTime:  "17/2",
				Detail: "deadline infeasible",
			}},
			Next:    42,
			Dropped: 5,
		},
	}
}

// TestWireGolden pins the JSON wire format of every API type against the
// committed fixtures. Run `go test ./internal/model -run TestWireGolden
// -update` after an intentional wire change to regenerate them.
func TestWireGolden(t *testing.T) {
	dir := filepath.Join("testdata", "wire")
	for name, v := range goldenWireValues() {
		got, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			t.Fatalf("%s: marshal: %v", name, err)
		}
		got = append(got, '\n')
		path := filepath.Join(dir, name+".json")
		if *updateGolden {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, got, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("%s: %v (run with -update to regenerate)", name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: wire format drifted from %s\n got: %s\nwant: %s\n(run with -update if the change is intentional)",
				name, path, got, want)
		}
	}
	// Any fixture without a seed above is a type this test no longer covers —
	// fail loudly rather than letting the contract rot.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	seeded := goldenWireValues()
	for _, e := range entries {
		name := e.Name()
		if filepath.Ext(name) != ".json" {
			continue
		}
		if _, ok := seeded[name[:len(name)-len(".json")]]; !ok {
			t.Errorf("stale fixture %s: no seeded wire value marshals it", name)
		}
	}
}
