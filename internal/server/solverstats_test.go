package server

import (
	"net/http/httptest"
	"testing"

	"divflow/internal/model"
	"divflow/internal/workload"
)

// TestSolverCountersOverHTTP: GET /v1/stats must break the exact LP solves
// down by hybrid-engine path (float-verified vs exact fallback; the
// crossover count stays in the format and reads 0) and report the hand-off:
// solves settled from the basis the search's own probe ended on. A search probes only when the optimum lies
// above the range of its single-job floor, so the jobs get stretch weights
// and the second wave arrives while the first is still running: residuals
// with distinct weights and distinct waiting times have milestones to cross.
func TestSolverCountersOverHTTP(t *testing.T) {
	cfg := workload.Default()
	cfg.Jobs = 10
	cfg.Machines = 2
	cfg.Databanks = 2
	cfg.Seed = 21
	inst := workload.MustGenerate(cfg)
	inst.WeightsForStretch()

	vc := NewVirtualClock()
	srv, err := New(Config{Machines: inst.Machines, Policy: "online-mwf", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two waves so re-solves see both arrivals and completion-perturbed
	// residual workloads.
	reqs := submitRequests(inst)
	for _, req := range reqs[:5] {
		postJob(t, ts.URL, req)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	for _, req := range reqs[5:] {
		postJob(t, ts.URL, req)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == len(reqs) })

	var st model.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	if st.Stalled || st.LastError != "" {
		t.Fatalf("service unhealthy: stalled=%v err=%q", st.Stalled, st.LastError)
	}
	tally := st.Solver
	if tally.Total() == 0 {
		t.Fatal("solver tally empty: hybrid accounting not wired to /v1/stats")
	}
	// Every policy-level solve runs >= 1 range LP, so the tally must cover
	// at least the reported LP solves, split across the recorded paths.
	if tally.Total() < st.LPSolves {
		t.Errorf("solver tally total %d < lpSolves %d", tally.Total(), st.LPSolves)
	}
	if got := tally.FloatVerified + tally.Crossovers + tally.Fallbacks + tally.WarmHits; got != tally.Total() {
		t.Errorf("tally inconsistent: %+v", tally)
	}
	if tally.Crossovers != 0 {
		t.Errorf("the engine has no crossover path, yet %d solves counted as crossovers", tally.Crossovers)
	}
	if tally.FloatVerified+tally.WarmHits == 0 {
		t.Errorf("no solve settled by verifying a float basis: the hybrid fast path never fired (%+v)", tally)
	}
	if tally.WarmHits == 0 {
		t.Errorf("no solve of %d settled from its search's own probe (%+v)", st.LPSolves, tally)
	}
	validateService(t, ts.URL, inst.Machines, len(reqs))
}
