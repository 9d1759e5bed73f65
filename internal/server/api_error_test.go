package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"divflow/internal/faults"
	"divflow/internal/model"
)

// apiCall issues one request against the test server and returns the status,
// headers, and decoded error envelope (zero-valued for 2xx answers).
func apiCall(t *testing.T, ts *httptest.Server, method, path, body string) (int, http.Header, model.ErrorResponse) {
	t.Helper()
	var rdr io.Reader
	if body != "" {
		rdr = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, ts.URL+path, rdr)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var env model.ErrorResponse
	if resp.StatusCode >= 400 {
		if err := json.Unmarshal(raw, &env); err != nil {
			t.Fatalf("%s %s: non-2xx body is not the error envelope: %v\n%s", method, path, err, raw)
		}
		if env.Error.Code == "" {
			t.Fatalf("%s %s: error envelope has no code: %s", method, path, raw)
		}
	}
	return resp.StatusCode, resp.Header, env
}

// TestErrorEnvelopeTable pins the HTTP status and typed error code of every
// error path reachable on a healthy fleet: the versioned envelope
// {"error":{"code","message",...}} is the v1 error contract.
func TestErrorEnvelopeTable(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	cases := []struct {
		name       string
		method     string
		path       string
		body       string
		wantStatus int
		wantCode   string
	}{
		{"submit malformed JSON", "POST", "/v1/jobs", `{`, 400, model.ErrCodeInvalidArgument},
		{"submit zero size", "POST", "/v1/jobs", `{"size":"0"}`, 422, model.ErrCodeInvalidArgument},
		{"submit malformed rational", "POST", "/v1/jobs", `{"size":"fast"}`, 422, model.ErrCodeInvalidArgument},
		{"submit unknown databank", "POST", "/v1/jobs", `{"size":"1","databanks":["nosuch"]}`, 422, model.ErrCodeInvalidArgument},
		{"submit unknown slaClass", "POST", "/v1/jobs", `{"size":"1","slaClass":"platinum"}`, 422, model.ErrCodeInvalidArgument},
		{"submit negative deadline", "POST", "/v1/jobs", `{"size":"1","deadline":"-2"}`, 422, model.ErrCodeInvalidArgument},
		{"submit infeasible deadline", "POST", "/v1/jobs",
			`{"size":"9","deadline":"1","databanks":["swissprot"]}`, 422, model.ErrCodeDeadlineInfeasible},
		{"batch with no jobs", "POST", "/v1/jobs", `{"jobs":[]}`, 400, model.ErrCodeInvalidArgument},
		{"job id not a number", "GET", "/v1/jobs/abc", "", 404, model.ErrCodeNotFound},
		{"job never issued", "GET", "/v1/jobs/99", "", 404, model.ErrCodeNotFound},
		{"schedule bad since", "GET", "/v1/schedule?since=bogus", "", 400, model.ErrCodeInvalidArgument},
		// 1e100 needs 333 bits: past the bound submissions get.
		{"schedule oversized since", "GET", "/v1/schedule?since=1e100", "", 400, model.ErrCodeInvalidArgument},
		{"events bad since", "GET", "/v1/events?since=-1", "", 400, model.ErrCodeInvalidArgument},
		{"events bad shard", "GET", "/v1/events?shard=x", "", 400, model.ErrCodeInvalidArgument},
		{"events bad limit", "GET", "/v1/events?limit=0", "", 400, model.ErrCodeInvalidArgument},
		{"platform malformed JSON", "POST", "/v1/platform", `{`, 400, model.ErrCodeInvalidArgument},
		{"platform with no machines", "POST", "/v1/platform", `{"machines":[]}`, 400, model.ErrCodeInvalidArgument},
		{"platform oversized inverseSpeed", "POST", "/v1/platform",
			`{"machines":[{"name":"m","inverseSpeed":"1e100","databanks":["swissprot"]}]}`, 400, model.ErrCodeInvalidArgument},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, _, env := apiCall(t, ts, tc.method, tc.path, tc.body)
			if status != tc.wantStatus || env.Error.Code != tc.wantCode {
				t.Errorf("%s %s = %d %q, want %d %q (message %q)",
					tc.method, tc.path, status, env.Error.Code, tc.wantStatus, tc.wantCode, env.Error.Message)
			}
		})
	}

	// The deadline_infeasible envelope must carry the exact certificate with
	// the counter-offer a client can resubmit.
	status, _, env := apiCall(t, ts, "POST", "/v1/jobs", `{"size":"9","deadline":"1","databanks":["swissprot"]}`)
	if status != 422 || env.Error.Admission == nil {
		t.Fatalf("infeasible submit = %d admission %+v, want 422 with a certificate", status, env.Error.Admission)
	}
	cert := env.Error.Admission
	if cert.Feasible || cert.Mode != AdmissionStrict || cert.Deadline != "1" || cert.CounterOffer == "" {
		t.Errorf("reject certificate = %+v, want strict infeasible with a counter-offer", cert)
	}
}

// TestErrorEnvelopeClosedFleet pins the fleet_closed responses: a drained
// server answers 503 with a Retry-After hint on both the submit and the
// reshard surfaces.
func TestErrorEnvelopeClosedFleet(t *testing.T) {
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock()})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Close()

	status, hdr, env := apiCall(t, ts, "POST", "/v1/jobs", `{"size":"1","databanks":["swissprot"]}`)
	if status != 503 || env.Error.Code != model.ErrCodeFleetClosed {
		t.Errorf("submit on closed fleet = %d %q, want 503 fleet_closed", status, env.Error.Code)
	}
	if hdr.Get("Retry-After") == "" || env.Error.RetryAfter <= 0 {
		t.Errorf("closed-fleet reject carries no retry hint: header %q, body %d",
			hdr.Get("Retry-After"), env.Error.RetryAfter)
	}
	status, _, env = apiCall(t, ts, "POST", "/v1/platform",
		`{"machines":[{"name":"m","inverseSpeed":"1","databanks":["swissprot"]}]}`)
	if status != 503 || env.Error.Code != model.ErrCodeFleetClosed {
		t.Errorf("reshard on closed fleet = %d %q, want 503 fleet_closed", status, env.Error.Code)
	}
}

// TestErrorEnvelopeReshardDisabled pins the reshard_disabled response of a
// -reshard=false server.
func TestErrorEnvelopeReshardDisabled(t *testing.T) {
	srv, err := New(Config{Machines: testFleet(), Clock: NewVirtualClock(), DisableReshard: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	status, _, env := apiCall(t, ts, "POST", "/v1/platform",
		`{"machines":[{"name":"m","inverseSpeed":"1","databanks":["swissprot"]}]}`)
	if status != 403 || env.Error.Code != model.ErrCodeReshardDisabled {
		t.Errorf("reshard = %d %q, want 403 reshard_disabled", status, env.Error.Code)
	}
}

// TestErrorEnvelopeWALDegraded pins the wal_degraded refusal: once durability
// latches, a topology change the log cannot record is refused with 503 —
// restore would otherwise replay the suffix onto the wrong topology.
func TestErrorEnvelopeWALDegraded(t *testing.T) {
	t.Cleanup(faults.Reset)
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, WALDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	faults.Arm(faults.WALAppend, 0)
	if _, err := srv.Submit(&model.SubmitRequest{Size: "4", Databanks: []string{"swissprot"}}); err != nil {
		t.Fatal(err) // scheduling survives the latch; only durability froze
	}
	status, _, env := apiCall(t, ts, "POST", "/v1/platform",
		`{"machines":[{"name":"m","inverseSpeed":"1","databanks":["swissprot"]}]}`)
	if status != 503 || env.Error.Code != model.ErrCodeWALDegraded {
		t.Errorf("reshard with latched WAL = %d %q, want 503 wal_degraded", status, env.Error.Code)
	}
}

// TestBatchSubmitMixedResults pins the batch form of POST /v1/jobs: per-job
// results in request order, typed per-job rejections, 202 while at least one
// job is accepted and 422 when none is.
func TestBatchSubmitMixedResults(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	body := `{"jobs":[
		{"name":"ok","size":"2","databanks":["swissprot"]},
		{"size":"0"},
		{"name":"ok2","size":"1","databanks":["pdb"]}
	]}`
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("mixed batch = %d, want 202", resp.StatusCode)
	}
	var out model.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("got %d results, want 3 in request order", len(out.Results))
	}
	if out.Results[0].Error != nil || out.Results[2].Error != nil {
		t.Errorf("valid jobs rejected: %+v / %+v", out.Results[0].Error, out.Results[2].Error)
	}
	if out.Results[1].Error == nil || out.Results[1].Error.Code != model.ErrCodeInvalidArgument {
		t.Errorf("result 1 = %+v, want invalid_argument", out.Results[1].Error)
	}
	if out.Results[0].ID == out.Results[2].ID {
		t.Errorf("accepted jobs share ID %d", out.Results[0].ID)
	}
	// Both accepted jobs must resolve.
	for _, i := range []int{0, 2} {
		if _, known := srv.jobStatus(out.Results[i].ID); !known {
			t.Errorf("batch-accepted job %d does not resolve", out.Results[i].ID)
		}
	}

	// All-rejected batch: 422, every per-job result a typed envelope (the
	// body stays the results form, not a top-level error).
	resp2, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"jobs":[{"size":"0"},{"size":"-1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var rejected model.BatchSubmitResponse
	if err := json.NewDecoder(resp2.Body).Decode(&rejected); err != nil {
		t.Fatal(err)
	}
	if resp2.StatusCode != http.StatusUnprocessableEntity || len(rejected.Results) != 2 {
		t.Errorf("all-rejected batch = %d with %d results, want 422 with 2", resp2.StatusCode, len(rejected.Results))
	}
	for i, r := range rejected.Results {
		if r.Error == nil || r.Error.Code != model.ErrCodeInvalidArgument {
			t.Errorf("rejected result %d = %+v, want invalid_argument", i, r.Error)
		}
	}
}

// TestBatchSubmitSingleArrivalBatch pins the batch-admission guarantee: a
// batch posted before the loops start is admitted as ONE arrival batch on the
// virtual clock — one exact re-solve for the whole batch.
func TestBatchSubmitSingleArrivalBatch(t *testing.T) {
	const n = 8
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var req model.BatchSubmitRequest
	for i := 0; i < n; i++ {
		req.Jobs = append(req.Jobs, model.SubmitRequest{Size: "2", Databanks: []string{"swissprot"}})
	}
	body, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	var out model.BatchSubmitResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || len(out.Results) != n {
		t.Fatalf("batch = %d with %d results, want 202 with %d", resp.StatusCode, len(out.Results), n)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == n })
	st := srv.Stats()
	if st.ArrivalBatches != 1 || st.LargestBatch != n {
		t.Errorf("arrivalBatches=%d largestBatch=%d, want one batch of %d",
			st.ArrivalBatches, st.LargestBatch, n)
	}
}
