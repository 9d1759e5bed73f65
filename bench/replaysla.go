package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"

	"divflow/internal/model"
	"divflow/internal/server"
	"divflow/internal/shardlink"
)

// Entry depths of the onion replay: the same stream enters the service at
// the socket, at the handler (on a recorder, no socket), or at
// Server.Submit.
type depth int

const (
	depthDefault depth = iota // the workload's own: Submit for replay-sla, the socket for replay-ops
	depthSubmit
	depthHandler
	depthSocket
)

// submitHandler submits through Handler().ServeHTTP on a recorder: the JSON
// and routing layers without the socket.
func submitHandler(h http.Handler, j *streamJob) (int, outcome, error) {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(j.body)))
	return classifySubmit(rr.Code, rr.Body.Bytes())
}

// serveHTTP serves srv on a loopback port and returns one keep-alive client
// of it and a function that closes both; calling it twice is harmless.
func serveHTTP(srv *server.Server) (*httpClient, func(), error) {
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, nil, err
	}
	hc := newHTTPClient(base)
	return hc, func() {
		hc.close()
		stop()
	}, nil
}

// submitterAt returns the submit function entering srv at depth d (hc is
// the client the socket depth posts through) and the name of its span.
func submitterAt(srv *server.Server, hc *httpClient, d depth) (func(*streamJob) (int, outcome, error), string) {
	switch d {
	case depthHandler:
		h := srv.Handler()
		return func(j *streamJob) (int, outcome, error) { return submitHandler(h, j) }, "api.submit_handler"
	case depthSocket:
		return func(j *streamJob) (int, outcome, error) { return submitHTTP(hc, j) }, "api.submit_socket"
	}
	return func(j *streamJob) (int, outcome, error) { return submitInProc(srv, j) }, "server.submit"
}

// slaSpec is the replay-sla stream: ρ≈0.9 on the banked fleet, every job
// with a deadline and a tenant.
func slaSpec(jobs int) streamSpec {
	return streamSpec{jobs: jobs, meanInterarrival: 0.85, databanks: 3, sizeDenom: 1, deadlines: true, tenants: true}
}

// slaOptions vary a replay-sla pass for the traced run.
type slaOptions struct {
	depth        depth
	disableObs   bool
	admissionOff bool // skip the deadline-feasibility LP
	rpc          bool // route router→shard traffic through the loopback gob link
}

// replaySLAPass replays the stream against a fresh single-shard server
// under strict admission and armed tenant quotas, then reads every result
// back and verifies the execution exactly.
func replaySLAPass(jobs []streamJob, opt slaOptions, rec *spanRecorder) (*passResult, error) {
	vc := newReplayClock()
	cfg := server.Config{
		Machines:   bankedFleet(),
		Clock:      vc,
		Shards:     1,
		Admission:  server.AdmissionStrict,
		Tenants:    &model.TenantConfig{Weights: slaTenants},
		DisableObs: opt.disableObs,
	}
	if opt.admissionOff {
		cfg.Admission = server.AdmissionOff
	}
	if opt.rpc {
		cfg.Transport = shardlink.TransportRPC
	}
	srv, err := server.New(cfg)
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Close()
	var hc *httpClient
	if opt.depth == depthSocket {
		var release func()
		if hc, release, err = serveHTTP(srv); err != nil {
			return nil, err
		}
		defer release()
	}
	submit, span := submitterAt(srv, hc, opt.depth)

	res := &passResult{counts: map[string]int64{}}
	r := &replay{srv: srv, vc: vc, settle: true, submit: submit, span: span}
	from := rec.mark()
	cpu0, t0 := cpuTime(), now()
	if err := r.run(jobs, res, rec); err != nil {
		return nil, err
	}
	dstart := now()
	st, err := drain(srv, vc, nil, len(r.accepted))
	if err != nil {
		return nil, err
	}
	rec.add("server.drain", -1, -1, dstart, now())
	res.wall, res.cpu, res.covered = since(t0), cpuTime()-cpu0, rec.spanSum(from)
	res.noteStats(st)

	if n := int64(res.attempted-res.failed) - res.counts["accepted"] - res.counts["rejected_deadline"] - res.counts["shed_tenant"]; n != 0 {
		return nil, fmt.Errorf("accepted + rejected + shed is %d short of the submissions answered", n)
	}
	h := srv.Handler()
	if rec != nil && !opt.disableObs {
		if res.solveSeconds, err = probeReads(srv, h, r.order, rec); err != nil {
			return nil, err
		}
	}
	get := func(path string, v any) error { return recorderGet(h, path, v) }
	if err := collectFlows(get, r.order, r.accepted, res); err != nil {
		return nil, err
	}
	if st.MaxWeightedFlow != res.wflowMax.RatString() {
		return nil, fmt.Errorf("max weighted flow over job reads is %s, /v1/stats says %s", res.wflowMax.RatString(), st.MaxWeightedFlow)
	}
	pieces, err := fetchPieces(get)
	if err != nil {
		return nil, err
	}
	if err := verifyExecution(tamper(pieces), r.accepted, bankedFleet()); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	return res, nil
}

// classifySubmit maps a POST /v1/jobs answer to an outcome by status and
// typed error code.
func classifySubmit(status int, data []byte) (int, outcome, error) {
	if status == http.StatusAccepted {
		var resp model.SubmitResponse
		if err := json.Unmarshal(data, &resp); err != nil {
			return 0, failedSubmit, err
		}
		return resp.ID, accepted, nil
	}
	var env model.ErrorResponse
	if err := json.Unmarshal(data, &env); err == nil {
		switch {
		case status == http.StatusUnprocessableEntity && env.Error.Code == model.ErrCodeDeadlineInfeasible:
			return 0, rejectedDeadline, nil
		case status == http.StatusTooManyRequests && env.Error.Code == model.ErrCodeTenantOverQuota:
			return 0, shedTenant, nil
		}
	}
	return 0, failedSubmit, fmt.Errorf("POST /v1/jobs: status %d: %s", status, data)
}
