package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strings"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/server"
)

// Outcomes of one submission. The two typed rejects are the service working
// as designed; anything else that is not an accept is a failed operation.
type outcome int

const (
	accepted outcome = iota
	rejectedDeadline
	shedTenant
	failedSubmit
)

// submitInProc submits through Server.Submit. The typed rejects are
// unexported errors, so they are told apart the way a caller outside the
// package must: a deadline reject carries its certificate, a quota shed its
// message.
func submitInProc(srv *server.Server, j *streamJob) (int, outcome, error) {
	resp, err := srv.Submit(&j.req)
	switch {
	case err == nil:
		return resp.ID, accepted, nil
	case resp.Admission != nil && !resp.Admission.Feasible:
		return 0, rejectedDeadline, nil
	case strings.Contains(err.Error(), "tenant over its weighted share"):
		return 0, shedTenant, nil
	}
	return 0, failedSubmit, err
}

// httpClient is one keep-alive connection to the service under test.
type httpClient struct {
	base string
	c    *http.Client
}

func newHTTPClient(base string) *httpClient {
	return &httpClient{base: base, c: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1,
	}}}
}

func (h *httpClient) close() { h.c.CloseIdleConnections() }

// do issues one request and returns the status and the whole body (read to
// the end so the connection is reused).
func (h *httpClient) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := h.c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// getJSON fetches path and decodes a 200 answer into v.
func (h *httpClient) getJSON(path string, v any) error {
	status, data, err := h.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, status, data)
	}
	return json.Unmarshal(data, v)
}

// submitHTTP posts one job and classifies the answer by status and typed
// error code.
func submitHTTP(h *httpClient, j *streamJob) (int, outcome, error) {
	status, data, err := h.do(http.MethodPost, "/v1/jobs", j.body)
	if err != nil {
		return 0, failedSubmit, err
	}
	return classifySubmit(status, data)
}

// listen serves the handler on a loopback port and returns its base URL and
// a stop function that waits for the server to exit.
func listen(h http.Handler) (string, func(), error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h}
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = hs.Serve(lis) // always ErrServerClosed after stop
	}()
	stop := func() {
		_ = hs.Close()
		<-done
	}
	return "http://" + lis.Addr().String(), stop, nil
}

// recorderGet calls the handler in-process, with no socket, and decodes a
// 200 answer into v. The harness uses it to collect results outside the
// measured wall.
func recorderGet(h http.Handler, path string, v any) error {
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest(http.MethodGet, path, nil))
	if rr.Code != http.StatusOK {
		return fmt.Errorf("GET %s: status %d: %s", path, rr.Code, rr.Body.Bytes())
	}
	return json.Unmarshal(rr.Body.Bytes(), v)
}

// waitAdmitted blocks until the shard loops have admitted want arrivals.
// Stats takes every shard's mutex, so the wait parks behind an in-flight
// solve instead of spinning; the Gosched only covers the instant between a
// submit's poke and the loop taking its lock.
func waitAdmitted(srv *server.Server, want int) error {
	for {
		st := srv.Stats()
		if st.LastError != "" {
			return errors.New(st.LastError)
		}
		if st.BatchedArrivals >= want {
			return nil
		}
		runtime.Gosched()
	}
}

// waitCaughtUp blocks until the loop of a single-shard server has processed
// every event up to t: it sleeps toward a later event, or every one of the
// accepted jobs has completed and no event is left.
func waitCaughtUp(srv *server.Server, vc *replayClock, t *big.Rat, accepted int) error {
	for !vc.sleepingPast(t) {
		st := srv.Stats()
		if st.LastError != "" {
			return errors.New(st.LastError)
		}
		if st.JobsCompleted >= accepted {
			return nil
		}
		runtime.Gosched()
	}
	return nil
}

// drain steps the virtual clock from timer to timer, none further than
// limit ahead, until want jobs have completed.
func drain(srv *server.Server, vc *replayClock, limit *big.Rat, want int) (model.StatsResponse, error) {
	for {
		st := srv.Stats()
		if st.LastError != "" {
			return st, errors.New(st.LastError)
		}
		if st.JobsCompleted >= want {
			return st, nil
		}
		if !vc.step(limit) {
			runtime.Gosched()
		}
	}
}

// noteStats files the service's own counters at the end of a pass.
func (r *passResult) noteStats(st model.StatsResponse) {
	r.jobs = st.JobsCompleted
	r.counts["lp_solves"] = int64(st.LPSolves)
	r.counts["plan_cache_hits"] = int64(st.PlanCacheHits)
	r.counts["events"] = int64(st.Events)
	r.counts["arrival_batches"] = int64(st.ArrivalBatches)
	r.solver = st.Solver
}

// jobFacts is what the harness knows about an accepted job from its own
// request, for checking what the service reports back.
type jobFacts struct {
	size, weight *big.Rat
	databanks    []string
}

// collectFlows reads every accepted job's status through get, in submission
// order, and files the exact flows and weighted flows in res; a job
// that is not done, or whose reported size or weight differ from the
// request's, is an error.
func collectFlows(get func(path string, v any) error, order []int, jobs map[int]jobFacts, res *passResult) error {
	for _, id := range order {
		facts := jobs[id]
		var st model.JobStatus
		if err := get(fmt.Sprintf("/v1/jobs/%d", id), &st); err != nil {
			return err
		}
		flow, wf, err := doneFlow(&st, facts)
		if err != nil {
			return err
		}
		res.noteStreamFlow(flow, wf)
		if st.DeadlineMet != nil && *st.DeadlineMet {
			res.counts["deadline_met"]++
		}
	}
	res.endStream()
	return nil
}

// doneFlow extracts a completed job's exact flow and weighted flow from its
// status, checking it against the request's facts.
func doneFlow(st *model.JobStatus, facts jobFacts) (flow, wf *big.Rat, err error) {
	if st.State != server.StateDone {
		return nil, nil, fmt.Errorf("job %d is %q, not done", st.ID, st.State)
	}
	if st.Size != facts.size.RatString() || st.Weight != facts.weight.RatString() {
		return nil, nil, fmt.Errorf("job %d reports size %s weight %s, submitted %s and %s",
			st.ID, st.Size, st.Weight, facts.size.RatString(), facts.weight.RatString())
	}
	flow, ok := new(big.Rat).SetString(st.Flow)
	if !ok || flow.Sign() <= 0 {
		return nil, nil, fmt.Errorf("job %d: bad flow %q", st.ID, st.Flow)
	}
	wf = new(big.Rat).Mul(facts.weight, flow)
	if wf.RatString() != st.WeightedFlow {
		return nil, nil, fmt.Errorf("job %d: weighted flow %s is not weight·flow = %s", st.ID, st.WeightedFlow, wf.RatString())
	}
	return flow, wf, nil
}

// fetchPieces reads the executed Gantt through get.
func fetchPieces(get func(path string, v any) error) ([]schedule.Piece, error) {
	var resp model.ScheduleResponse
	if err := get("/v1/schedule", &resp); err != nil {
		return nil, err
	}
	var sched schedule.Schedule
	if err := json.Unmarshal(resp.Schedule, &sched); err != nil {
		return nil, err
	}
	return sched.Pieces, nil
}

// verifyExecution checks the executed pieces against the accepted jobs,
// exactly: every piece runs a known job on a machine hosting its databanks,
// pieces on one machine never overlap, and every job's processed fraction
// Σ duration ÷ c_{i,j} is exactly 1.
func verifyExecution(pieces []schedule.Piece, jobs map[int]jobFacts, fleet []model.Machine) error {
	done := make(map[int]*big.Rat, len(jobs))
	perMachine := make([][]*schedule.Piece, len(fleet))
	for i := range pieces {
		p := &pieces[i]
		facts, ok := jobs[p.Job]
		if !ok {
			return fmt.Errorf("piece %d runs unknown job %d", i, p.Job)
		}
		if p.Machine < 0 || p.Machine >= len(fleet) {
			return fmt.Errorf("piece %d runs on unknown machine %d", i, p.Machine)
		}
		if !fleet[p.Machine].Hosts(facts.databanks) {
			return fmt.Errorf("piece %d runs job %d on machine %d, which lacks its databanks", i, p.Job, p.Machine)
		}
		if p.Start.Cmp(p.End) >= 0 {
			return fmt.Errorf("piece %d is empty or inverted", i)
		}
		cost := new(big.Rat).Mul(facts.size, fleet[p.Machine].InverseSpeed)
		frac := new(big.Rat).Quo(p.Duration(), cost)
		if sum := done[p.Job]; sum != nil {
			sum.Add(sum, frac)
		} else {
			done[p.Job] = frac
		}
		perMachine[p.Machine] = append(perMachine[p.Machine], p)
	}
	one := big.NewRat(1, 1)
	for id := range jobs {
		if sum := done[id]; sum == nil || sum.Cmp(one) != 0 {
			return fmt.Errorf("job %d: processed fraction %v, want exactly 1", id, sum)
		}
	}
	for m, ps := range perMachine {
		sort.Slice(ps, func(a, b int) bool { return ps[a].Start.Cmp(ps[b].Start) < 0 })
		for k := 1; k < len(ps); k++ {
			if ps[k].Start.Cmp(ps[k-1].End) < 0 {
				return fmt.Errorf("machine %d: pieces of jobs %d and %d overlap", m, ps[k-1].Job, ps[k].Job)
			}
		}
	}
	return nil
}
