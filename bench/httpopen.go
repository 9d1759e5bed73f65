package main

import (
	"fmt"
	"math/rand"
	"net/http"
	"sync/atomic"
	"time"

	"divflow/internal/model"
	"divflow/internal/server"
)

// openRate is the offered load of http-open: Poisson submissions per
// second, and as many status polls on a second connection.
const openRate = 120

// openMinRate is the attained rate the median pass of an http-open run must
// reach, or the run fails: nine tenths of the offered rate, which a pass
// misses when its last job completes more than 0.22 s after the last was due
// (jobs here take 16 ms on average and 60 ms at worst from release to
// completion). The median pass, not every pass: the reference box stalls a
// process for a few hundred milliseconds about once in seventy passes.
const openMinRate = 0.9 * openRate

// openSpec is the http-open stream: deadline-free jobs of 0.005–0.1 work
// units on the banked fleet (ρ≈0.5 at openRate), run on the real clock.
func openSpec(jobs int) streamSpec {
	return streamSpec{jobs: jobs, databanks: 3, sizeDenom: 200}
}

// httpOpenPass runs the service as deployed — defaults, real clock, a real
// listener — under an open-loop Poisson stream on one keep-alive
// connection, with a second connection polling job statuses at the same
// rate. A submission is timed from the instant it was due, so a stall
// charges every request it delays.
func httpOpenPass(seed int64, jobs []streamJob, rec *spanRecorder) (*passResult, error) {
	srv, err := server.New(server.Config{Machines: bankedFleet()})
	if err != nil {
		return nil, err
	}
	srv.Start()
	defer srv.Close()
	base, stop, err := listen(srv.Handler())
	if err != nil {
		return nil, err
	}
	defer stop()
	sub, poll := newHTTPClient(base), newHTTPClient(base)
	defer sub.close()
	defer poll.close()

	res := &passResult{counts: map[string]int64{}}
	acceptedJobs := make(map[int]jobFacts, len(jobs))
	var order []int
	var lastID atomic.Int64
	lastID.Store(-1)

	// The poller reads the most recently accepted job's status at Poisson
	// instants until told to stop; it reports its own operation counts.
	type pollReport struct {
		attempted, failed int
		spans             []span
	}
	stopPoll := make(chan struct{})
	pollDone := make(chan pollReport, 1)
	cpu0, start := cpuTime(), now()
	go func() {
		var rep pollReport
		prec := rec.child()
		rng := rand.New(rand.NewSource(subSeed(seed, "polls", 0)))
		due := start
		for {
			due = due.Add(time.Duration(rng.ExpFloat64() / openRate * float64(time.Second)))
			sleepUntil(due)
			select {
			case <-stopPoll:
				rep.spans = prec.take()
				pollDone <- rep
				return
			default:
			}
			id := lastID.Load()
			if id < 0 {
				continue
			}
			rep.attempted++
			s := now()
			status, _, err := poll.do(http.MethodGet, fmt.Sprintf("/v1/jobs/%d", id), nil)
			prec.add("api.get_job_socket", int(id), -1, s, now())
			if err != nil || status != http.StatusOK {
				rep.failed++
			}
		}
	}()

	var runErr error
	for k := range jobs {
		j := &jobs[k]
		due := start.Add(time.Duration(j.due * float64(time.Second)))
		sleepUntil(due)
		sent := now()
		id, out, err := submitHTTP(sub, j)
		end := now()
		res.attempted++
		res.requests = append(res.requests, ms(end.Sub(due)))
		late := rec.add("api.generator_late", k, -1, due, sent)
		rec.add("api.submit_socket", k, late, sent, end)
		if out != accepted {
			// The stream carries no deadlines and no tenants: every reject is
			// a failure.
			res.failed++
			runErr = err
			continue
		}
		acceptedJobs[id] = jobFacts{size: j.size, weight: j.weight, databanks: j.req.Databanks}
		order = append(order, id)
		lastID.Store(int64(id))
	}
	var st model.StatsResponse
	for runErr == nil {
		if runErr = sub.getJSON("/v1/stats", &st); runErr != nil || st.JobsCompleted >= len(acceptedJobs) {
			break
		}
		sleepUntil(now().Add(2 * time.Millisecond))
	}
	res.wall, res.cpu = since(start), cpuTime()-cpu0
	close(stopPoll)
	rep := <-pollDone
	rec.merge(rep.spans)
	res.attempted += rep.attempted
	res.failed += rep.failed
	if runErr != nil {
		return nil, runErr
	}
	if st.LastError != "" {
		return nil, fmt.Errorf("service latched an error: %s", st.LastError)
	}
	res.noteStats(st)
	res.counts["accepted"] = int64(len(acceptedJobs))

	h := srv.Handler()
	if rec != nil {
		if res.solveSeconds, err = probeReads(srv, h, order, rec); err != nil {
			return nil, err
		}
	}
	get := func(path string, v any) error { return recorderGet(h, path, v) }
	if err := collectFlows(get, order, acceptedJobs, res); err != nil {
		return nil, err
	}
	pieces, err := fetchPieces(get)
	if err != nil {
		return nil, err
	}
	if err := verifyExecution(tamper(pieces), acceptedJobs, bankedFleet()); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	return res, nil
}
