package main

import (
	"bytes"
	"encoding/gob"
	"encoding/json"
	"fmt"
	"math/big"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"divflow/internal/core"
	"divflow/internal/lp"
	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/server"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
	"divflow/internal/stats"
	"divflow/internal/wal"
)

// The traced run measures the layers from outside: it times calls into each
// package's public functions, replays a workload's stream at successive
// entry depths (socket → handler on a recorder → Server.Submit → sim.Run)
// and takes a layer's cost as the difference between adjacent depths, and
// reads the solver's own time from what the daemon already exports. A
// metric a workload does not exercise reads 0 in that workload's trace: the
// core, lp and schedule calls are timed on offline-exact alone, the wire
// types on the two HTTP workloads, the WAL on replay-ops, and the gob link
// on replay-sla, whose trace has the one pass on the rpc transport.

// perLayer are the metrics a traced run prints, layer by layer.
var perLayer = []metricDef{
	{Name: "model.decode_us", Unit: "us", Better: "lower"},
	{Name: "model.encode_us", Unit: "us", Better: "lower"},
	{Name: "api.socket_overhead_us", Unit: "us", Better: "lower"},
	{Name: "api.submit_handler_us", Unit: "us", Better: "lower"},
	{Name: "api.get_job_us", Unit: "us", Better: "lower"},
	{Name: "api.stats_us", Unit: "us", Better: "lower"},
	{Name: "api.schedule_us", Unit: "us", Better: "lower"},
	{Name: "api.metrics_scrape_ms", Unit: "ms", Better: "lower"},
	{Name: "api.submit_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "api.submit_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "api.get_job_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "api.get_job_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "api.generator_late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "server.submit_us", Unit: "us", Better: "lower"},
	{Name: "server.submit_deadline_us", Unit: "us", Better: "lower"},
	{Name: "server.stats_us", Unit: "us", Better: "lower"},
	{Name: "server.plan_wait_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "server.plan_wait_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "server.arrival_batch_mean", Unit: "jobs", Better: "higher"},
	{Name: "server.rejected_deadline_share", Unit: "share", Better: "lower"},
	{Name: "server.shed_tenant_share", Unit: "share", Better: "lower"},
	{Name: "server.deadline_met_share", Unit: "share", Better: "higher"},
	{Name: "server.steal_jobs", Unit: "count", Better: "lower"},
	{Name: "server.reshard_migrated_jobs", Unit: "count", Better: "lower"},
	{Name: "server.reshard_ms", Unit: "ms", Better: "lower"},
	{Name: "server.restore_s", Unit: "s", Better: "lower"},
	{Name: "server.obs_overhead_share", Unit: "share", Better: "lower"},
	{Name: "server.rpc_submit_us", Unit: "us", Better: "lower"},
	{Name: "shardlink.gob_roundtrip_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_us", Unit: "us", Better: "lower"},
	{Name: "wal.append_bytes", Unit: "B", Better: "lower"},
	{Name: "wal.reopen_ms_per_krec", Unit: "ms", Better: "lower"},
	{Name: "wal.share_of_wall", Unit: "share", Better: "lower"},
	{Name: "sim.engine_us_per_event", Unit: "us", Better: "lower"},
	{Name: "sim.policy_assign_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "sim.plan_cache_hit_share", Unit: "share", Better: "higher"},
	{Name: "sim.decisions", Unit: "count", Better: "lower"},
	{Name: "core.mwf_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.mwf_pre_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.makespan_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.deadline_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.bestdeadline_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.milestones_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "core.lp_solves_per_mwf", Unit: "count", Better: "lower"},
	{Name: "core.preemptive_extra_ms", Unit: "ms", Better: "lower"},
	{Name: "core.solve_wall_share", Unit: "share", Better: "lower"},
	{Name: "lp.hybrid_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lp.rat_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "lp.float_verified_share", Unit: "share", Better: "higher"},
	{Name: "lp.crossover_share", Unit: "share", Better: "lower"},
	{Name: "lp.exact_fallback_share", Unit: "share", Better: "lower"},
	{Name: "lp.warm_hit_share", Unit: "share", Better: "higher"},
	{Name: "schedule.validate_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "trace.request_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.cpu_ms_per_job", Unit: "ms", Better: "lower"},
	{Name: "trace.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "trace.coverage_share", Unit: "share", Better: "higher"},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower"},
}

// tracer collects the per-layer metrics of one traced run.
type tracer struct {
	env *runEnv
	rec *spanRecorder
	// samples holds every value taken for a metric; a trace that measures
	// several inputs reports the median.
	samples map[string][]float64
	// operations the traced passes attempted and failed
	attempted, failed int
	// accumulated by the offline probes
	mwfSolves, mwfCalls int
	preExtra            []float64
}

func newTracer(env *runEnv) *tracer {
	return &tracer{env: env, rec: newSpanRecorder(), samples: make(map[string][]float64, len(perLayer))}
}

// set files one value of a metric.
func (t *tracer) set(metric string, v float64) { t.samples[metric] = append(t.samples[metric], v) }

// values reduces the samples to one value per declared metric: the median,
// or 0 for a metric the workload does not exercise.
func (t *tracer) values() map[string]float64 {
	out := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		out[d.Name] = median(t.samples[d.Name])
	}
	return out
}

// note counts a traced pass's operations and returns its result unchanged.
func (t *tracer) note(res *passResult, err error) (*passResult, error) {
	if res != nil {
		t.attempted += res.attempted
		t.failed += res.failed
	}
	return res, err
}

// spanP sets a metric to the p-th percentile, in milliseconds, of the spans
// with the given name (0 when there are none).
func (t *tracer) spanP(metric, span string, p float64) {
	t.set(metric, percentile(t.rec.durationsMS(span), p))
}

// spanMeanUS sets a metric to the mean duration, in microseconds, of the
// spans with the given name.
func (t *tracer) spanMeanUS(metric, span string) {
	t.set(metric, 1000*mean(t.rec.durationsMS(span)))
}

// solverShares files the hybrid engine's path shares of a tally.
func (t *tracer) solverShares(tally stats.SolverTally) {
	total := float64(tally.Total())
	if total == 0 {
		return
	}
	t.set("lp.float_verified_share", float64(tally.FloatVerified)/total)
	t.set("lp.crossover_share", float64(tally.Crossovers)/total)
	t.set("lp.exact_fallback_share", float64(tally.Fallbacks)/total)
	t.set("lp.warm_hit_share", float64(tally.WarmHits)/total)
}

// streamCounts files the count-derived shares every stream workload has.
func (t *tracer) streamCounts(res *passResult) {
	c := res.counts
	submits := float64(c["accepted"] + c["rejected_deadline"] + c["shed_tenant"])
	if submits > 0 {
		t.set("server.rejected_deadline_share", float64(c["rejected_deadline"])/submits)
		t.set("server.shed_tenant_share", float64(c["shed_tenant"])/submits)
	}
	if c["accepted"] > 0 {
		t.set("server.deadline_met_share", float64(c["deadline_met"])/float64(c["accepted"]))
	}
	if c["arrival_batches"] > 0 {
		t.set("server.arrival_batch_mean", float64(c["accepted"])/float64(c["arrival_batches"]))
	}
	if c["events"] > 0 {
		t.set("sim.plan_cache_hit_share", float64(c["plan_cache_hits"])/float64(c["events"]))
	}
	t.set("server.steal_jobs", float64(c["steal_jobs"]))
	t.set("server.reshard_migrated_jobs", float64(c["reshard_migrated_jobs"]))
	t.set("core.solve_wall_share", res.solveSeconds/res.wall.Seconds())
	t.set("trace.request_p90_ms", percentile(res.requests, 90))
	t.solverShares(res.solver)
}

// untraced files what a trace takes from its untraced pass: the CPU time per
// job, and the wall the traced pass is compared with.
func (t *tracer) untraced(plain, traced *passResult) {
	t.set("trace.cpu_ms_per_job", ms(plain.cpu)/float64(plain.jobs))
	t.set("trace.overhead_share", traced.wall.Seconds()/plain.wall.Seconds()-1)
}

// replayCoverage files trace.coverage_share for one traced replay: the
// time inside the spans recorded during the measured wall — every call and
// every wait the harness made on the program — over that wall. What is
// missing is the harness's own time between calls.
func (t *tracer) replayCoverage(res *passResult) {
	t.set("trace.coverage_share", res.covered.Seconds()/res.wall.Seconds())
}

// probeReads times the read side of the API on a drained server, on a
// recorder (no socket): job status, stats, schedule, the metrics scrape,
// and Server.Stats itself. It returns the seconds the server's
// divflow_solve_seconds histogram has summed.
func probeReads(srv *server.Server, h http.Handler, ids []int, rec *spanRecorder) (float64, error) {
	get := func(span, path string, k int) (*httptest.ResponseRecorder, error) {
		rr := httptest.NewRecorder()
		req := httptest.NewRequest(http.MethodGet, path, nil)
		s := now()
		h.ServeHTTP(rr, req)
		rec.add(span, k, -1, s, now())
		if rr.Code != http.StatusOK {
			return nil, fmt.Errorf("GET %s: status %d", path, rr.Code)
		}
		return rr, nil
	}
	for k := 0; k < 200 && k < len(ids); k++ {
		if _, err := get("api.get_job", fmt.Sprintf("/v1/jobs/%d", ids[len(ids)-1-k]), k); err != nil {
			return 0, err
		}
	}
	for k := 0; k < 20; k++ {
		if _, err := get("api.stats", "/v1/stats", k); err != nil {
			return 0, err
		}
		s := now()
		srv.Stats()
		rec.add("server.stats", k, -1, s, now())
	}
	for k := 0; k < 3; k++ {
		if _, err := get("api.schedule", "/v1/schedule", k); err != nil {
			return 0, err
		}
	}
	var solve float64
	for k := 0; k < 3; k++ {
		rr, err := get("api.metrics_scrape", "/metrics", k)
		if err != nil {
			return 0, err
		}
		solve = 0
		for _, line := range strings.Split(rr.Body.String(), "\n") {
			if !strings.HasPrefix(line, "divflow_solve_seconds_sum") {
				continue
			}
			v, err := strconv.ParseFloat(line[strings.LastIndexByte(line, ' ')+1:], 64)
			if err != nil {
				return 0, fmt.Errorf("metrics scrape: %q: %w", line, err)
			}
			solve += v
		}
	}
	return solve, nil
}

// readMetrics files what probeReads recorded.
func (t *tracer) readMetrics() {
	t.spanMeanUS("api.get_job_us", "api.get_job")
	t.spanMeanUS("api.stats_us", "api.stats")
	t.spanMeanUS("api.schedule_us", "api.schedule")
	t.spanMeanUS("server.stats_us", "server.stats")
	t.set("api.metrics_scrape_ms", mean(t.rec.durationsMS("api.metrics_scrape")))
}

// requestUS is a pass's median request latency in microseconds: the figure
// the entry depths are compared on. (The median, not the mean: one stalled
// request out of a thousand would otherwise be charged to whichever depth
// it happened to hit.)
func requestUS(res *passResult) float64 { return 1000 * median(res.requests) }

// timingPolicy wraps a sim.Policy to time every Assign from outside.
type timingPolicy struct {
	sim.Policy
	assigns []float64 // ms
}

func (p *timingPolicy) Assign(s *sim.Snapshot) sim.Allocation {
	start := now()
	a := p.Policy.Assign(s)
	p.assigns = append(p.assigns, ms(since(start)))
	return a
}

// simReplay replays the accepted jobs of a stream through sim.Run — the
// bare engine and policy, no server — and files the engine's cost per
// decision and the policy's time per Assign.
func (t *tracer) simReplay(jobs []streamJob, idx []int, fleet []model.Machine) error {
	mjobs := make([]model.Job, len(idx))
	for k, j := range idx {
		sj := &jobs[j]
		mjobs[k] = model.Job{Name: fmt.Sprintf("j%d", j), Release: sj.release, Weight: sj.weight, Size: sj.size, Databanks: sj.req.Databanks}
	}
	inst, err := model.NewInstance(mjobs, fleet)
	if err != nil {
		return err
	}
	pol := &timingPolicy{Policy: sim.NewOnlineMWFLazy()}
	start := now()
	res, err := sim.Run(inst, pol)
	total := since(start)
	if err != nil {
		return fmt.Errorf("sim.Run: %w", err)
	}
	t.rec.add("sim.run", -1, -1, start, start.Add(total))
	policyMS := 0.0
	for _, d := range pol.assigns {
		policyMS += d
	}
	t.set("sim.decisions", float64(res.Decisions))
	t.set("sim.engine_us_per_event", 1000*(ms(total)-policyMS)/float64(res.Decisions))
	t.set("sim.policy_assign_ms_p50", percentile(pol.assigns, 50))
	return nil
}

// makespanLP states System (1) of the paper — minimise the length F of the
// open-ended last interval, subject to every machine fitting its work into
// every interval between consecutive release dates and every job being
// fully processed — through the public lp.Problem API.
func makespanLP(inst *model.Instance) *lp.Problem {
	var epochs []*big.Rat // distinct release dates, increasing
	for j := range inst.Jobs {
		if r := inst.Jobs[j].Release; len(epochs) == 0 || r.Cmp(epochs[len(epochs)-1]) > 0 {
			epochs = append(epochs, r)
		}
	}
	p := lp.NewProblem()
	one := big.NewRat(1, 1)
	f := p.AddVar("F", one)
	jobRows := make([][]lp.Term, inst.N())
	for iv := range epochs {
		for i := 0; i < inst.M(); i++ {
			var row []lp.Term
			for j := range inst.Jobs {
				c, ok := inst.Cost(i, j)
				if !ok || inst.Jobs[j].Release.Cmp(epochs[iv]) > 0 {
					continue
				}
				v := p.AddVar("", nil)
				row = append(row, lp.Term{Col: v, Coef: c})
				jobRows[j] = append(jobRows[j], lp.Term{Col: v, Coef: one})
			}
			if iv+1 < len(epochs) {
				p.AddRow("", row, lp.LE, new(big.Rat).Sub(epochs[iv+1], epochs[iv]))
			} else {
				p.AddRow("", append(row, lp.Term{Col: f, Coef: big.NewRat(-1, 1)}), lp.LE, new(big.Rat))
			}
		}
	}
	for j := range jobRows {
		p.AddRow("", jobRows[j], lp.EQ, one)
	}
	return p
}

// offlineProbe takes the core, lp and schedule numbers: a traced offline
// pass for the four requests, then BestDeadline, Milestones, the two LP
// engines on System (1), each timed per call on the same instances. It
// returns the traced pass.
func (t *tracer) offlineProbe(insts []offlineInstance) (*passResult, error) {
	res, outs, err := offlinePass(insts, t.rec)
	if err != nil {
		return nil, err
	}
	t.attempted += res.attempted
	if err := verifyOffline(insts, outs, t.rec); err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	t.mwfCalls += len(insts)
	for k := range insts {
		inst := insts[k].inst
		o := &outs[k]
		t.mwfSolves += o.mwf.LPSolves
		// The counter-offer for the last job when every deadline is 10%
		// tighter than an optimal schedule needs.
		tight := flowDeadlines(inst, o.mwf.Objective, big.NewRat(9, 10))
		s := now()
		if _, err := core.BestDeadline(inst, tight, inst.N()-1, schedule.Divisible); err != nil {
			return nil, fmt.Errorf("instance %d: BestDeadline: %w", k, err)
		}
		t.rec.add("core.bestdeadline", k, -1, s, now())
		s = now()
		core.Milestones(inst)
		t.rec.add("core.milestones", k, -1, s, now())

		prob := makespanLP(inst)
		s = now()
		hyb, err := lp.SolveHybrid(prob)
		t.rec.add("lp.hybrid", k, -1, s, now())
		if err != nil {
			return nil, fmt.Errorf("instance %d: SolveHybrid: %w", k, err)
		}
		s = now()
		rat, err := lp.SolveRat(prob)
		t.rec.add("lp.rat", k, -1, s, now())
		if err != nil {
			return nil, fmt.Errorf("instance %d: SolveRat: %w", k, err)
		}
		// System (1)'s optimum is Theorem 1's: C_max = r_max + F.
		want := new(big.Rat).Sub(o.mk.Makespan, inst.Jobs[inst.N()-1].Release)
		if hyb.Status != lp.Optimal || rat.Status != lp.Optimal || hyb.Objective.Cmp(want) != 0 || rat.Objective.Cmp(want) != 0 {
			return nil, fmt.Errorf("instance %d: System (1) solved to %v (hybrid) and %v (exact), MinMakespan says %v",
				k, hyb.Objective, rat.Objective, want)
		}
	}
	// Preemptive minus divisible, on the instances that got both requests.
	pre, div := t.rec.durationsMS("core.mwf_pre"), t.rec.durationsMS("core.mwf")
	pre, div = pre[len(pre)-countPreemptive(insts):], div[len(div)-len(insts):]
	n := 0
	for k := range insts {
		if insts[k].preemptive {
			t.preExtra = append(t.preExtra, pre[n]-div[k])
			n++
		}
	}
	return res, nil
}

func countPreemptive(insts []offlineInstance) int {
	n := 0
	for k := range insts {
		if insts[k].preemptive {
			n++
		}
	}
	return n
}

// offlineMetrics files what the offline probes recorded.
func (t *tracer) offlineMetrics() {
	t.spanP("core.mwf_ms_p50", "core.mwf", 50)
	t.spanP("core.mwf_pre_ms_p50", "core.mwf_pre", 50)
	t.spanP("core.makespan_ms_p50", "core.makespan", 50)
	t.spanP("core.deadline_ms_p50", "core.deadline", 50)
	t.spanP("core.bestdeadline_ms_p50", "core.bestdeadline", 50)
	t.spanP("core.milestones_ms_p50", "core.milestones", 50)
	t.spanP("lp.hybrid_ms_p50", "lp.hybrid", 50)
	t.spanP("lp.rat_ms_p50", "lp.rat", 50)
	t.spanP("schedule.validate_ms_p50", "schedule.validate", 50)
	t.set("core.lp_solves_per_mwf", float64(t.mwfSolves)/float64(t.mwfCalls))
	t.set("core.preemptive_extra_ms", mean(t.preExtra))
}

// The three probes below price a layer a stream crosses one call at a time,
// over the first probeJobs jobs of the stream. A trace runs only the probes
// of layers its workload goes through.
const probeJobs = 400

func probed(jobs []streamJob) []streamJob {
	if len(jobs) > probeJobs {
		return jobs[:probeJobs]
	}
	return jobs
}

// modelProbe times the wire types of the HTTP workloads: JSON →
// SubmitRequest → Job, and JobStatus → JSON.
func (t *tracer) modelProbe(jobs []streamJob) error {
	jobs = probed(jobs)
	statuses := make([]model.JobStatus, len(jobs))
	for k := range jobs {
		var req model.SubmitRequest
		s := now()
		err := json.Unmarshal(jobs[k].body, &req)
		if err == nil {
			_, err = req.Job()
		}
		t.rec.add("model.decode", k, -1, s, now())
		if err != nil {
			return fmt.Errorf("decode probe: %w", err)
		}
		flow := new(big.Rat).Add(jobs[k].size, big.NewRat(int64(k), 7))
		statuses[k] = model.JobStatus{
			ID: k, Name: fmt.Sprintf("job-%d", k), State: server.StateDone,
			Weight: req.Weight, Size: req.Size, Databanks: req.Databanks,
			Release: big.NewRat(int64(k), 4).RatString(), CompletedAt: flow.RatString(), Flow: flow.RatString(),
			WeightedFlow: new(big.Rat).Mul(flow, jobs[k].weight).RatString(),
			Stretch:      new(big.Rat).Quo(flow, jobs[k].size).RatString(),
			Deadline:     req.Deadline, Tenant: req.Tenant, SLAClass: req.SLAClass,
		}
	}
	for k := range statuses {
		s := now()
		_, err := json.Marshal(&statuses[k])
		t.rec.add("model.encode", k, -1, s, now())
		if err != nil {
			return fmt.Errorf("encode probe: %w", err)
		}
	}
	t.spanMeanUS("model.decode_us", "model.decode")
	t.spanMeanUS("model.encode_us", "model.encode")
	return nil
}

// gobProbe times the shard link's submit messages, SubmitArgs out and
// SubmitReply back, through one gob stream each way, as the rpc transport's
// connection carries them.
func (t *tracer) gobProbe(jobs []streamJob) error {
	jobs = probed(jobs)
	var wire bytes.Buffer
	enc, dec := gob.NewEncoder(&wire), gob.NewDecoder(&wire)
	for k := range jobs {
		job, err := jobs[k].req.Job()
		if err != nil {
			return err
		}
		s := now()
		var args shardlink.SubmitArgs
		var reply shardlink.SubmitReply
		err = enc.Encode(shardlink.SubmitArgs{Job: job})
		if err == nil {
			err = dec.Decode(&args)
		}
		if err == nil {
			err = enc.Encode(shardlink.SubmitReply{GID: k, Outcome: "ok"})
		}
		if err == nil {
			err = dec.Decode(&reply)
		}
		t.rec.add("shardlink.gob_roundtrip", k, -1, s, now())
		if err != nil {
			return fmt.Errorf("gob probe: %w", err)
		}
	}
	t.spanMeanUS("shardlink.gob_roundtrip_us", "shardlink.gob_roundtrip")
	return nil
}

// walProbe appends the submit requests to a log as records, then reopens
// it.
func (t *tracer) walProbe(jobs []streamJob) error {
	jobs = probed(jobs)
	dir, err := os.MkdirTemp(t.env.scratch, "walprobe-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	log, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		return err
	}
	const rounds = 5 // appends per job, so the reopen reads a few thousand records
	for r := 0; r < rounds; r++ {
		for k := range jobs {
			s := now()
			_, err := log.Append("submit", &jobs[k].req)
			t.rec.add("wal.append", k, -1, s, now())
			if err != nil {
				log.Close()
				return fmt.Errorf("wal probe: %w", err)
			}
		}
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("wal probe: %w", err)
	}
	var bytesOnDisk int64
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	for _, seg := range segs {
		if fi, err := os.Stat(seg); err == nil {
			bytesOnDisk += fi.Size()
		}
	}
	s := now()
	log, recs, err := wal.Open(dir, wal.Options{})
	reopen := since(s)
	if err != nil {
		return fmt.Errorf("wal probe: reopen: %w", err)
	}
	log.Close()
	t.rec.add("wal.reopen", -1, -1, s, s.Add(reopen))
	if len(recs) != rounds*len(jobs) {
		return fmt.Errorf("wal probe: reopened %d records, appended %d", len(recs), rounds*len(jobs))
	}
	t.spanMeanUS("wal.append_us", "wal.append")
	t.set("wal.append_bytes", float64(bytesOnDisk)/float64(len(recs)))
	t.set("wal.reopen_ms_per_krec", ms(reopen)*1000/float64(len(recs)))
	return nil
}

func traceOffline(t *tracer, ins []*passInput) error {
	for _, in := range ins {
		plain, _, err := offlinePass(in.instances, nil)
		if err != nil {
			return err
		}
		t.attempted += plain.attempted
		from := len(t.rec.spans)
		traced, err := t.offlineProbe(in.instances)
		if err != nil {
			return err
		}
		t.solverShares(traced.solver)
		t.set("trace.request_p90_ms", percentile(traced.requests, 90))
		t.untraced(plain, traced)
		t.set("trace.coverage_share", t.rec.requestSum(from, "core.mwf", "core.mwf_pre", "core.makespan", "core.deadline").Seconds()/traced.wall.Seconds())
	}
	t.offlineMetrics()
	return nil
}

// planWaits files the plan-wait percentiles of the traced replays.
func (t *tracer) planWaits() {
	t.spanP("server.plan_wait_p50_ms", "server.plan_wait", 50)
	t.spanP("server.plan_wait_p90_ms", "server.plan_wait", 90)
}

func traceSLA(t *tracer, ins []*passInput) error {
	for _, in := range ins {
		pass := func(opt slaOptions, rec *spanRecorder) (*passResult, error) {
			return t.note(replaySLAPass(in.jobs, opt, rec))
		}
		plain, err := pass(slaOptions{}, nil)
		if err != nil {
			return err
		}
		traced, err := pass(slaOptions{}, t.rec)
		if err != nil {
			return err
		}
		handler, err := pass(slaOptions{depth: depthHandler}, nil)
		if err != nil {
			return err
		}
		socket, err := pass(slaOptions{depth: depthSocket}, nil)
		if err != nil {
			return err
		}
		noAdmit, err := pass(slaOptions{admissionOff: true}, nil)
		if err != nil {
			return err
		}
		noObs, err := pass(slaOptions{disableObs: true}, nil)
		if err != nil {
			return err
		}
		rpc, err := pass(slaOptions{rpc: true}, nil)
		if err != nil {
			return err
		}
		t.streamCounts(traced)
		t.replayCoverage(traced)
		t.untraced(plain, traced)
		t.set("server.submit_deadline_us", requestUS(plain))
		t.set("server.submit_us", requestUS(noAdmit))
		t.set("api.submit_handler_us", requestUS(handler)-requestUS(plain))
		t.set("api.socket_overhead_us", requestUS(socket)-requestUS(handler))
		t.set("server.rpc_submit_us", requestUS(rpc)-requestUS(plain))
		t.set("server.obs_overhead_share", plain.wall.Seconds()/noObs.wall.Seconds()-1)
		if err := t.simReplay(in.jobs, traced.acceptedIdx, bankedFleet()); err != nil {
			return err
		}
	}
	t.readMetrics()
	t.planWaits()
	// The gob link is crossed by the rpc pass above and by no other workload.
	return t.gobProbe(ins[0].jobs)
}

func traceOps(t *tracer, ins []*passInput) error {
	for _, in := range ins {
		pass := func(opt opsOptions, rec *spanRecorder) (*passResult, error) {
			return t.note(replayOpsPass(in.jobs, t.env.scratch, opt, rec))
		}
		plain, err := pass(opsOptions{}, nil)
		if err != nil {
			return err
		}
		traced, err := pass(opsOptions{}, t.rec)
		if err != nil {
			return err
		}
		noWAL, err := pass(opsOptions{noWAL: true}, nil)
		if err != nil {
			return err
		}
		handler, err := pass(opsOptions{depth: depthHandler}, nil)
		if err != nil {
			return err
		}
		inproc, err := pass(opsOptions{depth: depthSubmit}, nil)
		if err != nil {
			return err
		}
		t.streamCounts(traced)
		t.replayCoverage(traced)
		t.untraced(plain, traced)
		t.set("wal.share_of_wall", 1-noWAL.wall.Seconds()/plain.wall.Seconds())
		t.set("server.submit_us", requestUS(inproc))
		t.set("api.submit_handler_us", requestUS(handler)-requestUS(inproc))
		t.set("api.socket_overhead_us", requestUS(plain)-requestUS(handler))
		// One shard's view of the stream — every fourth job on the first
		// shard's two machines — through the bare engine: an approximation,
		// since routing and stealing do not deal jobs round-robin.
		var idx []int
		for k := 0; k < len(traced.acceptedIdx); k += opsShards {
			idx = append(idx, traced.acceptedIdx[k])
		}
		fleet := opsFleet()
		if err := t.simReplay(in.jobs, idx, []model.Machine{fleet[0], fleet[opsShards]}); err != nil {
			return err
		}
	}
	t.readMetrics()
	t.planWaits()
	t.spanP("api.submit_p95_ms", "api.submit_socket", 95)
	t.spanP("api.submit_p99_ms", "api.submit_socket", 99)
	t.spanP("api.get_job_p50_ms", "api.get_job_socket", 50)
	t.spanP("api.get_job_p99_ms", "api.get_job_socket", 99)
	t.set("server.reshard_ms", mean(t.rec.durationsMS("server.reshard")))
	t.set("server.restore_s", mean(t.rec.durationsMS("server.restore"))/1000)
	if err := t.modelProbe(ins[0].jobs); err != nil {
		return err
	}
	return t.walProbe(ins[0].jobs)
}

func traceOpen(t *tracer, ins []*passInput) error {
	var requests []float64
	for _, in := range ins {
		plain, err := t.note(httpOpenPass(in.seed, in.jobs, nil))
		if err != nil {
			return err
		}
		from := len(t.rec.spans)
		traced, err := t.note(httpOpenPass(in.seed, in.jobs, t.rec))
		if err != nil {
			return err
		}
		t.streamCounts(traced)
		requests = append(requests, traced.requests...)
		// The wall of an open-loop pass is pinned by its schedule, so overhead
		// and coverage are taken on CPU time: the traced pass's CPU over the
		// untraced one's, and the time inside requests plus the solver's own
		// over the CPU the pass used.
		t.set("trace.cpu_ms_per_job", ms(plain.cpu)/float64(plain.jobs))
		t.set("trace.overhead_share", traced.cpu.Seconds()/plain.cpu.Seconds()-1)
		busy := t.rec.requestSum(from, "api.submit_socket", "api.get_job_socket")
		t.set("trace.coverage_share", (busy.Seconds()+traced.solveSeconds)/traced.cpu.Seconds())
		// The same stream replayed on the virtual clock at the three entry
		// depths prices the socket and the handler per request.
		var depthUS [3]float64
		for i, d := range [...]depth{depthSubmit, depthHandler, depthSocket} {
			res, err := t.note(replaySLAPass(in.jobs, slaOptions{depth: d}, nil))
			if err != nil {
				return err
			}
			depthUS[i] = requestUS(res)
		}
		t.set("server.submit_us", depthUS[0])
		t.set("api.submit_handler_us", depthUS[1]-depthUS[0])
		t.set("api.socket_overhead_us", depthUS[2]-depthUS[1])
	}
	t.readMetrics()
	t.set("api.submit_p95_ms", percentile(requests, 95))
	t.set("api.submit_p99_ms", percentile(requests, 99))
	t.spanP("api.get_job_p50_ms", "api.get_job_socket", 50)
	t.spanP("api.get_job_p99_ms", "api.get_job_socket", 99)
	t.spanP("api.generator_late_p99_ms", "api.generator_late", 99)
	return t.modelProbe(ins[0].jobs)
}
