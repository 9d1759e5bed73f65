package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/schedule"
	"divflow/internal/shardlink"
)

// Handler returns the HTTP surface of the service:
//
//	POST /v1/jobs          submit a job (model.SubmitRequest), or a batch
//	                       ({"jobs":[...]}, model.BatchSubmitRequest) with
//	                       per-job results in order
//	GET  /v1/jobs/{id}     job status (model.JobStatus)
//	GET  /v1/schedule      executed Gantt so far (model.ScheduleResponse);
//	                       ?since=<rat> windows it to pieces ending after t
//	GET  /v1/stats         service counters (model.StatsResponse)
//	GET  /v1/tenants       per-tenant weighted-flow accounting
//	                       (model.TenantsResponse)
//	POST /v1/platform      admin: live re-shard against an updated platform
//	                       JSON (model.ReshardResponse)
//	GET  /healthz          200 while every active shard is healthy, 503
//	                       naming the stalled shards (model.HealthResponse)
//	GET  /metrics          Prometheus text exposition (absent with
//	                       telemetry disabled)
//	GET  /v1/events        structured event journal (model.EventsResponse);
//	                       ?since=&type=&shard=&limit= page and filter it
//	                       (absent with telemetry disabled)
//
// Every non-2xx answer is the versioned envelope
// {"error":{"code","message",...}} with a typed code (model.ErrCode*);
// retryable failures (fleet_closed, shard_stalled, tenant_over_quota)
// mirror their retryAfter hint in the Retry-After header.
//
// Reads merge the per-shard state: job IDs are shard-encoded, the schedule
// interleaves every shard's pieces over fleet machine indices, and stats
// carry both fleet aggregates and the per-shard breakdown (retired shards
// included — they keep serving the history executed before their
// generation ended).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/schedule", s.handleSchedule)
	mux.HandleFunc("GET /v1/stats", s.handleStats)
	mux.HandleFunc("GET /v1/tenants", s.handleTenants)
	mux.HandleFunc("POST /v1/platform", s.handlePlatform)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	if s.tel.enabled {
		mux.Handle("GET /metrics", s.tel.reg.Handler())
		mux.HandleFunc("GET /v1/events", s.handleEvents)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// retryAfterSeconds is the retry hint on retryable rejections (fleet
// closed, shard stalled, tenant over quota), mirrored in the Retry-After
// header. The service resolves submissions immediately — a client retrying
// after one second observes post-recovery (or post-drain) state.
const retryAfterSeconds = 1

// writeError writes the versioned v1 error envelope. A RetryAfter hint is
// mirrored in the Retry-After header so standard HTTP clients back off
// without parsing the body.
func writeError(w http.ResponseWriter, status int, we model.WireError) {
	if we.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(we.RetryAfter))
	}
	writeJSON(w, status, model.ErrorResponse{Error: we})
}

// invalidArg is the envelope for malformed requests.
func invalidArg(err error) model.WireError {
	return model.WireError{Code: model.ErrCodeInvalidArgument, Message: err.Error()}
}

// submitWireError classifies a Submit failure into its HTTP status and wire
// envelope. resp is the (possibly zero) response the failed Submit returned;
// a strict deadline reject carries the exact certificate through it.
func submitWireError(err error, resp model.SubmitResponse) (int, model.WireError) {
	we := model.WireError{Code: model.ErrCodeInvalidArgument, Message: err.Error()}
	status := http.StatusUnprocessableEntity
	var stalled *shardStalledError
	switch {
	case errors.Is(err, errDeadline):
		we.Code = model.ErrCodeDeadlineInfeasible
		we.Admission = resp.Admission
	case errors.Is(err, errTenantQuota):
		we.Code = model.ErrCodeTenantOverQuota
		we.RetryAfter = retryAfterSeconds
		status = http.StatusTooManyRequests
	case errors.Is(err, ErrClosed):
		we.Code = model.ErrCodeFleetClosed
		we.RetryAfter = retryAfterSeconds
		status = http.StatusServiceUnavailable
	case errors.As(err, &stalled):
		we.Code = model.ErrCodeShardStalled
		we.RetryAfter = retryAfterSeconds
		status = http.StatusServiceUnavailable
		if stalled.shard >= 0 {
			shard := stalled.shard
			we.Shard = &shard
		}
	}
	return status, we
}

// maxSubmitBytes bounds submission bodies: a single request must not be
// able to feed the exact solvers arbitrarily large rationals.
const maxSubmitBytes = 1 << 20

// maxPlatformBytes bounds platform documents on the admin surface. It is
// deliberately much larger than maxSubmitBytes: a fleet document scales with
// machine count, and the same file loads unbounded at daemon startup and via
// SIGHUP — the HTTP path must not be the one surface that rejects it.
const maxPlatformBytes = 64 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, invalidArg(err))
		return
	}
	if isBatchSubmit(body) {
		s.handleBatchSubmit(w, body)
		return
	}
	var req model.SubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, invalidArg(err))
		return
	}
	resp, err := s.Submit(&req)
	if err != nil {
		status, we := submitWireError(err, resp)
		writeError(w, status, we)
		return
	}
	writeJSON(w, http.StatusAccepted, resp)
}

// isBatchSubmit reports whether a POST /v1/jobs body is the batch form,
// {"jobs":[...]}. A single-job body never carries a "jobs" key, so the sniff
// cannot misclassify either form.
func isBatchSubmit(body []byte) bool {
	var probe struct {
		Jobs json.RawMessage `json:"jobs"`
	}
	return json.Unmarshal(body, &probe) == nil && probe.Jobs != nil
}

// handleBatchSubmit admits a batch submission in request order. The shard
// loops batch arrivals lazily — submissions landing within one wake-up share
// a single exact re-solve — so a batch submitted here lands as one arrival
// batch on the virtual clock without any extra coordination. The status is
// 202 when at least one job was accepted; per-job rejections travel in the
// results, each with the same typed envelope a single submit would get.
func (s *Server) handleBatchSubmit(w http.ResponseWriter, body []byte) {
	var req model.BatchSubmitRequest
	if err := json.Unmarshal(body, &req); err != nil {
		writeError(w, http.StatusBadRequest, invalidArg(err))
		return
	}
	if len(req.Jobs) == 0 {
		writeError(w, http.StatusBadRequest, invalidArg(errors.New("batch submission needs at least one job")))
		return
	}
	resp := model.BatchSubmitResponse{Results: make([]model.BatchSubmitResult, len(req.Jobs))}
	accepted := false
	for i := range req.Jobs {
		sub, err := s.Submit(&req.Jobs[i])
		if err != nil {
			_, we := submitWireError(err, sub)
			resp.Results[i] = model.BatchSubmitResult{Error: &we}
			continue
		}
		accepted = true
		resp.Results[i] = model.BatchSubmitResult{
			ID: sub.ID, State: sub.State, Warning: sub.Warning, Admission: sub.Admission,
		}
	}
	status := http.StatusAccepted
	if !accepted {
		status = http.StatusUnprocessableEntity
	}
	writeJSON(w, status, resp)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id, err := strconv.Atoi(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, model.WireError{
			Code: model.ErrCodeNotFound, Message: fmt.Sprintf("no job %q", r.PathValue("id"))})
		return
	}
	// The owning shard copies the status under its lock (with the forwarding
	// table chased for migrated jobs); the write to the network happens after
	// release: a slow client must never block a loop.
	st, known := s.jobStatus(id)
	if !known {
		writeError(w, http.StatusNotFound, model.WireError{
			Code: model.ErrCodeNotFound, Message: fmt.Sprintf("no job %d", id)})
		return
	}
	writeJSON(w, http.StatusOK, st)
}

// handleTenants serves the per-tenant weighted-flow accounting, merged
// across every shard (retired ones included) plus the router's shed counts.
func (s *Server) handleTenants(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.TenantStats())
}

// handlePlatform is the live re-sharding admin API: it accepts the same
// platform JSON the daemon was started with (machines plus the optional
// "shards" override) and repartitions the running fleet against it.
func (s *Server) handlePlatform(w http.ResponseWriter, r *http.Request) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxPlatformBytes))
	if err != nil {
		writeError(w, http.StatusBadRequest, invalidArg(err))
		return
	}
	plat, err := model.ParsePlatformConfig(data)
	if err != nil {
		writeError(w, http.StatusBadRequest, invalidArg(err))
		return
	}
	resp, err := s.Reshard(plat)
	if err != nil {
		status := http.StatusUnprocessableEntity
		we := model.WireError{Code: model.ErrCodeInvalidArgument, Message: err.Error()}
		switch {
		case errors.Is(err, ErrReshardDisabled):
			status = http.StatusForbidden
			we.Code = model.ErrCodeReshardDisabled
		case errors.Is(err, ErrClosed):
			status = http.StatusServiceUnavailable
			we.Code = model.ErrCodeFleetClosed
			we.RetryAfter = retryAfterSeconds
		case errors.Is(err, errWALDegraded):
			status = http.StatusServiceUnavailable
			we.Code = model.ErrCodeWALDegraded
		}
		writeError(w, status, we)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSchedule(w http.ResponseWriter, r *http.Request) {
	var since exact.Q
	if q := r.URL.Query().Get("since"); q != "" {
		rat, err := model.ParseWireRat(q, "since")
		if err != nil {
			writeError(w, http.StatusBadRequest, invalidArg(fmt.Errorf("bad since: %w (want a rational like 3/2)", err)))
			return
		}
		since = exact.FromRat(rat)
	}
	// Each shard deep-copies its window under its own lock; the merge and
	// the serialization run lock-free. Retired shards contribute the pieces
	// executed before their generation ended, so the merged Gantt stays the
	// whole execution history across reshards.
	var merged []schedule.Piece
	var now, makespan exact.Q // makespan of the whole execution, not the window
	for _, sh := range s.allShards() {
		rep, err := sh.link.Schedule(shardlink.ScheduleArgs{Since: since})
		if err != nil {
			// A shard whose transport failed contributes nothing: the merged
			// view degrades to the reachable fleet rather than erroring.
			continue
		}
		merged = append(merged, rep.Pieces...)
		if rep.Now.Cmp(now) > 0 {
			now = rep.Now
		}
		if rep.Makespan.Cmp(makespan) > 0 {
			makespan = rep.Makespan
		}
	}
	// Each shard's trace is already start-ordered; a stable sort interleaves
	// the shards without disturbing per-shard (and single-shard) order.
	sort.SliceStable(merged, func(a, b int) bool {
		if c := merged[a].Start.Cmp(merged[b].Start); c != 0 {
			return c < 0
		}
		return merged[a].Machine < merged[b].Machine
	})
	raw, err := json.Marshal(&schedule.Schedule{Pieces: merged})
	if err != nil {
		writeError(w, http.StatusInternalServerError, model.WireError{Code: model.ErrCodeInternal, Message: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, model.ScheduleResponse{
		Now:      now.String(),
		Makespan: makespan.String(),
		Schedule: raw,
	})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}

// handleHealth is the liveness/readiness probe: 200 while every active shard
// is healthy, 503 naming the stalled shards — an unreachable worker shard is
// as stalled as a latched one, and listed first. It reads the routing keys the
// router places by, which no shard's mu guards, so a probe never waits behind
// an in-flight exact solve. Retired shards are history, not health; they are
// not consulted.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	resp := model.HealthResponse{Status: "ok"}
	routes, down := readRoutes(s.active())
	for _, r := range append(down, routes...) {
		if r.Err != "" {
			resp.StalledShards = append(resp.StalledShards, r.sh.idx)
			resp.Errors = append(resp.Errors, r.Err)
		}
	}
	if err := s.dur.latchedErr(); err != nil {
		// Frozen durability degrades the probe but does not fail it: the
		// scheduler is still serving, only crash recovery is gone.
		resp.Status = "degraded"
		resp.WALError = err.Error()
	}
	if len(resp.StalledShards) > 0 {
		resp.Status = "stalled"
		writeJSON(w, http.StatusServiceUnavailable, resp)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleEvents pages through the event journal: ?since= resumes from a
// cursor (the next field of the previous response), ?type= and ?shard=
// filter, ?limit= bounds the page.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	var since int64
	if v := q.Get("since"); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, invalidArg(fmt.Errorf("bad since %q: want a non-negative integer", v)))
			return
		}
		since = n
	}
	f := obs.Filter{Type: q.Get("type"), Shard: -1}
	if v := q.Get("shard"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeError(w, http.StatusBadRequest, invalidArg(fmt.Errorf("bad shard %q: want a non-negative integer", v)))
			return
		}
		f.Shard = n
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			writeError(w, http.StatusBadRequest, invalidArg(fmt.Errorf("bad limit %q: want a positive integer", v)))
			return
		}
		f.Limit = n
	}
	events, next, dropped := s.tel.journal.Since(since, f)
	if events == nil {
		events = []obs.Event{}
	}
	writeJSON(w, http.StatusOK, model.EventsResponse{Events: events, Next: next, Dropped: dropped})
}

// fleetStats is one read of the whole fleet: the topology figures and every
// reachable shard's snapshot, whose ledgers flow() and tenants() merge.
// GET /v1/stats, GET /v1/tenants and the /metrics scrape each project it.
type fleetStats struct {
	generation, active int
	events             int64          // journal cursor
	wal                model.WALStats // zero without a write-ahead log
	// shards holds one snapshot per reachable shard in creation order, retired
	// ones included: their counters are history the aggregates must keep.
	shards []shardlink.StatsSnapshot
}

// flow merges every shard's completed-job ledger.
func (f *fleetStats) flow() shardlink.FlowTotals {
	var flow shardlink.FlowTotals
	for i := range f.shards {
		flow.Merge(f.shards[i].Totals.FlowTotals)
	}
	return flow
}

// tenants merges every shard's tenant ledger.
func (f *fleetStats) tenants() shardlink.TenantLedger {
	tenants := make(shardlink.TenantLedger)
	for i := range f.shards {
		tenants.Merge(f.shards[i].Tenants)
	}
	return tenants
}

// readFleet is the one fan-out over the shards' stats. Every snapshot crosses
// the shardlink boundary — the in-process transport serves it under the
// shard's lock, a worker shard over its RPC connection — and a shard whose
// transport fails is left out of this read rather than failing it.
func (s *Server) readFleet() fleetStats {
	s.topoMu.RLock()
	shardList := append([]*shard(nil), s.all...)
	f := fleetStats{
		generation: len(s.gens) - 1,
		active:     len(s.gens[len(s.gens)-1].shards),
	}
	s.topoMu.RUnlock()
	f.events, f.wal = s.tel.journal.NextSeq(), s.dur.stats()
	for _, sh := range shardList {
		if snap, err := sh.link.Stats(shardlink.StatsArgs{}); err == nil {
			f.shards = append(f.shards, snap)
		}
	}
	return f
}

// Stats projects the fleet read onto the GET /v1/stats body: fleet-wide
// aggregates plus the per-shard breakdown (retired shards marked retired).
func (s *Server) Stats() model.StatsResponse {
	f := s.readFleet()
	resp := model.StatsResponse{
		Policy:        s.policyName,
		ShardCount:    f.active,
		Generation:    f.generation,
		ReshardEvents: f.generation,
	}
	if s.dur != nil {
		resp.WAL = &f.wal
	}
	var now exact.Q
	for i := range f.shards {
		if t := f.shards[i].Now; t.Cmp(now) > 0 {
			now = t
		}
		w := &f.shards[i].Wire
		resp.Shards = append(resp.Shards, *w)
		resp.JobsAccepted += w.JobsAccepted
		resp.JobsLive += w.JobsLive
		resp.JobsCompleted += w.JobsCompleted
		resp.Events += w.Events
		resp.LPSolves += w.LPSolves
		resp.PlanCacheHits += w.PlanCacheHits
		resp.ArrivalBatches += w.ArrivalBatches
		resp.BatchedArrivals += w.BatchedArrivals
		resp.CompactedJobs += w.CompactedJobs
		resp.StolenJobs += w.StolenJobs
		resp.Migrations += w.Migrations
		resp.ReshardedJobs += w.ReshardedIn
		resp.LargestBatch = max(resp.LargestBatch, w.LargestBatch)
		// A retired shard's latched error is history, not service health: its
		// jobs were migrated to live shards by the reshard that retired it.
		if w.Stalled && !w.Retired {
			resp.Stalled = true
		}
		if resp.LastError == "" && !w.Retired {
			resp.LastError = w.LastError
		}
		resp.Solver.Merge(w.Solver)
	}
	resp.Now = now.String()
	if flow := f.flow(); flow.DoneCount > 0 {
		resp.MaxWeightedFlow = flow.MaxWF.String()
		resp.MaxStretch = flow.MaxStretch.String()
		resp.MeanFlow = flow.FlowSum.Quo(exact.Int(int64(flow.DoneCount))).Float64()
		// The same bucket counts /metrics exports, the same estimator
		// Prometheus's histogram_quantile applies to them: the two surfaces
		// cannot disagree on the P95.
		resp.P95Flow = p95(flow.Flow)
	}
	return resp
}

// p95 estimates the 95th percentile off a ledger histogram; a ledger restored
// from a document that predates the histogram has none.
func p95(h *obs.HistogramSnapshot) float64 {
	if h == nil {
		return 0
	}
	return h.Quantile(95)
}

// TenantStats projects the fleet read onto the GET /v1/tenants rows, sorted
// by tenant name. Retired shards contribute their history like every other
// read; quota sheds never reach a shard, so their counts come from the
// router's own counter.
func (s *Server) TenantStats() model.TenantsResponse {
	f := s.readFleet()
	tenants := f.tenants()
	shed := make(map[string]int)
	s.tel.tenantShed.Each(func(labels []string, n uint64) {
		shed[labels[0]] = int(n)
		tenants.Merge(shardlink.TenantLedger{labels[0]: {}}) // a row even if nothing of the tenant's was ever accepted
	})
	names := make([]string, 0, len(tenants))
	for name := range tenants {
		names = append(names, name)
	}
	sort.Strings(names)
	resp := model.TenantsResponse{Tenants: make([]model.TenantStats, 0, len(names))}
	for _, name := range names {
		t := tenants[name]
		row := model.TenantStats{
			Tenant:    name,
			Weight:    s.tenants.Weight(name).RatString(),
			Submitted: t.Submitted,
			Completed: t.Completed,
			Shed:      shed[name],
			Backlog:   t.Backlog.String(),
			ByClass:   t.ByClass,
		}
		if t.Completed > 0 {
			row.MaxWeightedFlow = t.MaxWF.String()
			row.MeanFlow = t.FlowSum.Quo(exact.Int(int64(t.Completed))).Float64()
			// Same buckets, same estimator as /metrics: the two surfaces
			// agree on the per-tenant P95.
			row.P95WeightedFlow = p95(t.WFlow)
		}
		resp.Tenants = append(resp.Tenants, row)
	}
	return resp
}
