package server

import (
	"io"
	"strconv"
	"sync"
	"time"

	"divflow/internal/exact"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/stats"
)

// Solver-path labels of divflow_solve_seconds and divflow_solver_path_total.
// One scheduling decision can settle several inner range LPs on different
// paths; the decision is labeled by the worst path any of them took, so a
// "float_verified" sample really means no LP of that solve needed more.
// pathCrossover labels only the divflow_solver_path_total series the
// exposition format keeps: the engine has no crossover path, so it reads 0.
const (
	pathWarm          = "warm"
	pathFloatVerified = "float_verified"
	pathCrossover     = "crossover"
	pathExactFallback = "exact_fallback"
)

// solvePath classifies one solve's per-call tally by its worst path.
func solvePath(t stats.SolverTally) string {
	switch {
	case t.Fallbacks > 0:
		return pathExactFallback
	case t.FloatVerified > 0:
		return pathFloatVerified
	default:
		return pathWarm
	}
}

// telemetry is the server's observability state: the metric registry behind
// GET /metrics and the event journal behind GET /v1/events. It always exists
// — the per-shard flow histograms it owns back the /v1/stats P95 estimate
// even with the exporter disabled — but enabled=false (the -metrics=false
// kill switch) turns off everything with a measurable cost on the scheduling
// paths: journal appends and the wall-clock reads feeding the latency
// histograms. The HTTP surface then 404s /metrics and /v1/events.
//
// Counters and gauges describing shard state are not incremented inline:
// Server.collectMetrics refreshes them at scrape time from the same
// statsSnapshot GET /v1/stats reads, so the two surfaces cannot disagree.
// Only quantities with no authoritative counter elsewhere (latency
// histograms, rejected submissions) are recorded inline.
type telemetry struct {
	enabled bool
	reg     *obs.Registry
	journal *obs.Journal

	// collectMu serializes scrape-time collection: two interleaved scrapes
	// could otherwise write an older snapshot's value after a newer one's,
	// making a monotone counter appear to regress between two reads.
	//divflow:locks name=collect before=shard
	collectMu sync.Mutex

	// Inline instruments.
	rejections     *obs.Counter
	submitAdmit    *obs.HistogramVec // {shard}: submit→admit wall seconds
	solveSeconds   *obs.HistogramVec // {shard,path}: per-solve wall seconds
	stealSeconds   *obs.HistogramVec // {shard}: donor catch-up + migration
	reshardSeconds *obs.Histogram    // structural reshard migration
	flowTime       *obs.HistogramVec // {shard}: completed flows, virtual time
	walErrors      *obs.Counter      // latched + transient WAL failures
	recoverySecs   *obs.Histogram    // startup snapshot-load + WAL-replay duration
	linkCalls      *obs.CounterVec   // {transport,op}: shardlink operations issued
	rpcSeconds     *obs.HistogramVec // {op}: shardlink RPC round-trip wall seconds
	tenantShed     *obs.CounterVec   // {tenant}: submissions shed by the fairness quota
	tenantWFlow    *obs.HistogramVec // {shard,tenant}: completed weighted flows, virtual time

	// Scrape-time families (Server.collectMetrics): the three tables' setters,
	// then the two families whose second label fits no table.
	setFleet   func(f *fleetStats, _ ...string)
	setShard   func(snap *shardlink.StatsSnapshot, shard ...string)
	setTenant  func(totals *shardlink.TenantTotals, tenant ...string)
	solverPath *obs.CounterVec
	solverWarm *obs.CounterVec
}

// series is one scrape-time family — a counter unless gauge — whose samples
// are read off a T at every scrape, never incremented inline.
type series[T any] struct {
	name, help string
	gauge      bool
	get        func(*T) float64
}

// fleetSeries lists the unlabelled scrape-time families, read off the fleet
// read itself.
var fleetSeries = []series[fleetStats]{
	{"divflow_topology_generation", "Current topology generation (0 until the first structural reshard).", true, func(f *fleetStats) float64 { return float64(f.generation) }},
	{"divflow_active_shards", "Shards in the active topology.", true, func(f *fleetStats) float64 { return float64(f.active) }},
	{"divflow_reshard_events_total", "Completed structural reshards (topology generation advances).", false, func(f *fleetStats) float64 { return float64(f.generation) }},
	{"divflow_journal_events_total", "Events appended to the journal (GET /v1/events).", false, func(f *fleetStats) float64 { return float64(f.events) }},
	{"divflow_wal_appends_total", "Records durably appended to the write-ahead log.", false, func(f *fleetStats) float64 { return float64(f.wal.Appends) }},
	{"divflow_wal_snapshots_total", "Fleet snapshots written (the WAL is truncated behind each).", false, func(f *fleetStats) float64 { return float64(f.wal.Snapshots) }},
	{"divflow_wal_replayed_records_total", "WAL records replayed through the admission paths at the last startup.", false, func(f *fleetStats) float64 { return float64(f.wal.Replayed) }},
}

type shardSnap = shardlink.StatsSnapshot

// shardSeries lists the {shard}-labelled scrape-time families, each read off
// the shard's stats snapshot — the one GET /v1/stats renders, so the two
// surfaces cannot disagree. A new per-shard counter is one row here.
var shardSeries = []series[shardSnap]{
	{"divflow_submissions_total", "Jobs accepted, by birth shard.", false, func(s *shardSnap) float64 { return float64(s.Wire.JobsAccepted) }},
	{"divflow_jobs_completed_total", "Jobs completed, by completing shard.", false, func(s *shardSnap) float64 { return float64(s.Wire.JobsCompleted) }},
	{"divflow_engine_events_total", "Scheduling decisions (engine events) taken.", false, func(s *shardSnap) float64 { return float64(s.Wire.Events) }},
	{"divflow_lp_solves_total", "Exact residual LP solves performed.", false, func(s *shardSnap) float64 { return float64(s.Wire.LPSolves) }},
	{"divflow_plan_cache_hits_total", "Decision points served from the cached plan.", false, func(s *shardSnap) float64 { return float64(s.Wire.PlanCacheHits) }},
	{"divflow_arrival_batches_total", "Admission batches (arrivals sharing one re-solve).", false, func(s *shardSnap) float64 { return float64(s.Totals.ArrivalBatches) }},
	{"divflow_batched_arrivals_total", "First admissions folded into arrival batches.", false, func(s *shardSnap) float64 { return float64(s.Totals.BatchedArrivals) }},
	{"divflow_jobs_stolen_in_total", "Jobs migrated here by work stealing.", false, func(s *shardSnap) float64 { return float64(s.Totals.StolenIn) }},
	{"divflow_jobs_stolen_out_total", "Jobs stolen away from here.", false, func(s *shardSnap) float64 { return float64(s.Totals.MigratedOut) }},
	{"divflow_jobs_resharded_in_total", "Jobs migrated here by live reshards.", false, func(s *shardSnap) float64 { return float64(s.Totals.ReshardIn) }},
	{"divflow_jobs_resharded_out_total", "Jobs migrated away from here by live reshards.", false, func(s *shardSnap) float64 { return float64(s.Totals.ReshardOut) }},
	{"divflow_compacted_jobs_total", "Job records dropped by the retention policy.", false, func(s *shardSnap) float64 { return float64(s.Totals.CompactedJobs) }},
	{"divflow_shard_panics_total", "Loop panics caught by the shard supervisor.", false, func(s *shardSnap) float64 { return float64(s.Totals.Panics) }},
	{"divflow_backlog_work", "Residual work routed to the shard (float approximation of the exact rational).", true, func(s *shardSnap) float64 { return s.BacklogF }},
	{"divflow_jobs_live", "Jobs live in the shard engine.", true, func(s *shardSnap) float64 { return float64(s.Wire.JobsLive) }},
	{"divflow_jobs_queued", "Jobs accepted but not yet admitted.", true, func(s *shardSnap) float64 { return float64(s.Wire.JobsQueued) }},
	{"divflow_shard_stalled", "1 while the shard has latched a scheduling error.", true, func(s *shardSnap) float64 { return boolGauge(s.Wire.Stalled) }},
	{"divflow_shard_retired", "1 once a reshard retired the shard from the active topology.", true, func(s *shardSnap) float64 { return boolGauge(s.Wire.Retired) }},
	{"divflow_shard_generation", "Newest topology generation the shard is (or was) a member of.", true, func(s *shardSnap) float64 { return float64(s.Wire.Generation) }},
}

// tenantSeries lists the {tenant}-labelled ones, read off the fleet's merged
// tenant ledger — the one GET /v1/tenants renders.
var tenantSeries = []series[shardlink.TenantTotals]{
	{"divflow_tenant_submissions_total", "Jobs accepted, by tenant (fleet-wide; untracked traffic absent).", false,
		func(t *shardlink.TenantTotals) float64 { return float64(t.Submitted) }},
	{"divflow_tenant_completed_total", "Jobs completed, by tenant (fleet-wide; untracked traffic absent).", false,
		func(t *shardlink.TenantTotals) float64 { return float64(t.Completed) }},
	{"divflow_tenant_backlog_work", "Residual work, by tenant (fleet-wide float approximation of the exact rational).", true,
		func(t *shardlink.TenantTotals) float64 { return t.Backlog.Float64() }},
}

// registerSeries registers every row's family under the given label (none for
// the fleet's) and returns the scrape-time setter: it writes each row's
// sample for the given label value, read off v.
func registerSeries[T any](r *obs.Registry, rows []series[T], label ...string) func(v *T, value ...string) {
	sets := make([]func(*T, []string), len(rows))
	for i, row := range rows {
		if row.gauge {
			g := r.Gauge(row.name, row.help, label...)
			sets[i] = func(v *T, value []string) { g.With(value...).Set(row.get(v)) }
		} else {
			c := r.Counter(row.name, row.help, label...)
			sets[i] = func(v *T, value []string) { c.With(value...).Set(uint64(row.get(v))) }
		}
	}
	return func(v *T, value ...string) {
		for _, set := range sets {
			set(v, value)
		}
	}
}

// newTelemetry builds the registry (every family registered up front, so a
// scrape before the first event still shows the full schema for families with
// children) and the journal. sink, when non-nil, receives every journaled
// event as one NDJSON line.
func newTelemetry(enabled bool, sink io.Writer) *telemetry {
	r := obs.NewRegistry()
	t := &telemetry{
		enabled: enabled,
		reg:     r,
		journal: obs.NewJournal(obs.DefJournalCapacity, sink),

		rejections: r.Counter("divflow_rejections_total",
			"Submissions refused (unparseable, or no machine hosts the databanks).").With(),
		submitAdmit: r.Histogram("divflow_submit_admit_seconds",
			"Wall time from submission to engine admission.", obs.DefLatencyBuckets, "shard"),
		solveSeconds: r.Histogram("divflow_solve_seconds",
			"Wall time of one scheduling decision's exact solve, by worst solver path.",
			obs.DefLatencyBuckets, "shard", "path"),
		stealSeconds: r.Histogram("divflow_steal_seconds",
			"Wall time of one successful steal (donor catch-up through migration), by thief shard.",
			obs.DefLatencyBuckets, "shard"),
		reshardSeconds: r.Histogram("divflow_reshard_migration_seconds",
			"Wall time of one structural reshard (catch-ups, migration, topology publish).",
			obs.DefLatencyBuckets).With(),
		flowTime: r.Histogram("divflow_flow_time",
			"Completed jobs' flow times (virtual time units); backs the /v1/stats P95.",
			obs.DefFlowBuckets, "shard"),
		walErrors: r.Counter("divflow_wal_errors_total",
			"Write-ahead log append/fsync/snapshot failures (the first one latches and freezes durability).").With(),
		recoverySecs: r.Histogram("divflow_recovery_seconds",
			"Wall time of the startup recovery: snapshot load + WAL replay.",
			obs.DefLatencyBuckets).With(),
		linkCalls: r.Counter("divflow_shardlink_calls_total",
			"Shard operations issued by the router, by transport and operation.", "transport", "op"),
		rpcSeconds: r.Histogram("divflow_shardlink_rpc_seconds",
			"Round-trip wall time of one shardlink RPC (loopback pipe), by operation.",
			obs.DefLatencyBuckets, "op"),
		tenantShed: r.Counter("divflow_tenant_shed_total",
			"Submissions shed by the weighted-fairness quota (tenant_over_quota), by tenant.", "tenant"),
		tenantWFlow: r.Histogram("divflow_tenant_weighted_flow",
			"Completed jobs' weighted flows (virtual time units), by shard and tenant; backs the /v1/tenants P95.",
			obs.DefFlowBuckets, "shard", "tenant"),

		solverPath: r.Counter("divflow_solver_path_total",
			"Inner LP solves settled, by hybrid-engine path.", "shard", "path"),
		solverWarm: r.Counter("divflow_solver_warm_total",
			"Warm-start attempts of inner LP solves, by outcome.", "shard", "result"),
		setFleet:  registerSeries(r, fleetSeries),
		setShard:  registerSeries(r, shardSeries, "shard"),
		setTenant: registerSeries(r, tenantSeries, "tenant"),
	}
	return t
}

// now reads the wall clock only when telemetry is on: the zero time tells
// instrumentation sites to skip their histogram observation, so the
// -metrics=false kill switch removes every clock read from the hot paths.
func (t *telemetry) now() time.Time {
	if !t.enabled {
		return time.Time{}
	}
	return time.Now()
}

// sinceSeconds measures elapsed wall time for a latency histogram. Keeping
// the time.Since call here (telemetry.go is the wallclock allowlist) makes
// every instrumentation-side elapsed-time read flow through the same choke
// point the kill switch and the analyzer both understand.
func (t *telemetry) sinceSeconds(start time.Time) float64 {
	return time.Since(start).Seconds()
}

// event journals one server-level event (Shard = -1).
func (t *telemetry) event(typ string, gen, gid int, detail string) {
	if !t.enabled {
		return
	}
	t.journal.Append(obs.Event{Type: typ, Shard: -1, Gen: gen, GID: gid, Detail: detail})
}

// shardObs is one shard's bundle of telemetry instruments: cached histogram
// children (no per-observation map lookups on the completion path) plus the
// journal hookup. It also implements sim.MWFObserver, so the policy's solve
// telemetry lands here without the shard layer re-deriving it. Shards built
// outside a server (unit tests driving newShard directly) get a detached
// bundle whose flow histogram still works — it backs the P95 estimate — and
// whose every other method is a no-op.
type shardObs struct {
	tel   *telemetry // nil on a detached bundle
	sh    *shard
	label string

	flow        *obs.Histogram
	submitAdmit *obs.Histogram
	steal       *obs.Histogram
	// tenantWF caches per-tenant weighted-flow histogram children, built
	// lazily on a tenant's first completion. Accessed under the shard's mu.
	tenantWF map[string]*obs.Histogram
}

// tenantWFlow returns (creating on first use) the tenant's weighted-flow
// histogram child; detached bundles get a free-standing histogram so the
// snapshot path works in unit tests too. Callers hold the shard's mu.
//
//divflow:locks requires=shard
func (o *shardObs) tenantWFlow(tenant string) *obs.Histogram {
	if o.tenantWF == nil {
		o.tenantWF = make(map[string]*obs.Histogram)
	}
	h := o.tenantWF[tenant]
	if h == nil {
		if o.tel != nil {
			h = o.tel.tenantWFlow.With(o.label, tenant)
		} else {
			h = obs.NewHistogram(obs.DefFlowBuckets)
		}
		o.tenantWF[tenant] = h
	}
	return h
}

// newShardObs builds the registry-backed bundle for one shard.
func (t *telemetry) newShardObs(sh *shard) *shardObs {
	label := strconv.Itoa(sh.idx)
	return &shardObs{
		tel:         t,
		sh:          sh,
		label:       label,
		flow:        t.flowTime.With(label),
		submitAdmit: t.submitAdmit.With(label),
		steal:       t.stealSeconds.With(label),
	}
}

// on reports whether the bundle feeds a live telemetry layer.
func (o *shardObs) on() bool { return o.tel != nil && o.tel.enabled }

// now is telemetry.now for shard-side instrumentation sites.
func (o *shardObs) now() time.Time {
	if !o.on() {
		return time.Time{}
	}
	return time.Now()
}

// sinceSeconds is telemetry.sinceSeconds for shard-side sites.
func (o *shardObs) sinceSeconds(start time.Time) float64 {
	return time.Since(start).Seconds()
}

// event journals one event of this shard, at the virtual time at when one is
// given. Callers hold the shard's mu (the generation field is read under it).
//
//divflow:locks requires=shard
func (o *shardObs) event(typ string, gid int, detail string, at ...exact.Q) {
	if !o.on() {
		return
	}
	e := obs.Event{Type: typ, Shard: o.sh.idx, Gen: o.sh.gen, GID: gid, Detail: detail}
	if len(at) > 0 {
		e.VTime = at[0].String()
	}
	o.tel.journal.Append(e)
}

// ObserveSolve implements sim.MWFObserver: one settled exact solve, timed by
// the core solver. Called under the shard's mu.
//
//divflow:locks requires=shard
func (o *shardObs) ObserveSolve(wall time.Duration, solver stats.SolverTally) {
	if !o.on() {
		return
	}
	path := solvePath(solver)
	o.tel.solveSeconds.With(o.label, path).Observe(wall.Seconds())
	o.event(obs.EventSolve, -1, path, o.sh.eng.Now())
}

// ObserveCacheHit implements sim.MWFObserver: one decision point served from
// the cached plan. Called under the shard's mu.
//
//divflow:locks requires=shard
func (o *shardObs) ObserveCacheHit() {
	if !o.on() {
		return
	}
	o.event(obs.EventPlanCacheHit, -1, "", o.sh.eng.Now())
}

// collectMetrics projects the fleet read onto the scrape-time families —
// each shard's mu is taken briefly, exactly like a stats read — so the
// exporter and the stats endpoint answer from one source. A shard whose
// transport fails mid-scrape just keeps its previous values. Registered as
// the registry's collect hook; runs at every scrape.
func (s *Server) collectMetrics() {
	t := s.tel
	t.collectMu.Lock()
	defer t.collectMu.Unlock()
	f := s.readFleet()
	t.setFleet(&f)
	for i := range f.shards {
		l := strconv.Itoa(f.shards[i].Wire.Shard)
		t.setShard(&f.shards[i], l)
		solver := &f.shards[i].Wire.Solver
		t.solverPath.With(l, pathFloatVerified).Set(uint64(solver.FloatVerified))
		t.solverPath.With(l, pathCrossover).Set(uint64(solver.Crossovers))
		t.solverPath.With(l, pathExactFallback).Set(uint64(solver.Fallbacks))
		t.solverWarm.With(l, "hit").Set(uint64(solver.WarmHits))
		t.solverWarm.With(l, "miss").Set(uint64(solver.WarmMisses))
	}
	for name, totals := range f.tenants() {
		t.setTenant(totals, name)
	}
}

func boolGauge(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
