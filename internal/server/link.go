package server

import (
	"fmt"

	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// This file is the server side of the shardlink boundary: the shard-level
// handlers behind every transport, and the router's handle on one shard —
// link — which either calls those handlers directly or reaches them behind
// net/rpc over a loopback pipe. The router holds exactly one link per shard
// and speaks to the shard only through it; which transport sits behind it is
// invisible above this file.

// Migration reasons carried in shardlink.AdmitArgs and the WAL.
const (
	migrateSteal   = "steal"
	migrateReshard = "reshard"
)

// linkOp indexes linkOps, the one listing of the router↔shard operation set.
type linkOp int

const (
	opSubmit linkOp = iota
	opJobStatus
	opSchedule
	opStats
	opRouteInfo
	opPoke
	opExtract
	opAdmit
	opCommit
	opAbort
	numOps
)

// linkOps names each operation twice: the shardRPC method a remote call
// addresses, and the op label of the divflow_shardlink_calls_total counter
// and the divflow_shardlink_rpc_seconds histogram.
var linkOps = [numOps]struct{ method, label string }{
	opSubmit:    {"Submit", "submit"},
	opJobStatus: {"JobStatus", "job_status"},
	opSchedule:  {"Schedule", "schedule"},
	opStats:     {"Stats", "stats"},
	opRouteInfo: {"RouteInfo", "route_info"},
	opPoke:      {"Poke", "poke"},
	opExtract:   {"ExtractJobs", "extract"},
	opAdmit:     {"AdmitMigrated", "admit"},
	opCommit:    {"CommitExtract", "commit"},
	opAbort:     {"AbortExtract", "abort"},
}

// ---------------------------------------------------------------------------
// Shard-side operations. These are what both transports ultimately invoke;
// each takes the shard's own mu and nothing beyond it.

// submitRefusals pairs each refusal outcome of a submit with the router's
// sentinel error for it; any other error travels as OutcomeNoHost, its text
// in Err.
var submitRefusals = map[string]error{
	shardlink.OutcomeRetired:  errRetired,
	shardlink.OutcomeClosed:   ErrClosed,
	shardlink.OutcomeDeadline: errDeadline,
	shardlink.OutcomeStalled:  errAdmissionStalled,
}

// submitOp is shard.submit in message form: the error cases the router keys
// its control flow on (retired → re-route, closed → 503, no-host → 422,
// infeasible deadline → typed reject with the certificate, unchecked strict
// admission → 503) travel as a closed outcome enum, so they survive any
// transport.
func (sh *shard) submitOp(args shardlink.SubmitArgs) shardlink.SubmitReply {
	gid, cert, err := sh.submit(args.Job)
	if err == nil {
		return shardlink.SubmitReply{GID: gid, Outcome: shardlink.OutcomeOK, Admission: cert}
	}
	for outcome, sentinel := range submitRefusals {
		if err == sentinel {
			return shardlink.SubmitReply{Outcome: outcome, Admission: cert}
		}
	}
	return shardlink.SubmitReply{Outcome: shardlink.OutcomeNoHost, Err: err.Error()}
}

// submitErr maps a SubmitReply back to the router's error vocabulary,
// restoring sentinel identity so Submit's retry loop and the HTTP status
// mapping behave identically on every transport.
func submitErr(rep shardlink.SubmitReply) (int, error) {
	if rep.Outcome == shardlink.OutcomeOK {
		return rep.GID, nil
	}
	if err, ok := submitRefusals[rep.Outcome]; ok {
		return 0, err
	}
	return 0, fmt.Errorf("%s", rep.Err)
}

// ---------------------------------------------------------------------------
// Migration. "Move job j with remaining fraction ρ_j from shard A to shard B"
// is the divisible-load model's one structural operation, and these four
// handlers are its only implementation: work stealing, live re-sharding, WAL
// replay and the restore-time repair all drive them (Server.migrate, and the
// replay functions in durability.go). Each runs under its own shard's mu and
// nothing else, and each logs its own WAL record under that mu — so the log
// orders a migration's steps exactly as the donor's and the destination's
// other records saw them, and replaying the records through these same
// functions retraces the live run.

// extractJobs is the reserve phase, on the donor: catch up, select — the
// steal census against the thief's machines, or everything when a reshard
// drains a retired shard — and pull the selection out of the engine and the
// pending queue. The extracted records are *reserved*, not yet migrated: they
// stay readable at their pre-move state (no not-found window while the
// messages are in flight) and their work stays in the donor's backlog until
// commitExtract, so the router's view of fleet-wide residual work never dips
// mid-exchange.
func (sh *shard) extractJobs(args shardlink.ExtractArgs) shardlink.ExtractReply {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	// A closed donor is off limits — during Server.Close a still-running
	// shard must not extract live jobs from an already-drained one just to
	// have its own close() mark them rejected. Retirement must match the
	// mode: a steal never touches a shard a reshard is draining.
	if sh.closed || sh.retired != args.All {
		return shardlink.ExtractReply{}
	}
	// Remaining fractions must reflect everything (notionally) executed up
	// to the present — the engine may be asleep at its last event — and the
	// catch-up's re-solve must happen before the selection reads the engine.
	// A latched donor skips it and still gives: its jobs are better off
	// anywhere else.
	if sh.lastErr == nil {
		sh.catchUp()
	}
	var locals []int
	if args.All {
		for _, v := range sh.census() {
			locals = append(locals, v.ID)
		}
	} else {
		locals = sh.stealCensus(func(databanks []string) bool {
			return hostsAny(args.ThiefMachines, databanks)
		})
	}
	return sh.reserve(locals)
}

// reserve takes the listed jobs out of the engine and the pending queue at
// the engine's current time, logging the extraction write-ahead. Replay calls
// it with the recorded selection after catching up to the recorded time.
// Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) reserve(locals []int) shardlink.ExtractReply {
	if len(locals) == 0 {
		return shardlink.ExtractReply{}
	}
	rep := shardlink.ExtractReply{From: sh.idx, At: sh.eng.Now()}
	sh.wal.append(walTypeExtract, &recExtract{Shard: sh.idx, At: rep.At, Locals: locals})
	at := rep.At
	taken := make(map[int]bool, len(locals))
	removedLive := false
	for _, local := range locals {
		rec := sh.records.get(local)
		taken[local] = true
		if rec.State == StateScheduled {
			// Live: the engine hands back the exact unprocessed fraction.
			if rj, err := sh.eng.Remove(local); err == nil {
				rec.Remaining = rj.Remaining
				removedLive = true
			}
		}
		// The extraction time stamped now, because every donor piece of the
		// job ends by it — that, not the later commit, fixes the record's
		// compaction horizon.
		rec.MigratedAt = &at
		rep.Jobs = append(rep.Jobs, shardlink.MigratedJob{
			FromLocal: local, GID: rec.GID, Remaining: rec.Remaining, Counted: rec.Counted, Job: rec.Job,
		})
	}
	kept := sh.pending[:0]
	for _, rec := range sh.pending {
		if !taken[rec.ID] {
			kept = append(kept, rec)
		}
	}
	sh.pending = kept
	// Re-plan immediately: the extraction invalidated the plan cache, and the
	// machines that ran the extracted jobs must not idle for a whole message
	// round-trip waiting for the commit.
	if removedLive && sh.lastErr == nil {
		sh.decide()
	}
	return rep
}

// admitMigrated is the adoption phase on the destination. Accepted=false —
// a job in the message is malformed (MigratedJob.Check), the shard retired or
// closed while the exchange was in flight, or a thief latched an error —
// tells the router to abort the donor's reservation. A malformed message is
// refused before anything is logged or adopted, so it cannot latch the
// engine.
func (sh *shard) admitMigrated(args shardlink.AdmitArgs) shardlink.AdmitReply {
	for i := range args.Jobs {
		if args.Jobs[i].Check() != nil {
			return shardlink.AdmitReply{}
		}
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.closed || sh.retired {
		return shardlink.AdmitReply{}
	}
	// Stealing onto a shard that can never schedule the work helps nobody; a
	// reshard does place on a stalled shard, when the router found no healthy
	// host. A thief that was idle when it asked and has since been handed a
	// submission still adopts: the donor's machines have already moved on,
	// and giving the jobs back would cost it two more exact solves to end up
	// where it started.
	if args.Reason == migrateSteal && sh.lastErr != nil {
		return shardlink.AdmitReply{}
	}
	sh.wal.append(walTypeAdopt, &recAdopt{Shard: sh.idx, AdmitArgs: &args})
	rep := shardlink.AdmitReply{Accepted: true}
	adopted := make([]*jobRecord, len(args.Jobs))
	for i := range args.Jobs {
		nrec := sh.adoptRecord(&args.Jobs[i])
		adopted[i] = nrec
		rep.Locals = append(rep.Locals, nrec.ID)
		if args.Reason == migrateReshard {
			sh.ReshardIn++
			sh.obs.event(obs.EventMigrate, nrec.GID, fmt.Sprintf("resharded from shard %d", args.From))
		} else {
			sh.StolenIn++
			sh.obs.event(obs.EventMigrate, nrec.GID, fmt.Sprintf("stolen from shard %d", args.From))
		}
	}
	sh.shiftBacklog(true, adopted...)
	if args.Reason == migrateSteal {
		sh.obs.event(obs.EventSteal, -1, fmt.Sprintf("%d jobs from shard %d", len(adopted), args.From), args.At)
	}
	return rep
}

// reservedRecords returns the listed records that an extraction reserved and
// no commit or abort has settled yet. Callers hold sh.mu.
//
//divflow:locks requires=shard
func (sh *shard) reservedRecords(locals []int) []*jobRecord {
	var recs []*jobRecord
	for _, local := range locals {
		if rec := sh.records.get(local); rec != nil && rec.MigratedAt != nil && rec.State != StateMigrated {
			recs = append(recs, rec)
		}
	}
	return recs
}

// commitExtract finishes a migration on the donor: the reserved records flip
// to the migrated state (readable only through the forwarding table, which
// the router updated before committing) and the moved work finally leaves the
// donor's backlog.
func (sh *shard) commitExtract(args shardlink.CommitArgs) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	recs := sh.reservedRecords(args.Locals)
	if len(recs) == 0 {
		return
	}
	sh.wal.append(walTypeCommit, &recSettle{Shard: sh.idx, Locals: args.Locals})
	for _, rec := range recs {
		sh.orphanRecord(rec)
		// Only a reshard drains a retired shard; everything else is a steal.
		if sh.retired {
			sh.ReshardOut++
		} else {
			sh.MigratedOut++
		}
	}
	sh.shiftBacklog(false, recs...)
}

// abortExtract is the give-back path: the destination refused (or the
// transport failed before adoption), so the reserved records re-enter the
// pending queue with their exact remaining fractions — re-admission through
// admitAll conserves every piece of executed work, under the record's
// original local ID (the engine accepts a removed ID back).
func (sh *shard) abortExtract(args shardlink.AbortArgs) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	recs := sh.reservedRecords(args.Locals)
	if len(recs) == 0 {
		return
	}
	sh.wal.append(walTypeAbort, &recSettle{Shard: sh.idx, Locals: args.Locals})
	for _, rec := range recs {
		rec.State = StateQueued // out of the engine until the loop re-admits it
		rec.MigratedAt = nil
		sh.pending = append(sh.pending, rec)
	}
	sh.poke()
}

// ---------------------------------------------------------------------------
// The shard-side adapter set, written once: shardRPC is one shard's net/rpc
// service ("Shard<idx>") — registered per shard on the loopback server — and
// the in-process transport calls the very same methods directly. A handler
// is pinned to its own shard at registration: no message can name another
// shard, so no handler ever needs a second shard's mutex. No handler has a
// static call path to Server.cut, the one function that holds two; the shard
// reaches router code only through its steal and dropForward func values, and
// cut's requires=reshard is checked at every call site.
type shardRPC struct {
	sh *shard
}

func (r *shardRPC) Submit(args *shardlink.SubmitArgs, reply *shardlink.SubmitReply) error {
	*reply = r.sh.submitOp(*args)
	return nil
}

func (r *shardRPC) JobStatus(args *shardlink.JobStatusArgs, reply *shardlink.JobStatusReply) error {
	st, known, migrated := r.sh.jobStatus(args.Local, args.GID)
	*reply = shardlink.JobStatusReply{Status: st, Known: known, Migrated: migrated}
	return nil
}

func (r *shardRPC) Schedule(args *shardlink.ScheduleArgs, reply *shardlink.ScheduleReply) error {
	*reply = r.sh.scheduleSnapshot(args.Since)
	return nil
}

func (r *shardRPC) Stats(_ *shardlink.StatsArgs, reply *shardlink.StatsSnapshot) error {
	*reply = r.sh.statsSnapshot()
	return nil
}

func (r *shardRPC) RouteInfo(_ *shardlink.RouteInfoArgs, reply *shardlink.RouteInfoReply) error {
	*reply = *r.sh.route.Load()
	return nil
}

func (r *shardRPC) Poke(_ *shardlink.PokeArgs, _ *shardlink.PokeReply) error {
	r.sh.poke()
	return nil
}

func (r *shardRPC) ExtractJobs(args *shardlink.ExtractArgs, reply *shardlink.ExtractReply) error {
	*reply = r.sh.extractJobs(*args)
	return nil
}

func (r *shardRPC) AdmitMigrated(args *shardlink.AdmitArgs, reply *shardlink.AdmitReply) error {
	*reply = r.sh.admitMigrated(*args)
	return nil
}

func (r *shardRPC) CommitExtract(args *shardlink.CommitArgs, _ *shardlink.CommitReply) error {
	r.sh.commitExtract(*args)
	return nil
}

func (r *shardRPC) AbortExtract(args *shardlink.AbortArgs, _ *shardlink.AbortReply) error {
	r.sh.abortExtract(*args)
	return nil
}

// remoteCaller is the remote side of a link, in the one-method shape
// *rpc.Client already has: whatever stands between the router and a shardRPC
// service — the loopback pipe, or a test's fault seam — is a value of it.
type remoteCaller interface {
	Call(serviceMethod string, args, reply any) error
}

// link is the router's handle on one shard: the complete operation set of
// the router↔shard boundary, safe for concurrent use. In process (remote
// nil) an operation is the shard's handler run on the caller's goroutine;
// otherwise it is one net/rpc round trip to the same handler, registered as
// service svc. Errors are transport failures only — operation-level refusals
// travel inside the replies (Outcome, Known, Accepted), so the in-process
// link never constructs an error on the hot path.
type link struct {
	h      shardRPC     // in-process handlers; unused on a remote link
	remote remoteCaller // nil in process
	svc    string       // registered service name: "Shard<idx>"
	tel    *telemetry
	// Prebuilt metric children, read-only after newLink: the hot paths
	// increment an atomic instead of locking the family map per call. lat is
	// filled on remote links only.
	calls [numOps]*obs.Counter
	lat   [numOps]*obs.Histogram
}

// newLink builds sh's link. remote nil selects the in-process transport;
// otherwise the calls go to remote's service svc (the client multiplexes
// concurrent calls over its single connection).
func newLink(t *telemetry, sh *shard, remote remoteCaller, svc string) *link {
	l := &link{h: shardRPC{sh: sh}, remote: remote, svc: svc, tel: t}
	transport := shardlink.TransportInproc
	if remote != nil {
		transport = shardlink.TransportRPC
	}
	for op, names := range linkOps {
		l.calls[op] = t.linkCalls.With(transport, names.label)
		if remote != nil {
			l.lat[op] = t.rpcSeconds.With(names.label)
		}
	}
	return l
}

// call is every link operation: counted per transport, then either the
// handler run directly or the round trip, timed into the RPC latency
// histogram (wall clock read only with telemetry on).
func call[A, R any](l *link, op linkOp, handler func(*shardRPC, *A, *R) error, args A) (R, error) {
	l.calls[op].Inc()
	var rep R
	if l.remote == nil {
		return rep, handler(&l.h, &args, &rep)
	}
	start := l.tel.now()
	err := l.remote.Call(l.svc+"."+linkOps[op].method, &args, &rep)
	if !start.IsZero() {
		l.lat[op].Observe(l.tel.sinceSeconds(start))
	}
	return rep, err
}

func (l *link) Submit(args shardlink.SubmitArgs) (shardlink.SubmitReply, error) {
	return call(l, opSubmit, (*shardRPC).Submit, args)
}

func (l *link) JobStatus(args shardlink.JobStatusArgs) (shardlink.JobStatusReply, error) {
	return call(l, opJobStatus, (*shardRPC).JobStatus, args)
}

func (l *link) Schedule(args shardlink.ScheduleArgs) (shardlink.ScheduleReply, error) {
	return call(l, opSchedule, (*shardRPC).Schedule, args)
}

func (l *link) Stats(args shardlink.StatsArgs) (shardlink.StatsSnapshot, error) {
	return call(l, opStats, (*shardRPC).Stats, args)
}

func (l *link) RouteInfo(args shardlink.RouteInfoArgs) (shardlink.RouteInfoReply, error) {
	return call(l, opRouteInfo, (*shardRPC).RouteInfo, args)
}

func (l *link) Poke(args shardlink.PokeArgs) error {
	_, err := call(l, opPoke, (*shardRPC).Poke, args)
	return err
}

// Migration, the only way a job changes shard: the donor extracts and
// reserves, the destination admits, the donor commits — or aborts and takes
// the jobs back. Each call runs under one shard's mutex.

func (l *link) ExtractJobs(args shardlink.ExtractArgs) (shardlink.ExtractReply, error) {
	return call(l, opExtract, (*shardRPC).ExtractJobs, args)
}

func (l *link) AdmitMigrated(args shardlink.AdmitArgs) (shardlink.AdmitReply, error) {
	return call(l, opAdmit, (*shardRPC).AdmitMigrated, args)
}

func (l *link) CommitExtract(args shardlink.CommitArgs) error {
	_, err := call(l, opCommit, (*shardRPC).CommitExtract, args)
	return err
}

func (l *link) AbortExtract(args shardlink.AbortArgs) error {
	_, err := call(l, opAbort, (*shardRPC).AbortExtract, args)
	return err
}
