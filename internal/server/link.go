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

// linkOp indexes linkOps, the one listing of the router↔shard operation set.
type linkOp int

const (
	opSubmit linkOp = iota
	opJobStatus
	opSchedule
	opStats
	opRouteInfo
	opPoke
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
// The shard-side adapter set, written once: shardRPC is one shard's net/rpc
// service ("Shard<idx>") — registered per shard on the loopback server — and
// the in-process transport calls the very same methods directly. A handler
// is pinned to its own shard at registration and takes that shard's mu at
// most: each of the six operations reads or feeds one shard. Moving a job is
// not one of them — Server.migrate holds the donor and its destinations
// together, through Server.cut, the one function that holds two shard mus. No
// handler has a static call path to cut; the shard reaches router code only
// through its steal and dropForward func values, and cut's requires=reshard
// is checked at every call site.
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
