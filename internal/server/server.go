// Package server is the divflowd scheduling service: a long-running,
// concurrent boundary around the exact solvers of this repository. It owns
// a machine fleet loaded at startup, admits divisible-job submissions over
// HTTP, and schedules them online with the same sim.Policy machinery as the
// offline/online simulator — by default the paper's online
// max-weighted-flow adaptation with lazy re-solving, so arrivals landing
// within one wake-up are batched into a single exact solve and every other
// event is served from the cached plan.
//
// The service is sharded: the fleet is partitioned into scheduling shards
// (by databank-connectivity components, or a fixed count for uniform
// fleets), each with its own mutex, goroutine, engine, and policy instance.
// The Server routes every submission to the eligible shard with the least
// exact residual work and merges per-shard state for reads. Each shard's
// loop is single-owner: one goroutine mutates its engine, guarded by a
// mutex that HTTP handlers take only to enqueue submissions or read state.
// Time comes from a pluggable Clock — the wall clock in the daemon, a
// virtual clock in tests, making the whole service deterministically
// testable at high job counts.
package server

import (
	"errors"
	"fmt"
	"io"
	"math/big"
	"net"
	"net/rpc"
	"slices"
	"sync"
	"sync/atomic"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
)

// ErrClosed is returned by Submit once the server is shutting down.
var ErrClosed = errors.New("server: shutting down")

// ErrReshardDisabled is returned by Reshard when the server was configured
// with DisableReshard (the -reshard=false gate).
var ErrReshardDisabled = errors.New("server: live re-sharding is disabled")

// errRetired is the internal signal that a submission reached a shard
// between its retirement by a reshard and the router observing the new
// topology; the router re-routes against the fresh active set.
var errRetired = errors.New("server: shard retired by re-sharding")

// errDeadline is the strict-admission reject: the submitted deadline is
// infeasible against the routed shard's residual workload. The submit
// response still carries the exact certificate, counter-offer included.
var errDeadline = errors.New("server: deadline infeasible against the shard's residual workload")

// errAdmissionStalled is the strict-admission refusal of a deadline job whose
// shard could not catch up to check it: shard_stalled, with a Retry-After.
var errAdmissionStalled = &shardStalledError{shard: -1, err: errors.New("server: shard stalled; strict admission cannot check the deadline")}

// errTenantQuota is the weighted-fairness reject: the submission would push
// its tenant past its weight share of the active-tenant fleet backlog.
var errTenantQuota = errors.New("server: tenant over its weighted share of the fleet backlog")

// errWALDegraded refuses topology changes once durability has latched: the
// on-disk state is frozen at a consistent prefix, and a reshard it cannot
// record would make the next restore replay onto the wrong topology.
var errWALDegraded = errors.New("server: durability latched; refusing topology change")

// shardStalledError is a submission failure tied to one shard — the chosen
// shard's transport failed mid-submit, its strict admission could not check
// a deadline, or routing kept racing reshards. It maps to the shard_stalled
// wire code with a Retry-After hint.
type shardStalledError struct {
	shard int // creation index, -1 when the error names no shard
	err   error
}

func (e *shardStalledError) Error() string {
	if e.shard >= 0 {
		return fmt.Sprintf("server: shard %d unreachable: %v", e.shard, e.err)
	}
	return e.err.Error()
}

func (e *shardStalledError) Unwrap() error { return e.err }

// Job lifecycle states reported by the API.
const (
	StateQueued    = "queued"    // accepted, not yet admitted by the loop
	StateScheduled = "scheduled" // live: the policy is scheduling it
	StateDone      = "done"
	// StateRejected marks jobs the service accepted but shut down before
	// admitting: Close drains every shard's pending queue into this terminal
	// state so post-shutdown reads are truthful.
	StateRejected = "rejected"
	// StateMigrated marks a donor-side record whose job was stolen by
	// another shard. It is internal: the forwarding table routes every read
	// of the job's global ID to the shard that now owns it, so the state is
	// never visible on the wire. The record stays behind to translate the
	// donor trace's pre-migration pieces to the global ID.
	StateMigrated = "migrated"
)

// Config parameterizes a Server.
type Config struct {
	// Machines is the fleet (every machine needs InverseSpeed > 0).
	Machines []model.Machine
	// Policy is one of Policies(); empty selects DefaultPolicy.
	Policy string
	// Clock defaults to a fresh RealClock. All shards share it.
	Clock Clock
	// Shards, when positive, splits the fleet into that many scheduling
	// shards round-robin (at most one shard per machine). Zero partitions
	// by databank-connectivity components: machines sharing a databank land
	// in the same shard, so a databank-restricted job's eligible machines
	// fall inside one shard; machines hosting no databanks pool into one
	// shared component (a fully databank-less fleet stays a single loop).
	// A job eligible on several shards (uniform fleets, or jobs without
	// databank requirements) is routed to the shard with the least exact
	// residual work and scheduled on that shard's machines only.
	Shards int
	// DisableSteal turns cross-shard work stealing off, pinning the
	// pre-stealing behavior: a job stays on the shard it was routed to for
	// its whole life. By default an idle shard (no live or pending jobs)
	// steals queued or live jobs it can host from the largest-backlog shard,
	// migrating their exact remaining fractions so no work is lost or
	// duplicated and keeping their global IDs and flow origins.
	DisableSteal bool
	// Retention, when positive, bounds the execution history kept in
	// memory: executed schedule pieces that ended more than Retention ago
	// and the records of jobs completed more than Retention ago are
	// compacted away — a shard holds records only from its oldest retained
	// one on, and a retired shard compacts until nothing is left — with
	// their flow/stretch statistics cached so GET /v1/stats keeps reporting
	// all-time values. Compacted jobs vanish from GET /v1/jobs/{id} and their
	// pieces from GET /v1/schedule. Nil (or zero) keeps everything forever;
	// a long-running daemon should set it. A negative value is an error.
	Retention *big.Rat
	// DisableReshard turns the live re-sharding admin surface off: Reshard
	// (and POST /v1/platform) answer ErrReshardDisabled and the partition
	// computed at startup stays fixed for the server's whole life, pinning
	// the pre-reshard behavior.
	DisableReshard bool
	// DisableObs turns telemetry off (the -metrics=false kill switch):
	// GET /metrics and GET /v1/events answer 404, no events are journaled,
	// and the scheduling paths skip every telemetry-only wall-clock read.
	// GET /healthz and the /v1/stats percentiles keep working.
	DisableObs bool
	// EventSink, when non-nil, additionally receives every journaled event
	// as one NDJSON line (the -events-log file). A write error is latched
	// and stops further sink writes, never the scheduling paths.
	EventSink io.Writer
	// WALDir, when non-empty, turns on durable crash recovery (the -wal-dir
	// flag): every submission, admission batch, migration, topology change,
	// and compaction horizon is appended to a write-ahead log in this
	// directory, with periodic fleet snapshots truncating the log behind
	// them. On startup, existing durable state in the directory is
	// authoritative: the newest valid snapshot is loaded, each record of the
	// WAL suffix is applied through the transition that wrote it, and
	// Machines is then only used for a fresh start. The first WAL failure
	// latches: durability freezes (the on-disk state stays a consistent
	// prefix) while the daemon keeps scheduling, and /healthz reports
	// "degraded".
	WALDir string
	// Fsync syncs the WAL after every append (the -fsync flag). Off,
	// durability of the tail is bounded by the OS page cache; a clean Close
	// still flushes everything.
	Fsync bool
	// SnapshotEvery is the snapshot cadence in WAL appends (zero means the
	// default, 1024; a negative value is an error).
	SnapshotEvery int
	// Transport selects how the router talks to its shards:
	// shardlink.TransportInproc (or empty) calls the shard's handlers
	// directly, while shardlink.TransportRPC keeps every shard colocated and
	// local (real engines, so trace-exact tests, WALDir and live re-sharding
	// still apply) but routes all router traffic through a loopback net/rpc
	// connection, serializing every message with gob exactly as a socket
	// would.
	Transport string
	// Admission selects the deadline-admission mode every shard runs
	// (the -admission flag): shardlink.AdmissionStrict (the default, "" too)
	// rejects infeasible deadlines with the exact certificate and counter-
	// offer, AdmissionAdvisory admits them but still reports the certificate,
	// AdmissionOff skips the feasibility LP entirely. Deadline-free
	// submissions never run the check in any mode.
	Admission string
	// Tenants, when non-nil, arms weighted-fairness admission control (the
	// -tenants flag): a non-premium submission whose tenant backlog would
	// exceed its weight share of the active-tenant fleet backlog is shed
	// with a tenant_over_quota reject before reaching any shard. Nil admits
	// every tenant unconditionally; per-tenant accounting is kept either way.
	Tenants *model.TenantConfig
}

// Admission mode names for Config.Admission, re-exported so callers (the
// divflowd -admission flag) need not import the transport package.
const (
	AdmissionStrict   = shardlink.AdmissionStrict
	AdmissionAdvisory = shardlink.AdmissionAdvisory
	AdmissionOff      = shardlink.AdmissionOff
)

// generation is one epoch of the shard topology: the shards active between
// two reshards, together with the global-ID encoding they issued under.
// A global ID id born in this generation satisfies id >= base and decodes as
// shards[(id-base)%stride] with local ID (id-base)/stride; bases strictly
// increase across generations, so the issuing generation of any ID is the
// newest one whose base does not exceed it. Shards kept across a reshard
// appear in every generation they served in.
type generation struct {
	base   int
	stride int
	shards []*shard
}

// Server is one divflowd instance: a router over independent scheduling
// shards. Create with New, start the shard loops with Start, serve Handler
// over HTTP, stop with Close. The shard topology is dynamic: Reshard (the
// POST /v1/platform admin API) recomputes the databank-connectivity
// partition against an updated platform at runtime, migrating live work onto
// the new shards while every read keeps resolving exactly.
type Server struct {
	policyName   string
	policyCfg    string // Config.Policy verbatim, for spawning reshard shards
	shardsCfg    int    // Config.Shards verbatim: the standing partition override
	clock        Clock
	retention    exact.Q // zero: keep everything
	disableSteal bool
	noReshard    bool
	tel          *telemetry
	admission    string              // normalized Config.Admission
	tenants      *model.TenantConfig // nil: no quota enforcement

	// dur is the durability layer (nil without Config.WALDir); restoredNow
	// the virtual time startup restored the fleet at (zero on a fresh start).
	dur         *durability
	restoredNow exact.Q

	// transport is the normalized Config.Transport; rpcSrv/rpcClient are the
	// loopback pair every colocated rpc-transport shard is served over (one
	// net.Pipe, one multiplexing client — nil under the in-process
	// transport).
	transport string
	rpcSrv    *rpc.Server
	rpcClient *rpc.Client

	// topoMu guards where a job lives: the generation list, the flat list of
	// every shard ever created, and the forwarding table. Readers snapshot
	// under RLock. installGeneration is the one writer of the lists — at
	// startup before any loop runs, live under Reshard's cut (serialized by
	// reshardMu), which holds every shard's mu; the table is written by
	// forwardTo and dropForward, the latter under the compacting shard's mu. So
	// topoMu nests inside a shard mu, no lock path ever acquires a shard mu
	// while holding it, and nothing re-acquires it (a read lock is not
	// re-entrant once a writer waits).
	//divflow:locks name=topo before=dmu
	topoMu sync.RWMutex
	gens   []*generation
	all    []*shard // every shard ever created: all[i].idx == i
	// forward maps the global ID of every migrated job to its current
	// location; IDs never migrated resolve arithmetically through their
	// birth generation. An entry is written after the destination adopted the
	// job and before the donor's record flips to migrated, both inside one
	// migration's section (Server.migrate), so a read that resolved the job
	// to the donor before the migration finds it migrated there and chases
	// the table, which already names the new owner.
	forward map[int]fwdLoc

	// reshardMu is who may move things: it serializes topology changes
	// (Reshard, and Close — which must not race a reshard spawning shards it
	// would miss) and snapshots, and keeps all three apart from migrations: a
	// steal runs its migration under a TryRLock, so steals share the lock
	// with each other — two that share a shard serialize on its mu — but
	// never overlap a writer.
	//divflow:locks name=reshard before=collect
	reshardMu sync.RWMutex

	// started flips once, in Start; closed once, in Close under reshardMu, so
	// a reshard or a snapshot that holds the lock reads a settled value.
	started, closed atomic.Bool
}

// fwdLoc is one forwarding-table entry: the shard that currently owns a
// migrated job and the job's local ID there.
type fwdLoc struct {
	sh    *shard
	local int
}

// New builds a server over the fleet, partitioned into scheduling shards.
// The loops are not started yet — submissions queue until Start.
func New(cfg Config) (_ *Server, err error) {
	if len(cfg.Machines) == 0 {
		return nil, errors.New("server: no machines")
	}
	if err := checkMachines(cfg.Machines); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if err := model.CheckMachineNames(cfg.Machines); err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	if cfg.SnapshotEvery < 0 {
		return nil, fmt.Errorf("server: SnapshotEvery = %d, want >= 0", cfg.SnapshotEvery)
	}
	if cfg.Retention != nil && cfg.Retention.Sign() < 0 {
		return nil, fmt.Errorf("server: Retention = %s, want >= 0", cfg.Retention.RatString())
	}
	// Validate the policy name once up front; every shard then gets its own
	// fresh instance (shardCore.build).
	pol, err := NewPolicy(cfg.Policy)
	if err != nil {
		return nil, err
	}
	groups, err := partitionFleet(cfg.Machines, cfg.Shards)
	if err != nil {
		return nil, err
	}
	transport := cfg.Transport
	switch transport {
	case "", shardlink.TransportInproc:
		transport = shardlink.TransportInproc
	case shardlink.TransportRPC:
	default:
		return nil, fmt.Errorf("server: unknown transport %q (want %q or %q)",
			cfg.Transport, shardlink.TransportInproc, shardlink.TransportRPC)
	}
	admission, err := normalizeAdmission(cfg.Admission)
	if err != nil {
		return nil, fmt.Errorf("server: %w", err)
	}
	s := &Server{
		policyName:   pol.Name(),
		policyCfg:    cfg.Policy,
		shardsCfg:    cfg.Shards,
		disableSteal: cfg.DisableSteal,
		noReshard:    cfg.DisableReshard,
		forward:      make(map[int]fwdLoc),
		tel:          newTelemetry(!cfg.DisableObs, cfg.EventSink),
		transport:    transport,
		admission:    admission,
		tenants:      cfg.Tenants,
	}
	if transport == shardlink.TransportRPC {
		// One loopback pipe serves every colocated shard: wireShard registers
		// each as a named service on rpcSrv, and every link shares rpcClient
		// (net/rpc multiplexes concurrent calls over one connection). The
		// pipe is synchronous and in-memory — the full gob round-trip with
		// none of the kernel.
		s.rpcSrv = rpc.NewServer()
		cliConn, srvConn := net.Pipe()
		go s.rpcSrv.ServeConn(srvConn)
		s.rpcClient = rpc.NewClient(cliConn)
	}
	// Whatever New opens from here on — the loopback pair above, the WAL
	// handle — it releases again if it fails.
	var st *restoreState
	defer func() {
		if err != nil {
			if s.rpcClient != nil {
				s.rpcClient.Close()
			}
			if st != nil {
				st.log.Close()
			}
		}
	}()
	if cfg.Retention != nil && cfg.Retention.Sign() > 0 {
		s.retention = exact.FromRat(cfg.Retention)
	}
	// Open durable state before the clock exists: a restore resumes the real
	// clock at the restored virtual time, so the fleet's time never jumps
	// backwards across a restart.
	if cfg.WALDir != "" {
		if st, err = openWAL(cfg.WALDir, cfg.Fsync); err != nil {
			return nil, err
		}
	}
	s.clock = cfg.Clock
	if s.clock == nil {
		if st != nil && st.hasState() {
			s.clock = NewRealClockAt(st.now.Rat())
		} else {
			s.clock = NewRealClock()
		}
	}
	if st != nil {
		snapEvery := cfg.SnapshotEvery
		if snapEvery == 0 {
			snapEvery = defaultSnapshotEvery
		}
		// The log is attached once restore has applied its suffix.
		s.dur = &durability{
			tel:       s.tel,
			dir:       cfg.WALDir,
			snapEvery: snapEvery,
			snapSeq:   st.snapSeq,
			snapReq:   make(chan struct{}, 1),
			stop:      make(chan struct{}),
		}
	}
	if st == nil || st.doc == nil {
		// The first generation, from the configured fleet, and never logged: a
		// directory without a snapshot restores its suffix onto this topology
		// — the same one the original run built, since the log began under it.
		if _, _, err = s.installGeneration(newTopo(cfg.Machines, groups), nil); err != nil {
			return nil, fmt.Errorf("server: %w", err)
		}
	}
	if st != nil {
		if err = s.restore(st); err != nil {
			return nil, err
		}
		if st.hasState() {
			s.restoredNow = st.now
			s.tel.event(obs.EventRestore, len(s.gens)-1, -1, fmt.Sprintf(
				"%d records replayed at virtual time %v", len(st.suffix), st.now))
			if s.tel.enabled {
				s.tel.recoverySecs.Observe(s.tel.sinceSeconds(st.started))
			}
		} else {
			// A fresh directory is snapshotted before its first record, so
			// restore always finds the policy that wrote it.
			s.reshardMu.Lock()
			err = s.snapshotLocked()
			s.reshardMu.Unlock()
			if err != nil {
				return nil, err
			}
		}
		go s.snapshotLoop()
	}
	// Scrape-time metric collection reads the same per-shard snapshots
	// /v1/stats merges; registered once the topology exists.
	s.tel.reg.OnCollect(s.collectMetrics)
	return s, nil
}

// checkMachines is the guard on every machine list entering the server — the
// startup configuration, a reshard's platform, a spec read back from a WAL or
// snapshot document; the caller names the entry point. Repeated names are
// refused only where a list is passed in (New, Reshard:
// model.CheckMachineNames): a restored document is acknowledged state.
func checkMachines(ms []model.Machine) error {
	for i := range ms {
		if ms[i].InverseSpeed == nil || ms[i].InverseSpeed.Sign() <= 0 {
			return fmt.Errorf("machine %d (%s) needs InverseSpeed > 0", i, ms[i].Name)
		}
	}
	return nil
}

// normalizeAdmission maps a configured or received admission mode to its
// canonical name ("" is strict).
func normalizeAdmission(mode string) (string, error) {
	switch mode {
	case "", shardlink.AdmissionStrict:
		return shardlink.AdmissionStrict, nil
	case shardlink.AdmissionAdvisory, shardlink.AdmissionOff:
		return mode, nil
	}
	return "", fmt.Errorf("unknown admission mode %q (want %q, %q or %q)",
		mode, shardlink.AdmissionStrict, shardlink.AdmissionAdvisory, shardlink.AdmissionOff)
}

// wireShard installs the server-side hooks and link on a freshly built shard
// (installGeneration is its one caller). The steal hook is wired even on a
// momentarily-singleton topology: a later reshard may grow the active set,
// and stealFor is a cheap no-op until it does. dropForward is wired
// unconditionally — reshard migrations write forwarding entries even with
// stealing disabled, and retention compaction must be able to release them
// either way. Hooks are set before the shard's loop starts and never change.
func (s *Server) wireShard(sh *shard) {
	if !s.disableSteal {
		sh.steal = func() bool { return s.stealFor(sh) }
	}
	sh.dropForward = s.dropForward
	// Install the router's transport handle: the loopback rpc link
	// (registered as a per-shard named service — creation indices never
	// repeat, reshard-spawned shards included) or the direct in-process one.
	var remote remoteCaller
	svc := fmt.Sprintf("Shard%d", sh.idx)
	if s.transport == shardlink.TransportRPC {
		// A registration error is unreachable (shardRPC's method set is
		// fixed and names are unique); degrade to the in-process link
		// rather than ship a shard the router cannot reach.
		if err := s.rpcSrv.RegisterName(svc, &shardRPC{sh: sh}); err == nil {
			remote = s.rpcClient
		}
	}
	sh.link = newLink(s.tel, sh, remote, svc)
}

// active returns the current generation's shard list. The slice is immutable
// once published, so it stays valid after the lock is released; a racing
// reshard is caught by the errRetired re-route in Submit.
func (s *Server) active() []*shard {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return s.gens[len(s.gens)-1].shards
}

// allShards returns every shard ever created, retired ones included —
// the set reads merge (historical traces and records live on retired
// shards). The slice is copied; the shard pointers are stable.
func (s *Server) allShards() []*shard {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return append([]*shard(nil), s.all...)
}

// cut runs body under the mu of every shard of set — taken in creation order,
// released in reverse — and is the only place two shard mus are ever held
// together: a snapshot's export and a reshard's publish pass every shard, a
// migration its donor and candidate destinations. Callers hold reshardMu, so
// no shard can be created between the listing and the locking. body receives
// the set in creation order, each shard once; set itself is not reordered.
// Their effects are reported before the release in set's order, donor first.
//
//divflow:locks requires=reshard ascending=shard
func (s *Server) cut(set []*shard, body func(locked []*shard)) {
	locked := slices.Clone(set)
	slices.SortFunc(locked, func(a, b *shard) int { return a.idx - b.idx })
	locked = slices.Compact(locked)
	for _, sh := range locked {
		sh.mu.Lock()
	}
	body(locked)
	for _, sh := range set {
		sh.drain()
	}
	for i := len(locked) - 1; i >= 0; i-- {
		locked[i].mu.Unlock()
	}
}

// ShardCount returns the number of active scheduling shards the fleet is
// currently partitioned into.
func (s *Server) ShardCount() int { return len(s.active()) }

// Generation returns the current topology generation (0 until the first
// structural reshard).
func (s *Server) Generation() int {
	s.topoMu.RLock()
	defer s.topoMu.RUnlock()
	return len(s.gens) - 1
}

// Start launches every shard's scheduling loop. Safe to call once.
func (s *Server) Start() {
	if s.closed.Load() || !s.started.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range s.allShards() {
		sh.start()
	}
}

// Close stops accepting submissions and terminates the shard loops. It
// serializes against Reshard so a topology change can never spawn a loop the
// shutdown misses.
func (s *Server) Close() {
	s.reshardMu.Lock()
	defer s.reshardMu.Unlock()
	if !s.closed.CompareAndSwap(false, true) {
		return
	}
	for _, sh := range s.allShards() {
		sh.close()
	}
	// Release the loopback pipe pair after the loops are down. In-flight
	// calls on a closing client fail with rpc.ErrShutdown, which every link
	// caller treats as a transport failure and skips.
	if s.rpcClient != nil {
		s.rpcClient.Close()
	}
	if s.dur != nil {
		// Stop the cadence goroutine first (it cannot be inside a snapshot:
		// that needs reshardMu, which we hold), then write the final snapshot —
		// the loops are drained, so a clean shutdown restores with zero replay.
		// snapshotLocked refuses to run once durability latched, keeping the
		// on-disk state a consistent prefix.
		s.dur.once.Do(func() { close(s.dur.stop) })
		s.snapshotLocked()
		s.dur.mu.Lock()
		if s.dur.log != nil {
			s.dur.log.Close()
		}
		s.dur.mu.Unlock()
	}
}

// Submit accepts one job, routing it by the placement rule (pickRoute) and
// stamping its flow origin (release) on the chosen shard; a submission that
// only a stalled shard can host is still taken, and the response carries that
// shard's error as a warning (a deadline strict admission cannot check there
// is refused). The shard's loop admits the job at its next wake-up, so
// submissions racing one re-solve share it. A submission that loses the race
// against a concurrent reshard (the chosen shard retired between the topology
// snapshot and the enqueue) transparently re-routes against the new topology.
func (s *Server) Submit(req *model.SubmitRequest) (model.SubmitResponse, error) {
	job, err := req.Job()
	if err != nil {
		s.tel.rejections.Inc()
		s.tel.event(obs.EventReject, s.Generation(), -1, err.Error())
		return model.SubmitResponse{}, err
	}
	// Each attempt that fails with errRetired raced one completed reshard;
	// the retry bound only guards against a pathological reshard storm.
	for attempt := 0; attempt < 8; attempt++ {
		resp, err := s.submitRouted(shardlink.SubmitArgs{Job: job})
		if errors.Is(err, errRetired) {
			continue
		}
		return resp, err
	}
	return model.SubmitResponse{}, &shardStalledError{
		shard: -1, err: errors.New("server: submission kept racing re-sharding; retry")}
}

// route is one shard's routing key — its RouteInfo reply — beside the shard
// that gave it.
type route struct {
	sh *shard
	shardlink.RouteInfoReply
}

// readRoutes is the one fan-out over the shards' routing keys and the only
// caller of link.RouteInfo: one route per reachable shard, in the order given.
// The key crosses the shardlink boundary and is the value the shard last
// published, read without its mu, so no reader waits behind an in-flight exact
// solve. A route's TenantBacklog may be the shard's own map: read it, never
// write it. Every placement decision routes
// around the shards whose transport failed; they come back in down, Err
// holding the failure, for /healthz to report.
func readRoutes(shards []*shard) (routes, down []route) {
	for _, sh := range shards {
		ri, err := sh.link.RouteInfo(shardlink.RouteInfoArgs{})
		if err != nil {
			down = append(down, route{sh, shardlink.RouteInfoReply{Err: err.Error()}})
			continue
		}
		routes = append(routes, route{sh, ri})
	}
	return routes, down
}

// pickRoute is the placement rule, stated once — the daemon's face of the
// paper's c_{i,j} = ∞ off the databank's hosts: among the routes whose shard
// hosts the databanks, the healthy one with the least exact residual work,
// ties to the first listed (the lowest index). A shard with a latched error
// has the smallest backlog precisely because it stopped executing, and work
// parked there strands silently, so one is chosen — the least loaded of them —
// only when no healthy host exists: the caller sees Err set on the pick and
// passes it on as a warning. Nil when no reachable shard hosts the databanks.
// A caller placing several jobs off one read (placement) adds what it placed
// to the pick's Backlog.
func pickRoute(routes []route, databanks []string) *route {
	var best, stalled *route
	for i := range routes {
		r := &routes[i]
		if !r.sh.hosts(databanks) {
			continue
		}
		switch {
		case r.Err != "":
			if stalled == nil || r.Backlog.Cmp(stalled.Backlog) < 0 {
				stalled = r
			}
		case best == nil || r.Backlog.Cmp(best.Backlog) < 0:
			best = r
		}
	}
	if best == nil {
		return stalled
	}
	return best
}

// submitRouted is one routing attempt of Submit against a snapshot of the
// active topology. One read of the fleet answers all three of its questions:
// whether the tenant is over quota, where the job goes, and which shards are
// idle enough to be worth a poke.
func (s *Server) submitRouted(args shardlink.SubmitArgs) (model.SubmitResponse, error) {
	job := &args.Job
	routes, _ := readRoutes(s.active())
	if s.tenants != nil && job.Tenant != "" && job.SLAClass != model.SLAPremium {
		if err := s.tenantOverQuota(*job, routes); err != nil {
			// Shed submissions never reach a shard: this counter is their one
			// count, and GET /v1/tenants reads it back.
			s.tel.tenantShed.With(job.Tenant).Inc()
			s.tel.rejections.Inc()
			s.tel.event(obs.EventReject, s.Generation(), -1, err.Error())
			return model.SubmitResponse{}, err
		}
	}
	resp := model.SubmitResponse{State: StateQueued}
	best := pickRoute(routes, job.Databanks)
	if best == nil {
		s.tel.rejections.Inc()
		s.tel.event(obs.EventReject, s.Generation(), -1,
			fmt.Sprintf("no machine hosts databanks %v", job.Databanks))
		return resp, fmt.Errorf("server: no machine hosts databanks %v", job.Databanks)
	}
	if best.Err != "" {
		resp.Warning = fmt.Sprintf("routed to stalled shard %d (no healthy shard hosts the databanks): %s", best.sh.idx, best.Err)
	}
	rep, lerr := best.sh.link.Submit(args)
	if lerr != nil {
		return model.SubmitResponse{}, &shardStalledError{shard: best.sh.idx, err: lerr}
	}
	gid, err := submitErr(rep)
	if err != nil {
		if errors.Is(err, errDeadline) {
			// The strict reject carries the exact certificate (with the
			// counter-offer deadline, when one exists) back to the client.
			s.tel.rejections.Inc()
			return model.SubmitResponse{Admission: rep.Admission}, err
		}
		return model.SubmitResponse{}, err
	}
	resp.ID = gid
	resp.Admission = rep.Admission
	// New work on one shard is a steal opportunity for every idle one: poke
	// every healthy zero-backlog shard so its loop re-runs the steal check
	// instead of sleeping until the next direct submission. Shards that cannot
	// host *this* job are poked too — the submission can still push the chosen
	// shard past the donor-keeps-one threshold and make its *other* jobs
	// stealable by them. (Idleness was read before the submit, but a poke is
	// just a wake-up — a shard that meanwhile found work ignores it.)
	if !s.disableSteal {
		for _, r := range routes {
			if r.sh != best.sh && r.Err == "" && r.Backlog.Sign() == 0 {
				_ = r.sh.link.Poke(shardlink.PokeArgs{})
			}
		}
	}
	return resp, nil
}

// tenantOverQuota applies the weighted-fairness rule to one submission. The
// fleet-wide residual work per tenant is the sum of the routes' per-tenant
// backlogs, the shards that cannot host the job included (zero entries are
// absent); the active tenants are those with positive backlog plus the
// submitter, and the submission is shed iff admitting it would leave its
// tenant above its weight share of the active-tenant backlog —
// exactly, (B_T + W) · Σ_active w  >  w_T · (B_total + W). A lone active
// tenant owns the whole share and is never shed, so quota only ever bites
// under actual contention.
func (s *Server) tenantOverQuota(job model.Job, routes []route) error {
	myWeight := exact.FromRat(s.tenants.Weight(job.Tenant))
	size := exact.FromRat(job.Size)
	var mine, total exact.Q
	sumW := myWeight
	active := map[string]bool{job.Tenant: true}
	for _, r := range routes {
		for t, b := range r.TenantBacklog {
			if b.Sign() <= 0 {
				continue
			}
			total = total.Add(b)
			if t == job.Tenant {
				mine = mine.Add(b)
			} else if !active[t] {
				active[t] = true
				sumW = sumW.Add(exact.FromRat(s.tenants.Weight(t)))
			}
		}
	}
	totalAfter := total.Add(size)
	if mine.Add(size).Mul(sumW).Cmp(myWeight.Mul(totalAfter)) > 0 {
		return fmt.Errorf("%w: tenant %q backlog %v + size %v exceeds share %v of fleet backlog %v",
			errTenantQuota, job.Tenant, mine, size, myWeight.Quo(sumW), totalAfter)
	}
	return nil
}
