package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"
	"reflect"
	"slices"
	"sort"
	"sync"
	"time"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/shardlink"
	"divflow/internal/sim"
	"divflow/internal/stats"
	"divflow/internal/wal"
)

// Durable crash recovery. With Config.WALDir set, every state mutation of the
// fleet is logged write-ahead: submissions (with their exact rational size,
// weight, and release), admission batches (the virtual time the loop admitted
// them at — the one input the executed trace is a deterministic function of),
// every step of a steal or reshard migration, topology-generation installs,
// and — as pure truncation markers — completions and compaction horizons.
// Periodic snapshots capture the whole fleet exactly (per-shard engine states
// with the live jobs' remaining fractions, the forwarding table, the
// generation list, all counters). Each one seals the log segment at its
// watermark, so the records it covers sit in whole segments; once it is
// written and verified, the log is truncated behind the older of the two
// snapshots kept on disk, so either one still restores. On startup the newest
// valid snapshot is loaded (torn ones skipped), and each record of the WAL
// suffix past its watermark goes through its transition (transition.go)
// before the log is attached — so the restored fleet's merged trace validates
// exactly and matches an uninterrupted run bit for bit. A restart decodes at
// most one snapshot interval of records the snapshot already covers.
//
// The failure policy is freeze-and-serve: the first WAL append, fsync, or
// snapshot failure latches an error, after which no further appends or
// snapshots happen — the on-disk state stays a consistent prefix of the
// execution — while the daemon keeps scheduling. GET /healthz reports the
// degraded state ("degraded", still HTTP 200).

// durability is the server's write-ahead-log state: the open log, the
// append/snapshot counters, the latched error, and the snapshot trigger.
// Appends always happen under some shard's mu (or under reshardMu plus every
// shard mu, for topology records), with d.mu innermost — so a snapshot, which
// holds every shard mu, observes an exact watermark.
type durability struct {
	tel       *telemetry
	dir       string
	snapEvery int

	//divflow:locks name=dmu before=journal
	mu        sync.Mutex
	log       *wal.Log
	appends   int
	snapshots int
	replayed  int
	sinceSnap int
	err       error
	// snapSeq is the watermark of the newest snapshot on disk, written or
	// restored from. The next snapshot at a later watermark leaves it the
	// older of the two kept, and truncates the log behind it.
	snapSeq uint64

	snapReq chan struct{}
	stop    chan struct{}
	once    sync.Once
}

// defaultSnapshotEvery is the snapshot cadence (appends between snapshots)
// when Config.SnapshotEvery is zero.
const defaultSnapshotEvery = 1024

// stats returns the durability counters for /v1/stats and /metrics (zero
// without a write-ahead log).
func (d *durability) stats() model.WALStats {
	if d == nil {
		return model.WALStats{}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	w := model.WALStats{Appends: d.appends, Snapshots: d.snapshots, Replayed: d.replayed}
	if d.err != nil {
		w.Error = d.err.Error()
	}
	return w
}

// latchedErr returns the frozen WAL failure, nil while durable.
func (d *durability) latchedErr() error {
	if d == nil {
		return nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.err
}

// latchLocked freezes durability at the first failure. Callers hold d.mu.
//
//divflow:locks requires=dmu
func (d *durability) latchLocked(err error) {
	if d.err != nil {
		return
	}
	d.err = err
	if d.tel.enabled {
		d.tel.walErrors.Inc()
		d.tel.event(obs.EventWALError, -1, -1, err.Error())
	}
}

// append logs one record. Failures latch; callers never see them — the
// scheduling paths must keep running when durability freezes. Until restore
// attaches the log, it drops the record: the suffix is on disk already.
func (d *durability) append(typ string, v any) {
	if d == nil {
		return
	}
	d.mu.Lock()
	if d.err != nil || d.log == nil {
		d.mu.Unlock()
		return
	}
	if _, err := d.log.Append(typ, v); err != nil {
		d.latchLocked(err)
		d.mu.Unlock()
		return
	}
	d.appends++
	d.sinceSnap++
	due := d.snapEvery > 0 && d.sinceSnap >= d.snapEvery
	d.mu.Unlock()
	if due {
		select {
		case d.snapReq <- struct{}{}:
		default:
		}
	}
}

// --- Snapshots ---------------------------------------------------------

// snapShard is one shard's full exported state: its spec, then what a run left on it.
type snapShard struct {
	shardlink.ShardSpec
	Retired bool `json:"retired,omitempty"`
	// RecordBase is the record index's base, the first retained local ID:
	// Records lists the slots from there (null = compacted). A document that
	// predates the key lists every slot from 0, leading nulls included.
	RecordBase int               `json:"recordBase,omitempty"`
	Records    []*jobRecord      `json:"records,omitempty"`
	PendingIDs []int             `json:"pendingIds,omitempty"`
	Engine     *sim.EngineState  `json:"engine,omitempty"`
	Plan       *sim.MWFPlanState `json:"plan,omitempty"`

	// The shard's ledger as shardCore.ledger copies it out, flow histograms
	// included: a restored fleet's P95s count pre-crash completions too.
	shardlink.ShardTotals
	legacyFreed
	Tenants shardlink.TenantLedger `json:"tenants,omitempty"`

	MigratedIDs []int   `json:"migratedIds,omitempty"`
	Backlog     exact.Q `json:"backlog"`
	LastErr     string  `json:"lastErr,omitempty"`
}

// legacyFreed is how older documents describe a freed tombstone: a retired
// shard whose history had compacted away, written without records, engine or
// plan, its counters frozen here. Only thaw reads it, and no entry writes it.
type legacyFreed struct {
	Freed           bool              `json:"freed,omitempty"`
	FrozenNow       exact.Q           `json:"frozenNow,omitzero"`
	FrozenCompleted int               `json:"frozenCompleted,omitempty"`
	FrozenDecisions int               `json:"frozenDecisions,omitempty"`
	FrozenAccepted  int               `json:"frozenAccepted,omitempty"`
	FrozenSolves    int               `json:"frozenSolves,omitempty"`
	FrozenCacheHits int               `json:"frozenCacheHits,omitempty"`
	FrozenSolver    stats.SolverTally `json:"frozenSolver,omitzero"`
}

// thaw rewrites a freed tombstone as the empty retired shard it stands for:
// the frozen figures become the engine's counters, the plan's, and the base
// of the record index, below which every local ID the shard issued was
// compacted (it issued one per accepted, stolen or resharded-in job).
func (ss *snapShard) thaw() {
	if !ss.Freed {
		return
	}
	ss.RecordBase = ss.FrozenAccepted + ss.StolenIn + ss.ReshardIn
	ss.Engine = &sim.EngineState{Now: ss.FrozenNow, Completed: ss.FrozenCompleted, Decisions: ss.FrozenDecisions}
	ss.Plan = &sim.MWFPlanState{Solves: ss.FrozenSolves, CacheHits: ss.FrozenCacheHits, Solver: ss.FrozenSolver}
}

// snapGen is one topology generation in a snapshot (shards by creation
// index, in position order).
type snapGen struct {
	Base   int   `json:"base"`
	Stride int   `json:"stride"`
	Shards []int `json:"shards"`
}

// topo rewrites generation g of the document as the record that installs it,
// created being the number of shards earlier generations made: a member none
// of them listed is spawned, on its own entry's machines, and retirement is
// part of the state the entries restore.
func (doc *snapDoc) topo(g, created int) (*recTopo, error) {
	r := &recTopo{Gen: g, Base: doc.Gens[g].Base, Stride: doc.Gens[g].Stride}
	for _, idx := range doc.Gens[g].Shards {
		if idx < 0 || idx >= len(doc.Shards) {
			return nil, fmt.Errorf("generation %d names unknown shard %d", g, idx)
		}
		ts := walTopoShard{Idx: idx, Kept: idx < created, MachineIdx: doc.Shards[idx].MachineIdx}
		if !ts.Kept {
			ts.Machines = doc.Shards[idx].Machines
		}
		r.Shards = append(r.Shards, ts)
	}
	return r, nil
}

// snapFwd is one forwarding-table entry.
type snapFwd struct {
	GID   int `json:"gid"`
	Shard int `json:"shard"`
	Local int `json:"local"`
}

// snapDoc is the whole fleet's snapshot document.
type snapDoc struct {
	Policy    string      `json:"policy"`
	ShardsCfg int         `json:"shardsCfg,omitempty"`
	Reshards  int         `json:"reshards,omitempty"`
	Gens      []snapGen   `json:"gens"`
	Forward   []snapFwd   `json:"forward,omitempty"`
	Shards    []snapShard `json:"shards"`
}

// exportState builds the core's snapshot entry.
//
//divflow:locks requires=shard
func (c *shardCore) exportState() snapShard {
	ss := snapShard{
		ShardSpec: shardlink.ShardSpec{
			Idx: c.idx, Pos: c.pos, Stride: c.stride, GidBase: c.gidBase, Gen: c.gen,
			Machines: c.machines, MachineIdx: append([]int(nil), c.machineIdx...),
		},
		Retired:     c.retired,
		Records:     make([]*jobRecord, len(c.records.recs)),
		RecordBase:  c.records.base,
		MigratedIDs: append([]int(nil), c.migratedIDs...),
		Engine:      c.eng.ExportState(),
		Backlog:     c.route.Load().Backlog,
	}
	ss.ShardTotals, ss.Tenants = c.ledger()
	for i, rec := range c.records.recs {
		if rec != nil {
			ss.Records[i] = rec.clone()
		}
	}
	for _, rec := range c.pending {
		ss.PendingIDs = append(ss.PendingIDs, rec.ID)
	}
	if c.mwf != nil {
		ss.Plan = c.mwf.ExportPlanState()
	}
	if c.lastErr != nil {
		ss.LastErr = c.lastErr.Error()
	}
	return ss
}

// Snapshot writes one fleet snapshot now (the same path the cadence-driven
// background snapshots take) and truncates the WAL behind the previous
// snapshot's watermark.
func (s *Server) Snapshot() error {
	s.reshardMu.Lock()
	err := ErrClosed
	if !s.closed.Load() {
		err = s.snapshotLocked()
	}
	s.reshardMu.Unlock()
	// A steal that found the fleet held for the cut was skipped, not queued:
	// wake the loops so an idle one asks again.
	for _, sh := range s.active() {
		_ = sh.link.Poke(shardlink.PokeArgs{})
	}
	return err
}

// snapshotLocked exports and writes one snapshot. Callers hold reshardMu (so
// no topology change is in flight); the export runs under the cut, which
// freezes every append source, so the watermark is exact, and the log is
// sealed there, so the next record starts a segment of its own. Syncing the
// sealed segment, marshaling and file I/O happen after the cut is released.
//
//divflow:locks requires=reshard
func (s *Server) snapshotLocked() error {
	d := s.dur
	if d == nil {
		return nil
	}
	if err := d.latchedErr(); err != nil {
		// Durability already froze: a snapshot of the diverged in-memory
		// state must never replace the consistent on-disk prefix.
		return err
	}
	doc := snapDoc{Policy: s.policyCfg, ShardsCfg: s.shardsCfg}
	var seq uint64
	var sealed *wal.Sealed
	var err error
	//divflow:locks requires=reshard,shard
	s.cut(s.allShards(), func(all []*shard) {
		s.topoMu.RLock()
		doc.Reshards = len(s.gens) - 1
		for _, gen := range s.gens {
			sg := snapGen{Base: gen.base, Stride: gen.stride}
			for _, sh := range gen.shards {
				sg.Shards = append(sg.Shards, sh.idx)
			}
			doc.Gens = append(doc.Gens, sg)
		}
		for gid, loc := range s.forward {
			doc.Forward = append(doc.Forward, snapFwd{GID: gid, Shard: loc.sh.idx, Local: loc.local})
		}
		s.topoMu.RUnlock()
		sort.Slice(doc.Forward, func(a, b int) bool { return doc.Forward[a].GID < doc.Forward[b].GID })
		for _, sh := range all {
			doc.Shards = append(doc.Shards, sh.exportState())
		}
		d.mu.Lock()
		seq = d.log.LastSeq()
		sealed, err = d.log.Seal()
		d.mu.Unlock()
	})

	if err == nil {
		err = sealed.Close()
	}
	var payload []byte
	if err == nil {
		payload, err = json.Marshal(&doc)
	}
	if err == nil {
		err = wal.WriteSnapshot(d.dir, seq, payload)
	}
	if err == nil {
		// Read the snapshot back before truncating the log behind it: a write
		// torn by a crash (or disk fault) publishes a file whose CRC cannot
		// validate, and truncating on its strength would drop records the
		// fallback snapshot still needs.
		if gotSeq, _, ok := wal.LoadSnapshot(d.dir); !ok || gotSeq != seq {
			err = fmt.Errorf("snapshot at watermark %d failed verification after write", seq)
		}
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if err != nil {
		d.latchLocked(fmt.Errorf("server: snapshot: %w", err))
		return d.err
	}
	// The previous snapshot is now the older of the two wal.WriteSnapshot
	// keeps: segments wholly at or below its watermark are folded into both,
	// and the log from there on stays so that either one restores. A snapshot
	// at the same watermark replaced the previous file, and the older one kept
	// is still the one the last truncation stopped at.
	if seq > d.snapSeq {
		if terr := d.log.TruncateBefore(d.snapSeq + 1); terr != nil {
			d.latchLocked(terr)
			return d.err
		}
		d.snapSeq = seq
	}
	d.snapshots++
	// Records appended since the cut are past the watermark: they count
	// toward the next snapshot.
	d.sinceSnap = int(d.log.LastSeq() - seq)
	if d.tel.enabled {
		d.tel.event(obs.EventSnapshot, -1, -1, fmt.Sprintf("watermark %d", seq))
	}
	return nil
}

// snapshotLoop is the cadence-driven snapshot goroutine: append sites signal
// it (non-blocking) every SnapshotEvery appends. It re-checks the count
// first: appends made before a snapshot's cut may re-arm the signal while it
// is being written, and the snapshot covers them, so they must not fire a
// second one.
func (s *Server) snapshotLoop() {
	d := s.dur
	for {
		select {
		case <-d.stop:
			return
		case <-d.snapReq:
			d.mu.Lock()
			due := d.sinceSnap >= d.snapEvery
			d.mu.Unlock()
			if due {
				// A failure is latched and reported through /healthz.
				_ = s.Snapshot()
			}
		}
	}
}

// --- Restore ------------------------------------------------------------

// restoreState is what openWAL recovered from disk, handed to New's restore
// branch.
type restoreState struct {
	log     *wal.Log
	doc     *snapDoc // nil when no valid snapshot existed
	snapSeq uint64   // doc's watermark
	suffix  []wal.Record
	decoded []walRecord // suffix, each decoded once as the type its kind names
	now     exact.Q     // watermark virtual time of the restored state
	started time.Time
}

// openWAL loads the newest valid snapshot and the WAL suffix past its
// watermark. A torn snapshot or torn log tail is skipped/truncated by the
// wal package; a snapshot that fails to decode is an error (the disk state
// claims validity but cannot be interpreted — refusing to guess beats
// silently dropping history), and so is a suffix record that does not decode
// as the type its kind names, and a log that does not continue the snapshot:
// a suffix that starts past the seq after the watermark, or a log that ends
// before the watermark, whose next append would reuse a covered seq.
func openWAL(dir string, fsync bool) (*restoreState, error) {
	//divflow:wallclock-ok recovery wall time only annotates the recovery-duration histogram; no Server clock exists yet while the WAL is being opened
	st := &restoreState{started: time.Now()}
	snapSeq, payload, haveSnap := wal.LoadSnapshot(dir)
	log, recs, err := wal.Open(dir, wal.Options{Fsync: fsync})
	if err != nil {
		return nil, err
	}
	last := log.LastSeq()
	if last < snapSeq {
		log.Close()
		return nil, fmt.Errorf("server: restore: the log ends at seq %d, before the snapshot watermark %d", last, snapSeq)
	}
	if haveSnap {
		var doc snapDoc
		if err := json.Unmarshal(payload, &doc); err != nil {
			log.Close()
			return nil, fmt.Errorf("server: restore: snapshot decode: %w", err)
		}
		st.doc, st.snapSeq = &doc, snapSeq
		for i := range doc.Shards {
			ss := &doc.Shards[i]
			ss.thaw()
			if ss.Engine != nil {
				st.advance(ss.Engine.Now)
			}
		}
	}
	for _, rec := range recs {
		if rec.Seq <= snapSeq {
			continue
		}
		var r walRecord
		err := fmt.Errorf("unknown record type %q", rec.Type)
		if kind, ok := walKinds[rec.Type]; ok {
			r = kind()
			err = json.Unmarshal(rec.Data, r)
		}
		if err != nil {
			log.Close()
			return nil, replayErr(rec, err)
		}
		_, t, _ := r.head()
		st.advance(t)
		st.suffix, st.decoded = append(st.suffix, rec), append(st.decoded, r)
	}
	// wal.Open hands back a contiguous log, so the suffix is whole exactly
	// when it holds every seq past the watermark.
	if n := uint64(len(st.suffix)); n != last-snapSeq {
		log.Close()
		return nil, fmt.Errorf("server: restore: the log resumes at seq %d, the snapshot watermark is %d", last+1-n, snapSeq)
	}
	st.log = log
	return st, nil
}

// advance moves the watermark forward to t.
func (st *restoreState) advance(t exact.Q) {
	if t.Cmp(st.now) > 0 {
		st.now = t
	}
}

// hasState reports whether the disk held anything to restore.
func (st *restoreState) hasState() bool { return st.doc != nil || len(st.suffix) > 0 }

// validateLedger rejects a ledger that contradicts itself: a document intact
// on disk (CRC-valid) whose first read would divide by a count that has no
// sum, or print a maximum that is not there.
func validateLedger(totals *shardlink.ShardTotals, tenants shardlink.TenantLedger) error {
	if err := validateTotals("totals", *totals, totals.DoneCount, totals.Flow, totals.FlowSum, totals.MaxWF, totals.MaxStretch); err != nil {
		return err
	}
	for name, t := range tenants {
		if t == nil {
			return fmt.Errorf("tenant %q has no entry", name)
		}
		var sum exact.Q
		if t.FlowSum != nil {
			sum = *t.FlowSum
		}
		if err := validateTotals(fmt.Sprintf("tenant %q", name), *t, t.Completed, t.WFlow, sum, t.MaxWF); err != nil {
			return err
		}
	}
	return nil
}

// validateTotals checks one ledger struct: no count is negative, with done > 0
// every listed rational is positive (each is a sum or a maximum of flows,
// which are), and the histogram has the DefFlow layout, with Count the sum of
// its slots.
func validateTotals(what string, ledger any, done int, hist *obs.HistogramSnapshot, rats ...exact.Q) error {
	for _, r := range rats {
		if done > 0 && r.Sign() <= 0 {
			return fmt.Errorf("%s: %d completed jobs without a flow sum or maximum", what, done)
		}
	}
	if hist != nil {
		if !slices.Equal(hist.Buckets, obs.DefFlowBuckets) || len(hist.Counts) != len(hist.Buckets)+1 {
			return fmt.Errorf("%s: flow histogram of %d bounds and %d slots, not this build's layout", what, len(hist.Buckets), len(hist.Counts))
		}
		var slots uint64
		for _, c := range hist.Counts {
			slots += c
		}
		if slots != hist.Count {
			return fmt.Errorf("%s: flow histogram counts %d observations over slots holding %d", what, hist.Count, slots)
		}
	}
	return negativeCount(what, reflect.ValueOf(ledger))
}

// negativeCount walks a ledger struct — nested structs and per-class maps
// included, so a counter added later is covered without being listed here —
// and reports the first negative count.
func negativeCount(path string, v reflect.Value) error {
	switch v.Kind() {
	case reflect.Int:
		if v.Int() < 0 {
			return fmt.Errorf("%s = %d", path, v.Int())
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := negativeCount(path+"."+v.Type().Field(i).Name, v.Field(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if err := negativeCount(fmt.Sprintf("%s[%v]", path, it.Key()), it.Value()); err != nil {
				return err
			}
		}
	}
	return nil
}

// loadState fills a freshly built core from its snapshot entry. The core is
// private until the generation its shard belongs to is installed.
func (c *shardCore) loadState(ss *snapShard) error {
	c.retired = ss.Retired
	if ss.RecordBase < 0 {
		return fmt.Errorf("shard %d record base %d is negative", ss.Idx, ss.RecordBase)
	}
	c.records.base = ss.RecordBase
	for _, sr := range ss.Records {
		if sr == nil {
			c.records.add(nil)
			continue
		}
		if sr.Weight.Sign() <= 0 || sr.Size.Sign() <= 0 {
			return fmt.Errorf("record %d missing fields", sr.GID)
		}
		if sr.ID != c.records.next() {
			return fmt.Errorf("shard %d record %d out of order", ss.Idx, sr.ID)
		}
		rec := sr.clone()
		rec.hosts = c.hostMask(rec.Databanks)
		c.records.add(rec)
	}
	for _, id := range ss.PendingIDs {
		rec := c.records.get(id)
		if rec == nil {
			return fmt.Errorf("shard %d pending %d unknown", ss.Idx, id)
		}
		c.pending = append(c.pending, rec)
	}
	// Compaction dereferences every listed record's MigratedAt: a name that is
	// not a committed reservation would panic the shard's first compaction.
	for _, id := range ss.MigratedIDs {
		if rec := c.records.get(id); rec == nil || rec.State != StateMigrated || rec.MigratedAt == nil {
			return fmt.Errorf("shard %d migrated %d is not a migrated reservation", ss.Idx, id)
		}
		c.migratedIDs = append(c.migratedIDs, id)
	}
	if ss.Engine == nil {
		return fmt.Errorf("shard %d has no engine state", ss.Idx)
	}
	if err := c.eng.RestoreState(ss.Engine); err != nil {
		return fmt.Errorf("shard %d: %w", ss.Idx, err)
	}
	if c.mwf != nil && ss.Plan != nil {
		c.mwf.RestorePlanState(ss.Plan)
	}
	// The ledger arrives whole and is the core's as it stands, but for the
	// backlog split, which goes back into the routing key.
	if err := validateLedger(&ss.ShardTotals, ss.Tenants); err != nil {
		return fmt.Errorf("shard %d: %w", ss.Idx, err)
	}
	c.ShardTotals = ss.ShardTotals
	if c.LastCompact == nil && c.retention.Sign() > 0 {
		// A document that predates the field keeps the fresh shard's zero.
		c.LastCompact = new(exact.Q)
	}
	route := shardlink.RouteInfoReply{Backlog: ss.Backlog, Err: ss.LastErr}
	for t, tt := range ss.Tenants {
		if tt.Backlog.Sign() != 0 {
			if route.TenantBacklog == nil {
				route.TenantBacklog = make(map[string]exact.Q)
			}
			route.TenantBacklog[t] = tt.Backlog
		}
		tt.Backlog = exact.Q{}
		// A tenant that only ever had migrated work here has a backlog and no
		// entry of its own.
		if tt.Submitted+tt.Completed+len(tt.ByClass) > 0 {
			c.tenants[t] = tt
		}
	}
	if ss.LastErr != "" {
		c.lastErr = errors.New(ss.LastErr)
	}
	c.route.Store(&route)
	return nil
}

// restore rebuilds the server's whole topology from a snapshot document (or
// the fresh-start topology the caller built when none existed), applies the
// WAL suffix and only then attaches the log, so nothing the suffix holds is
// appended twice, while the repairs after it are. Called from New for every
// write-ahead-logged server, before any loop starts, so it is
// single-threaded; the shard locks it takes are for the helpers' documented
// invariants.
func (s *Server) restore(st *restoreState) error {
	if st.doc != nil {
		// The policy is part of the recorded execution: restoring a lazy
		// online-mwf history through the preemptive one would "validate" into
		// a different run. Names compare resolved, so "" is DefaultPolicy.
		logged, err := NewPolicy(st.doc.Policy)
		if err != nil {
			return fmt.Errorf("server: restore: this build does not serve the snapshot's policy: %w", err)
		}
		if logged.Name() != s.policyName {
			return fmt.Errorf("server: restore: snapshot taken under policy %q, server configured with %q",
				logged.Name(), s.policyName)
		}
		if st.doc.ShardsCfg > 0 {
			s.shardsCfg = st.doc.ShardsCfg
		}
		for g := range st.doc.Gens {
			r, err := st.doc.topo(g, len(s.all))
			if err == nil {
				_, _, err = s.installGeneration(r, st.doc.Shards)
			}
			if err != nil {
				return fmt.Errorf("server: restore: %w", err)
			}
		}
		if len(s.gens) == 0 || len(s.all) != len(st.doc.Shards) {
			return fmt.Errorf("server: restore: snapshot holds %d shards, its %d generations name %d", len(st.doc.Shards), len(s.gens), len(s.all))
		}
		for _, fw := range st.doc.Forward {
			sh, err := s.shardByIdx(fw.Shard)
			if err != nil {
				return fmt.Errorf("server: restore: forwarding entry: %w", err)
			}
			s.forward[fw.GID] = fwdLoc{sh: sh, local: fw.Local}
		}
	}
	for i, r := range st.decoded {
		if err := s.replay(r); err != nil {
			return replayErr(st.suffix[i], err)
		}
	}
	s.dur.mu.Lock()
	s.dur.log, s.dur.replayed = st.log, len(st.suffix)
	s.dur.mu.Unlock()
	s.finishMigrations()
	s.reshardMu.Lock()
	s.repairRetired(st.now)
	s.reshardMu.Unlock()
	return nil
}

// replayErr names the suffix record a restore refuses.
func replayErr(rec wal.Record, err error) error {
	return fmt.Errorf("server: replay: record %d (%s): %w", rec.Seq, rec.Type, err)
}

// shardByIdx resolves a creation index during restore: installGeneration
// admits a spawned shard only at the next index, so s.all is indexed by it.
func (s *Server) shardByIdx(idx int) (*shard, error) {
	if idx < 0 || idx >= len(s.all) {
		return nil, fmt.Errorf("unknown shard %d", idx)
	}
	return s.all[idx], nil
}

// RestoredNow returns the virtual time the fleet was restored at (zero for a
// fresh start or a server without a WAL).
func (s *Server) RestoredNow() *big.Rat { return s.restoredNow.Rat() }

// ReplayedRecords returns how many WAL records the last startup replayed.
func (s *Server) ReplayedRecords() int { return s.dur.stats().Replayed }
