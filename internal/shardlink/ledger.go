package shardlink

import (
	"math/big"

	"divflow/internal/obs"
	"divflow/internal/stats"
)

// The ledger: what a shard counts. Each thing has one struct here, held by
// the shard, embedded in the snapshot document (the JSON names are the
// snapshot's) and carried whole by StatsSnapshot; every other holder copies
// it with Clone and every fleet-wide figure comes from Merge. A rational or
// histogram that is nil counts as zero / empty.

// FlowTotals is the completed-job ledger the paper's objective is read off:
// Σ (C_j − r_j), max w_j (C_j − r_j) and max stretch over every job that
// finished, accumulated at completion time so compaction can forget the
// records without losing the all-time aggregates.
type FlowTotals struct {
	DoneCount  int      `json:"doneCount,omitempty"`
	FlowSum    *big.Rat `json:"flowSum,omitempty"`
	MaxWF      *big.Rat `json:"maxWF,omitempty"`
	MaxStretch *big.Rat `json:"maxStretch,omitempty"`
	// Flow is the completed-flow histogram backing the P95 estimate. The live
	// counts sit in the shard's exported histogram; a copy of the ledger
	// (snapshot, stats read) carries them here, nil while nothing completed.
	Flow *obs.HistogramSnapshot `json:"flow,omitempty"`
}

// Clone returns t sharing no rational and no histogram counts with it.
func (t FlowTotals) Clone() FlowTotals {
	var c FlowTotals
	c.Merge(t)
	return c
}

// Merge folds another shard's completed jobs (or one more completion) into t.
func (t *FlowTotals) Merge(o FlowTotals) {
	t.DoneCount += o.DoneCount
	t.FlowSum = addRat(t.FlowSum, o.FlowSum)
	t.MaxWF = maxRat(t.MaxWF, o.MaxWF)
	t.MaxStretch = maxRat(t.MaxStretch, o.MaxStretch)
	t.Flow = mergeHist(t.Flow, o.Flow)
}

// ShardTotals is a shard's durable scalar state: everything a snapshot must
// carry that is neither a record, a queue, nor the engine.
type ShardTotals struct {
	ArrivalBatches  int `json:"arrivalBatches,omitempty"`
	BatchedArrivals int `json:"batchedArrivals,omitempty"`
	LargestBatch    int `json:"largestBatch,omitempty"`
	StolenIn        int `json:"stolenIn,omitempty"`    // jobs migrated here by work stealing
	MigratedOut     int `json:"migratedOut,omitempty"` // jobs stolen away from here
	ReshardIn       int `json:"reshardIn,omitempty"`   // jobs migrated here by a live reshard
	ReshardOut      int `json:"reshardOut,omitempty"`  // jobs a live reshard migrated away from here

	FlowTotals

	LastCompact   *big.Rat `json:"lastCompact,omitempty"` // horizon of the last compaction
	CompactedJobs int      `json:"compactedJobs,omitempty"`
	// MakespanHW is the high-water mark of the executed trace's makespan,
	// folded in before every compaction: Engine.Compact drops old pieces, so
	// the makespan recomputed from the retained trace alone would move
	// backwards (to zero once everything is compacted).
	MakespanHW *big.Rat `json:"makespanHW,omitempty"`

	// Panics counts loop panics the supervisor caught; Restarts in-place
	// rebuilds by the -restart-stalled supervisor.
	Panics   int `json:"panics,omitempty"`
	Restarts int `json:"restarts,omitempty"`

	// Frozen* capture the last engine-derived stats before a retired shard's
	// engine is released, so /v1/stats keeps reporting its history.
	FrozenNow       *big.Rat          `json:"frozenNow,omitempty"`
	FrozenCompleted int               `json:"frozenCompleted,omitempty"`
	FrozenDecisions int               `json:"frozenDecisions,omitempty"`
	FrozenAccepted  int               `json:"frozenAccepted,omitempty"`
	FrozenSolves    int               `json:"frozenSolves,omitempty"`
	FrozenCacheHits int               `json:"frozenCacheHits,omitempty"`
	FrozenSolver    stats.SolverTally `json:"frozenSolver,omitempty"`
}

// Clone returns t sharing no rational and no histogram counts with it: a
// snapshot is marshaled, and a stats reply shipped, after the shard's mu is
// released, while the loop keeps adding into the live totals.
func (t ShardTotals) Clone() ShardTotals {
	t.FlowTotals = t.FlowTotals.Clone()
	t.LastCompact, t.MakespanHW, t.FrozenNow = addRat(nil, t.LastCompact), addRat(nil, t.MakespanHW), addRat(nil, t.FrozenNow)
	return t
}

// TenantTotals is one tenant's all-time accounting on one shard (or, merged,
// on the fleet), folded in at submission and completion time like FlowTotals.
type TenantTotals struct {
	// Submitted counts birth submissions (migrations excluded, so the fleet
	// sum sees every job once), Completed completions on this shard; FlowSum
	// and MaxWF aggregate those as FlowTotals does.
	Submitted int      `json:"submitted,omitempty"`
	Completed int      `json:"completed,omitempty"`
	FlowSum   *big.Rat `json:"flowSum,omitempty"`
	MaxWF     *big.Rat `json:"maxWF,omitempty"`
	// ByClass counts birth submissions per SLA class.
	ByClass map[string]int `json:"byClass,omitempty"`
	// WFlow is the tenant's weighted-flow histogram (the per-tenant P95) and
	// Backlog its exact residual work. On the live shard both sit elsewhere —
	// the exported histogram, the routing-side backlog split — and a copy of
	// the ledger carries them here.
	WFlow   *obs.HistogramSnapshot `json:"wflow,omitempty"`
	Backlog *big.Rat               `json:"backlog,omitempty"`
}

// Clone returns t sharing no rational, map or histogram counts with it.
func (t TenantTotals) Clone() TenantTotals {
	var c TenantTotals
	c.Merge(t)
	return c
}

// Merge folds the same tenant's accounting on another shard (or one more
// submission or completion) into t.
func (t *TenantTotals) Merge(o TenantTotals) {
	t.Submitted += o.Submitted
	t.Completed += o.Completed
	t.FlowSum = addRat(t.FlowSum, o.FlowSum)
	t.MaxWF = maxRat(t.MaxWF, o.MaxWF)
	if len(o.ByClass) > 0 && t.ByClass == nil {
		t.ByClass = make(map[string]int, len(o.ByClass))
	}
	for class, n := range o.ByClass {
		t.ByClass[class] += n
	}
	t.WFlow = mergeHist(t.WFlow, o.WFlow)
	t.Backlog = addRat(t.Backlog, o.Backlog)
}

// TenantLedger is a shard's (or the fleet's) tenant accounting, keyed by
// tenant name; untracked traffic is absent.
type TenantLedger map[string]*TenantTotals

// Clone returns a deep copy of l, never nil.
func (l TenantLedger) Clone() TenantLedger {
	c := make(TenantLedger, len(l))
	c.Merge(l)
	return c
}

// Merge folds another shard's ledger into l, which must not be nil.
func (l TenantLedger) Merge(o TenantLedger) {
	for name, t := range o {
		if l[name] == nil {
			l[name] = new(TenantTotals)
		}
		l[name].Merge(*t)
	}
}

// addRat returns dst + src in a rational the caller owns: dst itself once it
// exists, else a fresh copy of src (nil when both are).
func addRat(dst, src *big.Rat) *big.Rat {
	if src == nil {
		return dst
	}
	if dst == nil {
		return new(big.Rat).Set(src)
	}
	return dst.Add(dst, src)
}

// maxRat returns the larger of the two in a rational the caller owns.
func maxRat(dst, src *big.Rat) *big.Rat {
	if src == nil || (dst != nil && dst.Cmp(src) >= 0) {
		return dst
	}
	return new(big.Rat).Set(src)
}

// mergeHist folds src's counts into dst, allocating it on first use.
func mergeHist(dst, src *obs.HistogramSnapshot) *obs.HistogramSnapshot {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = new(obs.HistogramSnapshot)
	}
	dst.Merge(*src)
	return dst
}
