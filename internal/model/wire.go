package model

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/big"

	"divflow/internal/obs"
	"divflow/internal/stats"
)

// Wire-format types of the divflowd HTTP API. All rationals travel as
// strings in big.Rat notation ("3/2", "10"), exactly like the instance and
// schedule encodings, so nothing is lost between client and scheduler.

// SubmitRequest is the body of POST /v1/jobs: one divisible request.
type SubmitRequest struct {
	Name string `json:"name,omitempty"`
	// Weight is the priority w_j of the max weighted flow objective;
	// optional, default 1.
	Weight string `json:"weight,omitempty"`
	// Size is the amount of work W_j; required (the service schedules under
	// the uniform cost model, c_{i,j} = Size · InverseSpeed_i).
	Size string `json:"size"`
	// Databanks lists the databanks the job needs; it may only run on
	// machines hosting all of them.
	Databanks []string `json:"databanks,omitempty"`
	// Deadline is an absolute virtual-time deadline (exact rational, same
	// timeline as Release/CompletedAt). When set, admission runs the paper's
	// deadline-feasibility LP (Lemma 1 / System (2)) against the routed
	// shard's residual workload and answers with an exact certificate — an
	// accept, or a typed reject carrying the best achievable counter-offer
	// deadline. Empty means no deadline.
	Deadline string `json:"deadline,omitempty"`
	// Tenant names the submitting tenant for weighted-fairness accounting
	// and isolation (per-tenant stats on GET /v1/tenants; a tenant over its
	// configured share is shed with a tenant_over_quota reject). Empty means
	// untracked legacy traffic, exempt from quota.
	Tenant string `json:"tenant,omitempty"`
	// SLAClass is the job's service class: "premium" (guaranteed — never
	// shed by tenant quota), "standard" (the default), or "batch"
	// (best-effort). It is carried end to end and reported per tenant.
	SLAClass string `json:"slaClass,omitempty"`
}

// SLA classes accepted on the wire. The empty string is normalized to
// SLAStandard at admission.
const (
	SLAPremium  = "premium"
	SLAStandard = "standard"
	SLABatch    = "batch"
)

// ValidSLAClass reports whether s names a known SLA class ("" included).
func ValidSLAClass(s string) bool {
	switch s {
	case "", SLAPremium, SLAStandard, SLABatch:
		return true
	}
	return false
}

// BatchSubmitRequest is the batch form of POST /v1/jobs: every job is
// admitted as one arrival batch and answered in order.
type BatchSubmitRequest struct {
	Jobs []SubmitRequest `json:"jobs"`
}

// BatchSubmitResult is one per-job outcome inside BatchSubmitResponse:
// either an accepted submission (ID/State/Warning/Admission, Error nil) or a
// typed rejection (Error set, the other fields zero).
type BatchSubmitResult struct {
	ID        int                   `json:"id,omitempty"`
	State     string                `json:"state,omitempty"`
	Warning   string                `json:"warning,omitempty"`
	Admission *AdmissionCertificate `json:"admission,omitempty"`
	Error     *WireError            `json:"error,omitempty"`
}

// BatchSubmitResponse answers a batch POST /v1/jobs, results in request
// order. The HTTP status is 202 when at least one job was accepted; the
// per-job Error fields carry individual rejections.
type BatchSubmitResponse struct {
	Results []BatchSubmitResult `json:"results"`
}

// maxWireRatBits bounds the numerator/denominator of rationals read off the
// wire: exact arithmetic makes every accepted digit a permanent cost in all
// later LP solves, so an unbounded "1e100000" would wedge the scheduling loop.
const maxWireRatBits = 256

// ParseWireRat is the one parse of a rational that arrives over HTTP — a
// submission's fields, a tenant weight, a platform's inverse speeds, the
// schedule window's start: any form big.Rat reads, refused past
// maxWireRatBits; what names the field in the error.
func ParseWireRat(s, what string) (*big.Rat, error) {
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		return nil, fmt.Errorf("model: cannot parse %s %q as a rational", what, s)
	}
	if r.Num().BitLen() > maxWireRatBits || r.Denom().BitLen() > maxWireRatBits {
		return nil, fmt.Errorf("model: %s %q exceeds %d bits", what, s, maxWireRatBits)
	}
	return r, nil
}

// Job converts the request into a model Job with no release date (the
// scheduler stamps the release when it admits the job).
func (r *SubmitRequest) Job() (Job, error) {
	job := Job{Name: r.Name, Databanks: r.Databanks, Weight: big.NewRat(1, 1)}
	if r.Size == "" {
		return job, errors.New("model: submission needs a size")
	}
	var err error
	if job.Size, err = ParseWireRat(r.Size, "size"); err != nil {
		return job, err
	}
	if r.Weight != "" {
		if job.Weight, err = ParseWireRat(r.Weight, "weight"); err != nil {
			return job, err
		}
	}
	if r.Deadline != "" {
		if job.Deadline, err = ParseWireRat(r.Deadline, "deadline"); err != nil {
			return job, err
		}
	}
	if err := job.CheckSubmission(); err != nil {
		return job, err
	}
	if !ValidSLAClass(r.SLAClass) {
		return job, fmt.Errorf("model: unknown slaClass %q (want premium, standard, or batch)", r.SLAClass)
	}
	job.Tenant = r.Tenant
	job.SLAClass = r.SLAClass
	if job.SLAClass == "" {
		job.SLAClass = SLAStandard
	}
	return job, nil
}

// CheckSubmission reports why the scheduling service cannot take the job: it
// schedules under the uniform cost model, so it needs a size > 0, the
// objective needs a weight > 0, and a deadline, when set, must be > 0. It is
// the one statement of these conditions, checked wherever a job enters a
// shard: SubmitRequest.Job on the HTTP edge, the shard's Submit handler (a
// worker's network surface) and the replay of a logged submission.
func (j *Job) CheckSubmission() error {
	switch {
	case j.Size == nil || j.Size.Sign() <= 0:
		return errors.New("model: submission needs size > 0")
	case j.Weight == nil || j.Weight.Sign() <= 0:
		return errors.New("model: submission needs weight > 0")
	case j.Deadline != nil && j.Deadline.Sign() <= 0:
		return errors.New("model: submission needs deadline > 0")
	}
	return nil
}

// AdmissionCertificate is the exact outcome of the deadline-feasibility
// check a shard ran for a submission. It rides SubmitResponse on accepted
// jobs and the error envelope on deadline_infeasible rejects.
type AdmissionCertificate struct {
	// Mode is the admission mode the check ran under: "strict" rejects
	// infeasible deadlines, "advisory" admits them but reports the
	// certificate.
	Mode string `json:"mode"`
	// Feasible is the exact LP verdict: the deadline (and every deadline
	// already admitted) can be met by some schedule of the shard's residual
	// workload.
	Feasible bool `json:"feasible"`
	// Deadline echoes the deadline that was checked.
	Deadline string `json:"deadline,omitempty"`
	// CounterOffer is the minimum feasible deadline for this job against the
	// same residual workload — the exact best the shard can promise — set
	// when the requested deadline is infeasible.
	CounterOffer string `json:"counterOffer,omitempty"`
	// ResidualJobs is the number of live + queued jobs the feasibility LP
	// covered (the submitted job included).
	ResidualJobs int `json:"residualJobs"`
}

// Typed error codes of the v1 error envelope (WireError.Code).
const (
	ErrCodeInvalidArgument    = "invalid_argument"
	ErrCodeNotFound           = "not_found"
	ErrCodeDeadlineInfeasible = "deadline_infeasible"
	ErrCodeTenantOverQuota    = "tenant_over_quota"
	ErrCodeShardStalled       = "shard_stalled"
	ErrCodeFleetClosed        = "fleet_closed"
	ErrCodeWALDegraded        = "wal_degraded"
	ErrCodeReshardDisabled    = "reshard_disabled"
	ErrCodeInternal           = "internal"
)

// WireError is the v1 error body: every non-2xx answer wraps one in an
// ErrorResponse envelope, {"error":{"code","message",...}}.
type WireError struct {
	// Code is one of the ErrCode* constants: a stable, machine-matchable
	// classification of the failure.
	Code    string `json:"code"`
	Message string `json:"message"`
	// Shard names the shard the failure is about (stalled-shard routing,
	// admission rejects), when one is.
	Shard *int `json:"shard,omitempty"`
	// RetryAfter is the server's retry hint in seconds, mirrored in the
	// Retry-After HTTP header (stalled shards, closed fleets).
	RetryAfter int `json:"retryAfter,omitempty"`
	// Admission carries the exact certificate on deadline_infeasible
	// rejects, counter-offer included.
	Admission *AdmissionCertificate `json:"admission,omitempty"`
}

// ErrorResponse is the versioned envelope every error body uses.
type ErrorResponse struct {
	Error WireError `json:"error"`
}

// SubmitResponse is the body answering POST /v1/jobs.
type SubmitResponse struct {
	ID    int    `json:"id"`
	State string `json:"state"`
	// Warning is set when the job was accepted onto a degraded shard — the
	// only shard hosting its databanks has latched a scheduling error, so
	// the job will queue until the shard recovers. It carries that shard's
	// error text; healthy routings leave it empty.
	Warning string `json:"warning,omitempty"`
	// Admission is the deadline-feasibility certificate for submissions that
	// carried a deadline (nil for deadline-free jobs and -admission=off).
	Admission *AdmissionCertificate `json:"admission,omitempty"`
}

// JobStatus is the body of GET /v1/jobs/{id}. Rational fields are empty
// until known (Release until the scheduler admits the job; CompletedAt,
// Flow, WeightedFlow and Stretch until it completes).
type JobStatus struct {
	ID        int      `json:"id"`
	Name      string   `json:"name,omitempty"`
	State     string   `json:"state"`
	Weight    string   `json:"weight"`
	Size      string   `json:"size"`
	Databanks []string `json:"databanks,omitempty"`
	// Release is the submission time — the job's flow origin; queueing
	// delay before the scheduler admits the job counts against its flow.
	Release     string `json:"release,omitempty"`
	Remaining   string `json:"remaining,omitempty"`
	CompletedAt string `json:"completedAt,omitempty"`
	Flow        string `json:"flow,omitempty"`
	// WeightedFlow is Weight · Flow, the job's contribution to the service
	// objective; Stretch is Flow / Size.
	WeightedFlow string `json:"weightedFlow,omitempty"`
	Stretch      string `json:"stretch,omitempty"`
	// Deadline, Tenant, and SLAClass echo the submission's SLA fields.
	// DeadlineMet reports, once the job completes, whether CompletedAt <=
	// Deadline (nil while live or when no deadline was set).
	Deadline    string `json:"deadline,omitempty"`
	Tenant      string `json:"tenant,omitempty"`
	SLAClass    string `json:"slaClass,omitempty"`
	DeadlineMet *bool  `json:"deadlineMet,omitempty"`
}

// TenantStats is one tenant's row in GET /v1/tenants: exact per-tenant
// weighted-flow accounting merged across shards, plus the admission-control
// counters the router keeps.
type TenantStats struct {
	Tenant string `json:"tenant"`
	// Weight is the tenant's configured fair share weight ("1" when the
	// tenant is not in the -tenants config).
	Weight string `json:"weight"`
	// Submitted counts accepted submissions, Completed completed jobs, and
	// Shed submissions rejected with tenant_over_quota.
	Submitted int `json:"submitted"`
	Completed int `json:"completed"`
	Shed      int `json:"shed,omitempty"`
	// Backlog is the tenant's exact residual work across the fleet (admitted
	// sizes minus completed work).
	Backlog string `json:"backlog"`
	// MaxWeightedFlow is the exact max of w_j (C_j − r_j) over the tenant's
	// completed jobs; MeanFlow and P95WeightedFlow are float summaries (the
	// P95 is estimated from the per-tenant weighted-flow histogram exported
	// on /metrics, so the two surfaces agree).
	MaxWeightedFlow string  `json:"maxWeightedFlow,omitempty"`
	MeanFlow        float64 `json:"meanFlow,omitempty"`
	P95WeightedFlow float64 `json:"p95WeightedFlow,omitempty"`
	// ByClass counts accepted submissions per SLA class.
	ByClass map[string]int `json:"byClass,omitempty"`
}

// TenantsResponse is the body of GET /v1/tenants, sorted by tenant name.
type TenantsResponse struct {
	Tenants []TenantStats `json:"tenants"`
}

// TenantConfig is a parsed -tenants document: the fleet's tenant weight
// shares. A tenant's fair share of the fleet backlog is its weight divided
// by the total weight of currently-active tenants; submissions that would
// push a tenant past that share are shed with tenant_over_quota (premium
// traffic is exempt). Tenants absent from the config get weight 1.
type TenantConfig struct {
	// Weights maps tenant name to its exact share weight (> 0).
	Weights map[string]*big.Rat
}

// Weight returns the configured weight for tenant (default 1). A nil config
// defaults every tenant to 1.
func (tc *TenantConfig) Weight(tenant string) *big.Rat {
	if tc != nil {
		if w, ok := tc.Weights[tenant]; ok {
			return new(big.Rat).Set(w)
		}
	}
	return big.NewRat(1, 1)
}

// ParseTenantConfig decodes a tenant-weights document:
// {"tenants":[{"name":"acme","weight":"3"}, ...]}. Names must be unique and
// non-empty, weights exact positive rationals.
func ParseTenantConfig(data []byte) (*TenantConfig, error) {
	var doc struct {
		Tenants []struct {
			Name   string `json:"name"`
			Weight string `json:"weight"`
		} `json:"tenants"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("model: tenants: %w", err)
	}
	if len(doc.Tenants) == 0 {
		return nil, errors.New("model: tenants config names no tenants")
	}
	tc := &TenantConfig{Weights: make(map[string]*big.Rat, len(doc.Tenants))}
	for i, t := range doc.Tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("model: tenants entry %d has no name", i)
		}
		if _, dup := tc.Weights[t.Name]; dup {
			return nil, fmt.Errorf("model: tenant %q configured twice", t.Name)
		}
		if t.Weight == "" {
			return nil, fmt.Errorf("model: tenant %q needs a weight", t.Name)
		}
		w, err := ParseWireRat(t.Weight, "tenant weight")
		if err != nil {
			return nil, err
		}
		if w.Sign() <= 0 {
			return nil, fmt.Errorf("model: tenant %q needs weight > 0", t.Name)
		}
		tc.Weights[t.Name] = w
	}
	return tc, nil
}

// ShardStats is the per-shard breakdown inside StatsResponse: one entry per
// scheduling shard of a partitioned divflowd instance. Counters have the
// same meaning as their aggregate counterparts; Backlog is the shard's exact
// residual work (accepted job sizes minus completed ones), the quantity the
// router minimizes when placing a submission eligible on several shards.
// JobsAccepted counts jobs submitted to the shard by the router (births
// only), so the fleet aggregate counts every job exactly once no matter how
// often it migrates; StolenJobs counts jobs this shard stole from overloaded
// shards and Migrations jobs stolen away from it.
type ShardStats struct {
	Shard int `json:"shard"`
	// Generation is the newest topology generation the shard is (or was) a
	// member of: kept shards advance with every reshard that keeps them,
	// retired shards stay at the generation their service ended in.
	Generation    int      `json:"generation"`
	Machines      []string `json:"machines"`
	Now           string   `json:"now"`
	JobsAccepted  int      `json:"jobsAccepted"`
	JobsQueued    int      `json:"jobsQueued"`
	JobsLive      int      `json:"jobsLive"`
	JobsCompleted int      `json:"jobsCompleted"`
	Events        int      `json:"events"`
	LPSolves      int      `json:"lpSolves"`
	PlanCacheHits int      `json:"planCacheHits"`
	// Solver is this shard's own hybrid-engine path breakdown (the aggregate
	// StatsResponse.Solver is the sum over shards): a single shard burning
	// exact fallbacks — a pathological workload shape — is visible here while
	// the fleet aggregate still looks healthy.
	Solver          stats.SolverTally `json:"solver"`
	ArrivalBatches  int               `json:"arrivalBatches"`
	BatchedArrivals int               `json:"batchedArrivals"`
	LargestBatch    int               `json:"largestBatch"`
	CompactedJobs   int               `json:"compactedJobs,omitempty"`
	StolenJobs      int               `json:"stolenJobs,omitempty"`
	Migrations      int               `json:"migrations,omitempty"`
	// ReshardedIn counts jobs a live reshard migrated onto this shard and
	// ReshardedOut jobs it migrated away; Retired marks a shard dropped from
	// the active topology by a reshard — it no longer schedules, but keeps
	// serving the records and executed trace of its generation.
	ReshardedIn  int  `json:"reshardedIn,omitempty"`
	ReshardedOut int  `json:"reshardedOut,omitempty"`
	Retired      bool `json:"retired,omitempty"`
	// Freed marks a retired shard whose fully-compacted history was released:
	// only the ID-decoding tombstone remains, so counters below it are the
	// aggregates frozen at the free.
	Freed   bool   `json:"freed,omitempty"`
	Backlog string `json:"backlog"`
	Stalled bool   `json:"stalled,omitempty"`
	// Panics counts loop panics the supervisor caught on this shard and
	// Restarts how often -restart-stalled rebuilt it from in-memory state.
	Panics    int    `json:"panics,omitempty"`
	Restarts  int    `json:"restarts,omitempty"`
	LastError string `json:"lastError,omitempty"`
}

// WALStats is the durability section of StatsResponse, present when the
// server runs with a write-ahead log.
type WALStats struct {
	// Appends counts records durably appended since startup; Snapshots the
	// fleet snapshots written. Replayed is the number of WAL records replayed
	// through the normal admission paths at the last startup.
	Appends   int `json:"appends"`
	Snapshots int `json:"snapshots,omitempty"`
	Replayed  int `json:"replayed,omitempty"`
	// Error is the latched WAL failure, if any: durability is frozen at a
	// consistent prefix while the service keeps scheduling.
	Error string `json:"error,omitempty"`
}

// StatsResponse is the body of GET /v1/stats.
type StatsResponse struct {
	Policy        string `json:"policy"`
	Now           string `json:"now"`
	JobsAccepted  int    `json:"jobsAccepted"`
	JobsLive      int    `json:"jobsLive"`
	JobsCompleted int    `json:"jobsCompleted"`
	// Events counts scheduling decision points (arrival batches, job
	// completions, plan review points); LPSolves counts exact inner solves
	// and PlanCacheHits the decision points served from the cached plan,
	// so Events - LPSolves is the work the batching/caching layer saved
	// (both are zero for solver-free policies).
	Events        int `json:"events"`
	LPSolves      int `json:"lpSolves"`
	PlanCacheHits int `json:"planCacheHits"`
	// Solver breaks the LP solves down by the hybrid engine's path: how
	// many were settled by the float simplex plus an exact verification,
	// how many needed a full exact fallback (crossovers reads 0), and
	// how often the basis the milestone search's own float probe ended on
	// settled the solve. All paths are exact; the split is a performance,
	// not a correctness, signal.
	Solver stats.SolverTally `json:"solver"`
	// ArrivalBatches counts scheduler wake-ups that admitted submitted jobs
	// and BatchedArrivals the jobs admitted by them, so BatchedArrivals >
	// ArrivalBatches means several arrivals shared one re-solve;
	// LargestBatch is the biggest single admission. Only each job's *first*
	// admission counts — work-stealing re-admissions are excluded — so,
	// like JobsAccepted, these counters see every submission exactly once
	// no matter how often the job migrates.
	ArrivalBatches  int `json:"arrivalBatches"`
	BatchedArrivals int `json:"batchedArrivals"`
	LargestBatch    int `json:"largestBatch"`
	// MaxWeightedFlow and MaxStretch aggregate the completed jobs
	// (exact rationals); MeanFlow and P95Flow are float summaries.
	MaxWeightedFlow string  `json:"maxWeightedFlow,omitempty"`
	MaxStretch      string  `json:"maxStretch,omitempty"`
	MeanFlow        float64 `json:"meanFlow,omitempty"`
	P95Flow         float64 `json:"p95Flow,omitempty"`
	// CompactedJobs counts completed jobs whose records and schedule pieces
	// were dropped by the retention policy; their flow/stretch contributions
	// remain in the aggregates above. P95Flow is estimated from the same
	// fixed-bucket flow histogram GET /metrics exports
	// (divflow_flow_time{shard}), with the same linear-interpolation
	// estimator Prometheus's histogram_quantile uses — so the two surfaces
	// cannot disagree on the same percentile.
	CompactedJobs int `json:"compactedJobs,omitempty"`
	// StolenJobs counts cross-shard work-stealing migrations received
	// (jobs an idle shard pulled from an overloaded one) and Migrations the
	// donations; fleet-wide the two are equal — every migration has exactly
	// one donor and one thief — and both are zero with -steal=false.
	StolenJobs int    `json:"stolenJobs,omitempty"`
	Migrations int    `json:"migrations,omitempty"`
	Stalled    bool   `json:"stalled,omitempty"`
	LastError  string `json:"lastError,omitempty"`
	// ShardCount is the number of *active* scheduling shards the fleet is
	// currently partitioned into; Shards breaks the aggregate counters above
	// down per shard, retired generations included. Generation is the
	// current topology epoch (0 until the first structural reshard),
	// ReshardEvents the number of structural reshards performed, and
	// ReshardedJobs the number of job migrations those reshards made.
	ShardCount    int          `json:"shardCount"`
	Generation    int          `json:"generation"`
	ReshardEvents int          `json:"reshardEvents,omitempty"`
	ReshardedJobs int          `json:"reshardedJobs,omitempty"`
	Shards        []ShardStats `json:"shards,omitempty"`
	// WAL is the durability layer's counters, nil when the server runs
	// without a write-ahead log.
	WAL *WALStats `json:"wal,omitempty"`
}

// ReshardResponse is the body answering POST /v1/platform: the outcome of a
// live re-sharding request. A no-op reshard (the new platform induces the
// partition already running) keeps every shard, migrates nothing, and does
// not advance the generation.
type ReshardResponse struct {
	// Generation is the topology epoch after the reshard.
	Generation int `json:"generation"`
	// ShardCount is the number of active shards after the reshard.
	ShardCount int `json:"shardCount"`
	// Noop reports that the new platform left the partition unchanged.
	Noop bool `json:"noop,omitempty"`
	// MigratedJobs counts the queued and live jobs moved (with their exact
	// remaining fractions) off retired shards onto the new topology.
	MigratedJobs int `json:"migratedJobs"`
	// SpawnedShards and RetiredShards list the creation indices of shards
	// the reshard started and drained; KeptShards the ones carried over.
	SpawnedShards []int `json:"spawnedShards,omitempty"`
	RetiredShards []int `json:"retiredShards,omitempty"`
	KeptShards    []int `json:"keptShards,omitempty"`
	// Warning is set when some migrated job could only be placed on a shard
	// whose loop has latched a scheduling error (the only host of its
	// databanks): the repartition succeeded, but that job will queue until
	// the shard recovers — the same degraded-routing signal SubmitResponse
	// carries.
	Warning string `json:"warning,omitempty"`
}

// ScheduleResponse is the body of GET /v1/schedule: the executed Gantt so
// far (pieces reference job IDs). Pieces of completed work never change;
// the piece currently in execution extends as time advances.
type ScheduleResponse struct {
	Now      string          `json:"now"`
	Makespan string          `json:"makespan"`
	Schedule json.RawMessage `json:"schedule"`
}

// Platform is a parsed platform document: the machine fleet a divflowd
// instance owns, plus optional service-level scheduling configuration.
type Platform struct {
	Machines []Machine
	// Shards, when positive, fixes the number of scheduling shards the fleet
	// is split into (round-robin), overriding the default partition by
	// databank-connectivity components. Useful for uniform fleets where every
	// machine hosts everything and the connectivity partition degenerates to
	// a single shard.
	Shards int
}

// ParsePlatformConfig decodes a platform document — the machine fleet, encoded
// as {"machines":[{"name","inverseSpeed","databanks"}]}, every machine with a
// strictly positive inverseSpeed, and the optional {"shards": N} scheduling
// partition override.
func ParsePlatformConfig(data []byte) (*Platform, error) {
	// Each inverse speed is read as text, so the bounded parse reads it.
	var doc struct {
		Machines []struct {
			Machine
			InverseSpeed string `json:"inverseSpeed"`
		} `json:"machines"`
		Shards int `json:"shards"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("model: platform: %w", err)
	}
	if len(doc.Machines) == 0 {
		return nil, errors.New("model: platform has no machines")
	}
	if doc.Shards < 0 {
		return nil, fmt.Errorf("model: platform shards = %d, want >= 0", doc.Shards)
	}
	machines := make([]Machine, len(doc.Machines))
	for i, m := range doc.Machines {
		if m.InverseSpeed == "" {
			return nil, fmt.Errorf("model: platform machine %d (%s) needs inverseSpeed", i, m.Name)
		}
		speed, err := ParseWireRat(m.InverseSpeed, fmt.Sprintf("platform machine %d (%s) inverseSpeed", i, m.Name))
		if err != nil {
			return nil, err
		}
		if speed.Sign() <= 0 {
			return nil, fmt.Errorf("model: platform machine %d (%s) needs inverseSpeed > 0", i, m.Name)
		}
		machines[i] = m.Machine
		machines[i].InverseSpeed = speed
	}
	return &Platform{Machines: machines, Shards: doc.Shards}, nil
}

// HealthResponse is the body of GET /healthz: "ok" with HTTP 200 while every
// active shard is healthy, "stalled" with HTTP 503 otherwise, naming the
// active shards whose loops latched a scheduling error. Retired shards are
// history, not health, and never appear here. A latched write-ahead-log
// failure degrades the status ("degraded", still HTTP 200 — the service
// keeps scheduling, only durability is frozen) and surfaces the error.
type HealthResponse struct {
	Status        string   `json:"status"`
	StalledShards []int    `json:"stalledShards,omitempty"`
	Errors        []string `json:"errors,omitempty"`
	WALError      string   `json:"walError,omitempty"`
}

// EventsResponse is the body of GET /v1/events: one page of the structured
// event journal. Next is the cursor to pass back as ?since= to see only
// newer events; Dropped counts events between the requested cursor and the
// oldest retained one that the bounded ring had already overwritten.
type EventsResponse struct {
	Events  []obs.Event `json:"events"`
	Next    int64       `json:"next"`
	Dropped int64       `json:"dropped,omitempty"`
}
