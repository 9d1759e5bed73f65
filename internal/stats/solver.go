package stats

// SolverTally counts exact-LP solves by the hybrid-engine path that
// produced them. Every path yields the same exact status and objective; the tally
// shows how often the cheap paths carried the load, which is the hybrid
// engine's whole value proposition. It is aggregated per solver call in
// internal/core, per policy run in internal/sim, and service-wide by
// divflowd's GET /v1/stats.
type SolverTally struct {
	// FloatVerified counts solves settled by the float simplex plus one
	// exact refactorization check (no exact pivoting), including exactly
	// certified infeasibilities.
	FloatVerified int `json:"floatVerified"`
	// Crossovers reads 0: the engine no longer finishes the exact simplex
	// from a float basis. The field stays because the stats wire format, the
	// WAL and the metrics exposition carry it.
	Crossovers int `json:"crossovers"`
	// Fallbacks counts solves that ran the full exact simplex from scratch
	// because neither the handed basis nor the float result verified.
	Fallbacks int `json:"fallbacks"`
	// WarmHits counts solves settled from the basis the milestone search's
	// own float probe of the range ended on (verified exactly optimal in
	// place of the engine's float pass);
	// WarmMisses counts solves handed such a basis that rejected it and ran
	// the float pass after all. A solve no probe visited counts in neither.
	WarmHits   int `json:"warmHits"`
	WarmMisses int `json:"warmMisses"`
}

// Total returns the number of solves tallied.
func (t *SolverTally) Total() int {
	return t.FloatVerified + t.Crossovers + t.Fallbacks + t.WarmHits
}

// Merge accumulates o into t.
func (t *SolverTally) Merge(o SolverTally) {
	t.FloatVerified += o.FloatVerified
	t.Crossovers += o.Crossovers
	t.Fallbacks += o.Fallbacks
	t.WarmHits += o.WarmHits
	t.WarmMisses += o.WarmMisses
}
