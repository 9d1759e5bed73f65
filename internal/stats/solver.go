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
	// Crossovers counts solves where the float basis was exactly feasible
	// but not optimal and the exact simplex finished from it.
	Crossovers int `json:"crossovers"`
	// Fallbacks counts solves that ran the full exact simplex from scratch
	// because the float result failed exact verification.
	Fallbacks int `json:"fallbacks"`
	// WarmHits counts solves settled from the basis the milestone search's
	// own float probe of the range ended on (verified exactly optimal in
	// place of the engine's float pass, or re-optimized from it);
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
