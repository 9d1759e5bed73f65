package main

import (
	"encoding/json"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"time"

	"divflow/internal/schedule"
	"divflow/internal/stats"
)

// passResult is what one measured pass of a workload yields: the raw
// material of the end-to-end metrics plus the counts that must repeat
// between identical passes.
type passResult struct {
	jobs              int // completed (offline: jobs in solved instances)
	attempted, failed int
	wall, cpu         time.Duration
	held              float64   // MB the runtime held when the pass returned (untraced runs)
	requests          []float64 // latency of the workload's request, ms
	flowSum           *big.Rat  // Σ (C_j − r_j) over the flowN completed jobs read back
	flowN             int
	wflowMax          *big.Rat // max_j w_j (C_j − r_j) over the whole pass
	// windows holds the largest weighted flow of each window of jobs (see
	// flowWindow); windowMax and windowN are the window being filled.
	windows   []*big.Rat
	windowMax *big.Rat
	windowN   int
	// counts are the program's own counters (LP solves, events, rejects…);
	// on the deterministic workloads every pass must report the same.
	counts map[string]int64
	solver stats.SolverTally
	// Traced passes only: the stream indices of the accepted jobs, the
	// seconds the service's own divflow_solve_seconds histogram summed, and
	// the time inside the spans recorded during the measured wall.
	acceptedIdx  []int
	solveSeconds float64
	covered      time.Duration
}

// tamperPieces, set by -tamper, makes every workload corrupt its result
// before verifying it, to show that verification has teeth.
var tamperPieces bool

// tamper shortens the last executed piece when -tamper is set.
func tamper(pieces []schedule.Piece) []schedule.Piece {
	if tamperPieces && len(pieces) > 0 {
		p := &pieces[len(pieces)-1]
		p.End = new(big.Rat).Add(p.Start, new(big.Rat).Quo(p.Duration(), big.NewRat(2, 1)))
	}
	return pieces
}

// request files one request latency measured from start, and its span when
// tracing; it returns the span's index.
func (r *passResult) request(rec *spanRecorder, name string, id int, start time.Time) int {
	end := now()
	r.requests = append(r.requests, ms(end.Sub(start)))
	return rec.add(name, id, -1, start, end)
}

// noteFlow files one completed job's flow and weighted flow, in submission
// order.
func (r *passResult) noteFlow(flow, wf *big.Rat) {
	if r.flowSum == nil {
		r.flowSum = new(big.Rat)
	}
	r.flowSum.Add(r.flowSum, flow)
	r.flowN++
	if r.wflowMax == nil || wf.Cmp(r.wflowMax) > 0 {
		r.wflowMax = wf
	}
	if r.windowMax == nil || wf.Cmp(r.windowMax) > 0 {
		r.windowMax = wf
	}
	r.windowN++
}

// closeWindow ends the current window of weighted flows.
func (r *passResult) closeWindow() {
	if r.windowN > 0 {
		r.windows = append(r.windows, r.windowMax)
	}
	r.windowMax, r.windowN = nil, 0
}

// noteStreamFlow is noteFlow for the stream workloads, where a window is
// flowWindow consecutive jobs.
func (r *passResult) noteStreamFlow(flow, wf *big.Rat) {
	r.noteFlow(flow, wf)
	if r.windowN == flowWindow {
		r.closeWindow()
	}
}

// endStream closes the stream's last, partial window when it holds at
// least half a window of jobs or is the only one.
func (r *passResult) endStream() {
	if r.windowN >= flowWindow/2 || len(r.windows) == 0 {
		r.closeWindow()
	}
}

// exactState renders what two passes on one input must agree on when the
// workload is exact: every count, the exact flow sum and the exact maximum
// weighted flow.
func (r *passResult) exactState() string {
	return fmt.Sprintf("%v flows %s/%d max %s", r.counts, r.flowSum.RatString(), r.flowN, r.wflowMax.RatString())
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratFloat(r *big.Rat) float64 {
	if r == nil {
		return 0
	}
	f, _ := r.Float64()
	return f
}

// percentile and mean are internal/stats' estimators, except that an empty
// sample reads 0 — what a layer a workload does not exercise reports — not
// NaN.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Percentile(xs, p)
}

func median(xs []float64) float64 { return percentile(xs, 50) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return stats.Mean(xs)
}

// span is one timed call into a layer, recorded by the harness around the
// call. Parent is the index of the span that caused it (-1 for none): a
// wait for the shard loop names the submit it waits on, a late submit the
// generator delay before it. Spans of one request share Request.
type span struct {
	Name    string `json:"name"`
	Layer   string `json:"layer"`
	Request int    `json:"request"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"startNs"`
	EndNS   int64  `json:"endNs"`
}

// spanRecorder keeps spans in memory until the run ends. A nil recorder
// (every untraced run) records nothing.
type spanRecorder struct {
	epoch time.Time
	spans []span
}

func newSpanRecorder() *spanRecorder { return &spanRecorder{epoch: now()} }

// mark returns the index the next span will get.
func (r *spanRecorder) mark() int {
	if r == nil {
		return 0
	}
	return len(r.spans)
}

// add records a span and returns its index, for children to name as parent.
func (r *spanRecorder) add(name string, request, parent int, start, end time.Time) int {
	if r == nil {
		return -1
	}
	layer, _, _ := strings.Cut(name, ".")
	r.spans = append(r.spans, span{
		Name: name, Layer: layer, Request: request, Parent: parent,
		StartNS: start.Sub(r.epoch).Nanoseconds(), EndNS: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans) - 1
}

// child returns a recorder on the same epoch for another goroutine to fill;
// take hands its spans back for merge. Both are nil-safe.
func (r *spanRecorder) child() *spanRecorder {
	if r == nil {
		return nil
	}
	return &spanRecorder{epoch: r.epoch}
}

func (r *spanRecorder) take() []span {
	if r == nil {
		return nil
	}
	return r.spans
}

// merge appends root spans recorded by a child.
func (r *spanRecorder) merge(spans []span) {
	if r != nil {
		r.spans = append(r.spans, spans...)
	}
}

// durationsMS returns the duration, in milliseconds, of every span with
// the given name.
func (r *spanRecorder) durationsMS(name string) []float64 {
	var out []float64
	for i := range r.spans {
		if r.spans[i].Name == name {
			out = append(out, ms(time.Duration(r.spans[i].EndNS-r.spans[i].StartNS)))
		}
	}
	return out
}

// spanSum is the time inside the spans recorded from index from on. The
// replays time their calls one after another from one goroutine, so their
// spans never overlap and the sum is time accounted for.
func (r *spanRecorder) spanSum(from int) time.Duration {
	var sum time.Duration
	for i := from; r != nil && i < len(r.spans); i++ {
		sum += time.Duration(r.spans[i].EndNS - r.spans[i].StartNS)
	}
	return sum
}

// requestSum is the time inside the spans with one of the given names,
// recorded from index from on.
func (r *spanRecorder) requestSum(from int, names ...string) time.Duration {
	var sum time.Duration
	for i := from; i < len(r.spans); i++ {
		for _, name := range names {
			if r.spans[i].Name == name {
				sum += time.Duration(r.spans[i].EndNS - r.spans[i].StartNS)
			}
		}
	}
	return sum
}

// write dumps the spans to dir/trace-<workload>.json.
func (r *spanRecorder) write(dir, workload string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, fmt.Sprintf("trace-%s.json", workload))
	return os.WriteFile(path, data, 0o644)
}
