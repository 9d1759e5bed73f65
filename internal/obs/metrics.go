// Package obs is divflowd's zero-dependency telemetry layer: a metrics
// registry (counters, gauges, fixed-bucket histograms, all with label
// vectors) rendered in the Prometheus text exposition format, and a bounded
// structured journal of typed scheduling events (journal.go). It exists so
// the service's behavior under load — submit latency, solver-path mix,
// steal/reshard activity — is continuously measurable instead of visible
// only through point-in-time stats snapshots; the ROADMAP's load harness is
// expected to report its percentiles from these histograms.
//
// Everything is stdlib-only. Instruments are safe for concurrent use:
// counter/gauge/histogram updates are single atomic operations (histograms
// add one atomic per observation plus a CAS loop for the sum), so hot
// scheduling paths pay nanoseconds, not lock convoys. Rendering walks the
// registry under a read lock and never blocks writers for long.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"divflow/internal/stats"
)

// ExpBuckets returns n exponentially growing histogram bucket upper bounds:
// start, start·factor, start·factor², …
func ExpBuckets(start, factor float64, n int) []float64 {
	if start <= 0 || factor <= 1 || n < 1 {
		panic("obs: ExpBuckets needs start > 0, factor > 1, n >= 1")
	}
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DefLatencyBuckets spans wall-clock latencies from 1µs to ~67s (factor 4):
// wide enough for a cache-hit decision and a from-scratch exact LP solve to
// land in distinct buckets.
var DefLatencyBuckets = ExpBuckets(1e-6, 4, 14)

// DefFlowBuckets spans virtual-time flows (factor 2 from 1/16): the
// scheduling objective's scale in every committed workload, with enough
// resolution for quantile interpolation to stay meaningful.
var DefFlowBuckets = ExpBuckets(1.0/16, 2, 24)

// metricKind discriminates the families a registry can hold.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// family is one named metric family: fixed label names, children keyed by
// their label values.
type family struct {
	name    string
	help    string
	kind    metricKind
	labels  []string
	buckets []float64 // histograms only

	mu       sync.Mutex
	children map[string]any // key: joined label values
	order    []string       // insertion-ordered keys, sorted at render
}

// Registry holds metric families and renders them as Prometheus text.
type Registry struct {
	mu       sync.RWMutex
	families []*family
	byName   map[string]*family
	collect  []func()
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: map[string]*family{}}
}

// OnCollect registers a hook invoked at the start of every render: the
// server uses it to refresh scrape-time families (per-shard counters and
// gauges re-read from the authoritative shard counters, which keeps them
// exactly consistent with GET /v1/stats).
func (r *Registry) OnCollect(f func()) {
	r.mu.Lock()
	r.collect = append(r.collect, f)
	r.mu.Unlock()
}

func (r *Registry) register(name, help string, kind metricKind, buckets []float64, labels ...string) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.byName[name]; ok {
		if f.kind != kind || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: metric %q re-registered with a different shape", name))
		}
		return f
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, buckets: buckets, children: map[string]any{}}
	r.families = append(r.families, f)
	r.byName[name] = f
	return f
}

// Counter registers (or returns) a counter family. Counters are monotone:
// expose only values that never decrease.
func (r *Registry) Counter(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.register(name, help, kindCounter, nil, labels...)}
}

// Gauge registers (or returns) a gauge family.
func (r *Registry) Gauge(name, help string, labels ...string) *GaugeVec {
	return &GaugeVec{r.register(name, help, kindGauge, nil, labels...)}
}

// Histogram registers (or returns) a histogram family with the given bucket
// upper bounds (strictly increasing; +Inf is implicit).
func (r *Registry) Histogram(name, help string, buckets []float64, labels ...string) *HistogramVec {
	for i := 1; i < len(buckets); i++ {
		if buckets[i] <= buckets[i-1] {
			panic(fmt.Sprintf("obs: metric %q buckets not strictly increasing", name))
		}
	}
	return &HistogramVec{r.register(name, help, kindHistogram, buckets, labels...)}
}

// labelKey joins label values into a child key. Values are length-prefixed
// so no choice of values can collide across positions.
func labelKey(values []string) string {
	var b strings.Builder
	for _, v := range values {
		b.WriteString(strconv.Itoa(len(v)))
		b.WriteByte(':')
		b.WriteString(v)
	}
	return b.String()
}

func (f *family) child(values []string, make func() any) any {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: metric %q wants %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	key := labelKey(values)
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := make()
	f.children[key] = c
	f.order = append(f.order, key)
	return c
}

// CounterVec is a labeled counter family.
type CounterVec struct{ f *family }

// GaugeVec is a labeled gauge family.
type GaugeVec struct{ f *family }

// HistogramVec is a labeled histogram family.
type HistogramVec struct{ f *family }

// Counter is one monotone sample. It supports both inline increments and
// scrape-time refresh (Set from an authoritative monotone source).
type Counter struct {
	labels []string
	v      atomic.Uint64
}

// Gauge is one instantaneous sample.
type Gauge struct {
	labels []string
	bits   atomic.Uint64 // float64 bits
}

// With returns the counter child for the given label values, creating it on
// first use.
func (v *CounterVec) With(values ...string) *Counter {
	return v.f.child(values, func() any { return &Counter{labels: values} }).(*Counter)
}

// Each calls f with every child's label values and current count, in no
// particular order: the read side of a counter that is incremented inline
// and has no other home (GET /v1/tenants reads the quota-shed counts back).
func (v *CounterVec) Each(f func(labels []string, count uint64)) {
	v.f.mu.Lock()
	defer v.f.mu.Unlock()
	for _, child := range v.f.children {
		c := child.(*Counter)
		f(c.labels, c.Value())
	}
}

// With returns the gauge child for the given label values.
func (v *GaugeVec) With(values ...string) *Gauge {
	return v.f.child(values, func() any { return &Gauge{labels: values} }).(*Gauge)
}

// With returns the histogram child for the given label values.
func (v *HistogramVec) With(values ...string) *Histogram {
	return v.f.child(values, func() any { return NewHistogram(v.f.buckets, values...) }).(*Histogram)
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds delta.
func (c *Counter) Add(delta uint64) { c.v.Add(delta) }

// Set overwrites the counter with a value read from an authoritative
// monotone source (scrape-time collection). The caller owns monotonicity.
func (c *Counter) Set(v uint64) { c.v.Store(v) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Set overwrites the gauge.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Histogram is one fixed-bucket histogram sample. It can live inside a
// registry (HistogramVec.With) or standalone (NewHistogram): the shard flow
// histogram backs the /v1/stats P95 estimate even when the exporter is
// disabled, so stats and metrics can never disagree on the same quantile.
type Histogram struct {
	labels  []string
	buckets []float64 // upper bounds; counts has one extra slot for +Inf
	counts  []atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

// NewHistogram returns a standalone histogram with the given bucket upper
// bounds (strictly increasing; +Inf implicit).
func NewHistogram(buckets []float64, labels ...string) *Histogram {
	return &Histogram{
		labels:  labels,
		buckets: buckets,
		counts:  make([]atomic.Uint64, len(buckets)+1),
	}
}

// Observe records one sample.
func (h *Histogram) Observe(v float64) {
	// Binary search for the first bucket whose upper bound admits v.
	i := sort.SearchFloat64s(h.buckets, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nv := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nv) {
			return
		}
	}
}

// HistogramSnapshot is a point-in-time copy of a histogram: per-bucket
// (non-cumulative) counts, with the final slot counting observations above
// every finite bound.
type HistogramSnapshot struct {
	Buckets []float64 // upper bounds, finite
	Counts  []uint64  // len(Buckets)+1; last slot is the +Inf bucket
	Count   uint64
	Sum     float64
}

// Snapshot copies the histogram's current state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Buckets: h.buckets,
		Counts:  make([]uint64, len(h.counts)),
		Sum:     math.Float64frombits(h.sumBits.Load()),
	}
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		s.Count += c
	}
	return s
}

// Restore replaces the histogram's contents with a snapshot's — the
// durability layer reloading a shard's flow histogram from a DIVSNAP1
// document before WAL replay re-observes the post-snapshot completions. The
// snapshot must share the receiver's bucket layout.
func (h *Histogram) Restore(s HistogramSnapshot) error {
	if len(s.Counts) != len(h.counts) {
		return fmt.Errorf("obs: restore: snapshot has %d count slots, histogram has %d", len(s.Counts), len(h.counts))
	}
	for i := range h.counts {
		h.counts[i].Store(s.Counts[i])
	}
	h.sumBits.Store(math.Float64bits(s.Sum))
	return nil
}

// Merge folds o's counts into s (same bucket layout required): the server
// merges per-shard flow histograms into the fleet-wide quantile estimate.
func (s *HistogramSnapshot) Merge(o HistogramSnapshot) {
	if len(s.Counts) == 0 {
		s.Buckets, s.Counts = o.Buckets, append([]uint64(nil), o.Counts...)
		s.Count, s.Sum = o.Count, o.Sum
		return
	}
	if len(o.Counts) != len(s.Counts) {
		panic("obs: merging histograms with different bucket layouts")
	}
	for i := range s.Counts {
		s.Counts[i] += o.Counts[i]
	}
	s.Count += o.Count
	s.Sum += o.Sum
}

// Quantile estimates the p-th percentile (0–100) from the bucket counts,
// with linear interpolation inside the bucket — the same estimator
// Prometheus's histogram_quantile applies to the exported buckets, so a
// dashboard and GET /v1/stats answer the same number for the same quantile.
func (s HistogramSnapshot) Quantile(p float64) float64 {
	return stats.HistogramQuantile(s.Buckets, s.Counts, p)
}

// formatFloat renders a sample value the way Prometheus text format wants.
func formatFloat(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// writeLabels renders {k="v",...} (empty string for no labels). extra, when
// non-empty, appends one more pair (the histogram le label).
func writeLabels(b *strings.Builder, names, values []string, extraK, extraV string) {
	if len(names) == 0 && extraK == "" {
		return
	}
	b.WriteByte('{')
	for i := range names {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(names[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(values[i]))
		b.WriteByte('"')
	}
	if extraK != "" {
		if len(names) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(extraK)
		b.WriteString(`="`)
		b.WriteString(extraV)
		b.WriteByte('"')
	}
	b.WriteByte('}')
}

func escapeLabel(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// WriteText renders every family in the Prometheus text exposition format,
// families in registration order, children sorted by label values.
func (r *Registry) WriteText(w io.Writer) error {
	r.mu.RLock()
	collect := append([]func(){}, r.collect...)
	families := append([]*family{}, r.families...)
	r.mu.RUnlock()
	for _, f := range collect {
		f()
	}
	var b strings.Builder
	for _, f := range families {
		f.mu.Lock()
		keys := append([]string{}, f.order...)
		children := make([]any, len(keys))
		sort.Strings(keys)
		for i, k := range keys {
			children[i] = f.children[k]
		}
		f.mu.Unlock()
		if len(children) == 0 {
			continue
		}
		fmt.Fprintf(&b, "# HELP %s %s\n", f.name, f.help)
		fmt.Fprintf(&b, "# TYPE %s %s\n", f.name, f.kind)
		for _, c := range children {
			switch m := c.(type) {
			case *Counter:
				b.WriteString(f.name)
				writeLabels(&b, f.labels, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(m.Value(), 10))
				b.WriteByte('\n')
			case *Gauge:
				b.WriteString(f.name)
				writeLabels(&b, f.labels, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(m.Value()))
				b.WriteByte('\n')
			case *Histogram:
				snap := m.Snapshot()
				cum := uint64(0)
				for i, ub := range snap.Buckets {
					cum += snap.Counts[i]
					b.WriteString(f.name)
					b.WriteString("_bucket")
					writeLabels(&b, f.labels, m.labels, "le", formatFloat(ub))
					b.WriteByte(' ')
					b.WriteString(strconv.FormatUint(cum, 10))
					b.WriteByte('\n')
				}
				b.WriteString(f.name)
				b.WriteString("_bucket")
				writeLabels(&b, f.labels, m.labels, "le", "+Inf")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(snap.Count, 10))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_sum")
				writeLabels(&b, f.labels, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(formatFloat(snap.Sum))
				b.WriteByte('\n')
				b.WriteString(f.name)
				b.WriteString("_count")
				writeLabels(&b, f.labels, m.labels, "", "")
				b.WriteByte(' ')
				b.WriteString(strconv.FormatUint(snap.Count, 10))
				b.WriteByte('\n')
			}
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// Handler serves the registry at GET <path> in Prometheus text format.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WriteText(w)
	})
}
