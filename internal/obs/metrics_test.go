package obs

import (
	"math"
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeRender(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("divflow_submissions_total", "Jobs accepted.", "shard")
	c.With("0").Add(3)
	c.With("1").Inc()
	g := r.Gauge("divflow_backlog_work", "Residual work.", "shard")
	g.With("0").Set(2.5)

	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# HELP divflow_submissions_total Jobs accepted.",
		"# TYPE divflow_submissions_total counter",
		`divflow_submissions_total{shard="0"} 3`,
		`divflow_submissions_total{shard="1"} 1`,
		"# TYPE divflow_backlog_work gauge",
		`divflow_backlog_work{shard="0"} 2.5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
}

// TestCounterVecEach: Each reads back every child an inline counter grew —
// label values and counts — and nothing for a family never incremented.
func TestCounterVecEach(t *testing.T) {
	r := NewRegistry()
	shed := r.Counter("divflow_tenant_shed_total", "Sheds.", "tenant")
	shed.Each(func(labels []string, n uint64) { t.Errorf("empty family yields %v = %d", labels, n) })
	shed.With("acme").Add(2)
	shed.With("globex").Inc()
	shed.With("acme").Inc()
	got := map[string]uint64{}
	shed.Each(func(labels []string, n uint64) { got[strings.Join(labels, ",")] = n })
	if len(got) != 2 || got["acme"] != 3 || got["globex"] != 1 {
		t.Errorf("Each read back %v, want acme=3 globex=1", got)
	}
}

func TestCounterSetIsScrapeRefresh(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("x_total", "x")
	refreshed := 0
	r.OnCollect(func() {
		refreshed++
		c.With().Set(uint64(10 * refreshed))
	})
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x_total 10") {
		t.Fatalf("collect hook not applied:\n%s", b.String())
	}
	b.Reset()
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "x_total 20") {
		t.Fatalf("second collect not applied:\n%s", b.String())
	}
}

func TestHistogramRenderAndSnapshot(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("lat_seconds", "Latency.", []float64{0.1, 1, 10}, "shard")
	child := h.With("2")
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		child.Observe(v)
	}
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		`lat_seconds_bucket{shard="2",le="0.1"} 1`,
		`lat_seconds_bucket{shard="2",le="1"} 3`,
		`lat_seconds_bucket{shard="2",le="10"} 4`,
		`lat_seconds_bucket{shard="2",le="+Inf"} 5`,
		`lat_seconds_sum{shard="2"} 56.05`,
		`lat_seconds_count{shard="2"} 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q in:\n%s", want, out)
		}
	}
	snap := child.Snapshot()
	if snap.Count != 5 || snap.Sum != 56.05 {
		t.Fatalf("snapshot count/sum = %d/%v, want 5/56.05", snap.Count, snap.Sum)
	}
	// Exactly-on-boundary observations land in the bucket whose upper bound
	// they equal (le semantics).
	hb := NewHistogram([]float64{1, 2})
	hb.Observe(1)
	if s := hb.Snapshot(); s.Counts[0] != 1 {
		t.Fatalf("boundary observation landed in bucket %v", s.Counts)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4, 8})
	// 100 observations uniform over (0,4]: quartiles land mid-bucket.
	for i := 0; i < 25; i++ {
		h.Observe(0.5)
		h.Observe(1.5)
		h.Observe(2.5)
		h.Observe(3.5)
	}
	s := h.Snapshot()
	if q := s.Quantile(50); q != 2 {
		t.Fatalf("P50 = %v, want 2 (bucket-edge interpolation)", q)
	}
	// Interpolation inside a bucket: half the mass sits in (2,4], so P75 is
	// halfway through it — the same answer Prometheus's histogram_quantile
	// gives for these buckets.
	if q := s.Quantile(75); q != 3 {
		t.Fatalf("P75 = %v, want 3", q)
	}
	if q := s.Quantile(62.5); q != 2.5 {
		t.Fatalf("P62.5 = %v, want 2.5", q)
	}
	if q := s.Quantile(100); q != 4 {
		t.Fatalf("P100 = %v, want 4", q)
	}
	// Overflow-only mass answers the top finite bound.
	ho := NewHistogram([]float64{1})
	ho.Observe(100)
	if q := ho.Snapshot().Quantile(95); q != 1 {
		t.Fatalf("overflow quantile = %v, want 1", q)
	}
	// Empty histogram: NaN.
	he := NewHistogram([]float64{1})
	if q := he.Snapshot().Quantile(95); !math.IsNaN(q) {
		t.Fatalf("empty quantile = %v, want NaN", q)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram([]float64{1, 2}).Snapshot()
	h1 := NewHistogram([]float64{1, 2})
	h1.Observe(0.5)
	h2 := NewHistogram([]float64{1, 2})
	h2.Observe(1.5)
	h2.Observe(3)
	a.Merge(h1.Snapshot())
	a.Merge(h2.Snapshot())
	if a.Count != 3 || a.Counts[0] != 1 || a.Counts[1] != 1 || a.Counts[2] != 1 {
		t.Fatalf("merged = %+v", a)
	}
	if a.Sum != 5 {
		t.Fatalf("merged sum = %v, want 5", a.Sum)
	}
}

func TestConcurrentInstruments(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "c", "shard")
	h := r.Histogram("h_seconds", "h", DefLatencyBuckets, "shard")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.With("0").Inc()
				h.With("0").Observe(0.001)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			var b strings.Builder
			if err := r.WriteText(&b); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	<-done
	if got := c.With("0").Value(); got != 8000 {
		t.Fatalf("counter = %d, want 8000", got)
	}
	if got := h.With("0").Snapshot().Count; got != 8000 {
		t.Fatalf("histogram count = %d, want 8000", got)
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("ExpBuckets = %v, want %v", b, want)
		}
	}
}

func TestLabelEscaping(t *testing.T) {
	r := NewRegistry()
	r.Gauge("g", "g", "name").With(`a"b\c`).Set(1)
	var b strings.Builder
	if err := r.WriteText(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), `g{name="a\"b\\c"} 1`) {
		t.Fatalf("label not escaped:\n%s", b.String())
	}
}
