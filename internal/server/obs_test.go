package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/big"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"

	"divflow/internal/model"
	"divflow/internal/obs"
	"divflow/internal/stats"
	"divflow/internal/workload"
)

// scrapeMetrics GETs /metrics and parses every sample line into a
// name{labels} → value map; the raw text comes back for format checks.
func scrapeMetrics(t *testing.T, base string) (map[string]float64, string) {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("metrics content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("unparseable metrics line %q", line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	return out, string(body)
}

func getEvents(t *testing.T, base, query string) model.EventsResponse {
	t.Helper()
	var resp model.EventsResponse
	getJSON(t, base+"/v1/events"+query, &resp)
	return resp
}

// monotoneSample reports whether a parsed metrics key is a monotone series:
// a counter, or a histogram bucket/count/sum (observations are nonnegative).
func monotoneSample(key string) bool {
	base := key
	if i := strings.IndexByte(key, '{'); i >= 0 {
		base = key[:i]
	}
	for _, suffix := range []string{"_total", "_bucket", "_count", "_sum"} {
		if strings.HasSuffix(base, suffix) {
			return true
		}
	}
	return false
}

// TestMetricsMatchStatsSingleShard pins the single-source rule: with one
// shard there is no aggregation ambiguity, so every counter GET /metrics
// exports must equal the corresponding GET /v1/stats field *exactly* — both
// surfaces render the same shard snapshot, not parallel bookkeeping that
// could drift. The exported flow histogram must also reproduce the stats
// P95 through the shared histogram_quantile estimator.
func TestMetricsMatchStatsSingleShard(t *testing.T) {
	cfg := workload.Default()
	cfg.Jobs = 12
	cfg.Machines = 2
	cfg.Databanks = 2
	cfg.Seed = 21
	inst := workload.MustGenerate(cfg)

	vc := NewVirtualClock()
	srv, err := New(Config{Machines: inst.Machines, Policy: "online-mwf", Shards: 1, Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Two waves so the counters cover solves, cache hits, and completions.
	reqs := submitRequests(inst)
	for _, req := range reqs[:6] {
		postJob(t, ts.URL, req)
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 6 })
	for _, req := range reqs[6:] {
		postJob(t, ts.URL, req)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == cfg.Jobs })

	var st model.StatsResponse
	getJSON(t, ts.URL+"/v1/stats", &st)
	m, raw := scrapeMetrics(t, ts.URL)
	for _, want := range []string{
		"# TYPE divflow_submissions_total counter",
		"# TYPE divflow_flow_time histogram",
		"# TYPE divflow_jobs_live gauge",
	} {
		if !strings.Contains(raw, want) {
			t.Errorf("metrics text missing %q", want)
		}
	}

	exact := map[string]int{
		`divflow_submissions_total{shard="0"}`:                       st.JobsAccepted,
		`divflow_jobs_completed_total{shard="0"}`:                    st.JobsCompleted,
		`divflow_engine_events_total{shard="0"}`:                     st.Events,
		`divflow_lp_solves_total{shard="0"}`:                         st.LPSolves,
		`divflow_plan_cache_hits_total{shard="0"}`:                   st.PlanCacheHits,
		`divflow_arrival_batches_total{shard="0"}`:                   st.ArrivalBatches,
		`divflow_batched_arrivals_total{shard="0"}`:                  st.BatchedArrivals,
		`divflow_solver_path_total{shard="0",path="float_verified"}`: st.Solver.FloatVerified,
		`divflow_solver_path_total{shard="0",path="crossover"}`:      st.Solver.Crossovers,
		`divflow_solver_path_total{shard="0",path="exact_fallback"}`: st.Solver.Fallbacks,
		`divflow_solver_warm_total{shard="0",result="hit"}`:          st.Solver.WarmHits,
		`divflow_solver_warm_total{shard="0",result="miss"}`:         st.Solver.WarmMisses,
		`divflow_flow_time_count{shard="0"}`:                         st.JobsCompleted,
		`divflow_jobs_live{shard="0"}`:                               st.JobsLive,
		`divflow_jobs_queued{shard="0"}`:                             0,
		`divflow_shard_stalled{shard="0"}`:                           0,
		`divflow_topology_generation`:                                st.Generation,
		`divflow_active_shards`:                                      st.ShardCount,
	}
	for key, want := range exact {
		got, ok := m[key]
		if !ok {
			t.Errorf("metric %s missing from the scrape", key)
			continue
		}
		if got != float64(want) {
			t.Errorf("%s = %v, /v1/stats says %d", key, got, want)
		}
	}

	// Rebuild the flow histogram from the exported cumulative buckets and
	// run the shared estimator over it: /metrics and /v1/stats must answer
	// the identical P95 (satellite: the two surfaces cannot disagree).
	bounds := obs.DefFlowBuckets
	counts := make([]uint64, len(bounds)+1)
	var prev float64
	for i, ub := range bounds {
		key := fmt.Sprintf(`divflow_flow_time_bucket{shard="0",le="%s"}`,
			strconv.FormatFloat(ub, 'g', -1, 64))
		cum, ok := m[key]
		if !ok {
			t.Fatalf("bucket %s missing from the scrape", key)
		}
		counts[i] = uint64(cum - prev)
		prev = cum
	}
	counts[len(bounds)] = uint64(m[`divflow_flow_time_bucket{shard="0",le="+Inf"}`] - prev)
	if got := stats.HistogramQuantile(bounds, counts, 95); got != st.P95Flow {
		t.Errorf("histogram_quantile over exported buckets = %v, /v1/stats p95Flow = %v", got, st.P95Flow)
	}

	// The journal counter agrees with the events cursor.
	ev := getEvents(t, ts.URL, "")
	if got := m[`divflow_journal_events_total`]; got != float64(ev.Next) {
		t.Errorf("divflow_journal_events_total = %v, /v1/events next = %d", got, ev.Next)
	}
	if len(ev.Events) == 0 {
		t.Error("journal empty after a full run")
	}
}

// TestHealthzReportsStalledShards: /healthz must answer 200 ok while every
// active shard is healthy and flip to 503 naming the stalled shards — off
// the same latched-error state the router reads — once a loop poisons. The
// stall must also be journaled and exported as a gauge.
func TestHealthzReportsStalledShards(t *testing.T) {
	vc := NewVirtualClock()
	machines := []model.Machine{
		{Name: "h0", InverseSpeed: rat(1, 1), Databanks: []string{"shared", "only0"}},
		{Name: "h1", InverseSpeed: rat(1, 1), Databanks: []string{"shared"}},
	}
	srv, err := New(Config{Machines: machines, Shards: 2, Clock: vc, DisableSteal: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var healthy model.HealthResponse
	getJSON(t, ts.URL+"/healthz", &healthy)
	if healthy.Status != "ok" || len(healthy.StalledShards) != 0 {
		t.Fatalf("healthy probe = %+v, want status ok with no stalled shards", healthy)
	}

	// Fault injection (as in TestSubmitSkipsStalledShard): clear the routed
	// job's hosts so shard 0's loop latches a rejected admit.
	resp, err := srv.Submit(&model.SubmitRequest{Size: "2", Databanks: []string{"shared"}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.ID%2 != 0 {
		t.Fatalf("first job routed to shard %d, want 0 (tie-break)", resp.ID%2)
	}
	sh := srv.active()[0]
	sh.mu.Lock()
	sh.records.get(resp.ID / 2).hosts = nil
	sh.mu.Unlock()
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.LastError != "" })

	hresp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stalled probe = %d, want 503", hresp.StatusCode)
	}
	var sick model.HealthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&sick); err != nil {
		t.Fatal(err)
	}
	if sick.Status != "stalled" {
		t.Errorf("status = %q, want stalled", sick.Status)
	}
	if len(sick.StalledShards) != 1 || sick.StalledShards[0] != 0 {
		t.Errorf("stalledShards = %v, want [0]", sick.StalledShards)
	}
	if len(sick.Errors) != 1 || sick.Errors[0] == "" {
		t.Errorf("errors = %v, want the shard's latched error", sick.Errors)
	}

	ev := getEvents(t, ts.URL, "?type="+obs.EventShardStall)
	if len(ev.Events) == 0 {
		t.Error("no shard-stall event journaled")
	}
	for _, e := range ev.Events {
		if e.Shard != 0 {
			t.Errorf("shard-stall event on shard %d, want 0", e.Shard)
		}
	}
	m, _ := scrapeMetrics(t, ts.URL)
	if m[`divflow_shard_stalled{shard="0"}`] != 1 {
		t.Errorf(`divflow_shard_stalled{shard="0"} = %v, want 1`, m[`divflow_shard_stalled{shard="0"}`])
	}
	if m[`divflow_shard_stalled{shard="1"}`] != 0 {
		t.Errorf(`divflow_shard_stalled{shard="1"} = %v, want 0`, m[`divflow_shard_stalled{shard="1"}`])
	}
}

// TestPerShardSolverTallySumsToAggregate is the regression test for the
// per-shard solver breakdown: each shard's stats must carry its own
// SolverTally, and the per-shard tallies must sum field-by-field to the
// fleet aggregate — an aggregate kept separately from the breakdown would
// eventually drift.
func TestPerShardSolverTallySumsToAggregate(t *testing.T) {
	// Two disconnected databank components → two shards, each running the
	// exact solver on its own workload.
	machines := []model.Machine{
		{Name: "a0", InverseSpeed: rat(1, 1), Databanks: []string{"banka"}},
		{Name: "a1", InverseSpeed: rat(1, 2), Databanks: []string{"banka"}},
		{Name: "b0", InverseSpeed: rat(1, 1), Databanks: []string{"bankb"}},
		{Name: "b1", InverseSpeed: rat(1, 3), Databanks: []string{"bankb"}},
	}
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: machines, Policy: "online-mwf", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.ShardCount() != 2 {
		t.Fatalf("shards = %d, want 2 (connectivity partition)", srv.ShardCount())
	}

	submitWave := func(n int) {
		for j := 0; j < n; j++ {
			bank := "banka"
			if j%2 == 1 {
				bank = "bankb"
			}
			req := model.SubmitRequest{Size: fmt.Sprintf("%d", 1+j%5), Databanks: []string{bank}}
			if _, err := srv.Submit(&req); err != nil {
				t.Fatal(err)
			}
		}
	}
	submitWave(6)
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 6 })
	// A second wave forces completion-perturbed re-solves on both shards.
	submitWave(6)
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 12 })

	st := srv.Stats()
	var sum stats.SolverTally
	solving := 0
	for _, shst := range st.Shards {
		sum.Merge(shst.Solver)
		if shst.Solver.Total() > 0 {
			solving++
		}
	}
	if solving != 2 {
		t.Errorf("per-shard solver tallies on %d shards, want both", solving)
	}
	if sum != st.Solver {
		t.Errorf("per-shard tallies sum to %+v, aggregate says %+v", sum, st.Solver)
	}
}

// TestEventJournalReplaysStealAndReshard drives the deterministic steal
// scenario (TestStealMigratesHalfExecutedJob's fixture), then a structural
// reshard, and replays the run from GET /v1/events: submissions, admissions,
// the per-job migrate and steal summary, and the reshard-generation event
// must come back in exact order, filterable and pageable, with every event
// mirrored to the NDJSON sink — the same journal, word for word, on every
// transport.
func TestEventJournalReplaysStealAndReshard(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) { testEventJournalReplaysStealAndReshard(t, tr) })
	}
}

func testEventJournalReplaysStealAndReshard(t *testing.T, transport string) {
	var sink bytes.Buffer
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt", Clock: vc, EventSink: &sink, Transport: transport})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	idD := submitTo(t, srv.active()[0], "2", "shared")
	idA := submitTo(t, srv.active()[0], "6", "shared")
	idC := submitTo(t, srv.active()[0], "10", "hot")
	idB := submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })

	// t=2: D completes; t=3: B completes, shard 1 goes idle and steals A.
	vc.Advance(big.NewRat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	vc.Advance(big.NewRat(3, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})

	// Structural reshard to one shard: the survivors (A on shard 1, C on
	// shard 0) migrate onto the spawned shard, generation 1.
	resp, err := srv.Reshard(&model.Platform{Machines: hotSharedFleet(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Generation != 1 || resp.MigratedJobs != 2 {
		t.Fatalf("reshard = generation %d, %d migrated, want 1 and 2", resp.Generation, resp.MigratedJobs)
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })

	all := getEvents(t, ts.URL, "")
	if all.Dropped != 0 {
		t.Fatalf("journal dropped %d events under capacity", all.Dropped)
	}
	for i := 1; i < len(all.Events); i++ {
		if all.Events[i].Seq <= all.Events[i-1].Seq {
			t.Fatalf("journal out of order at %d: %d after %d", i, all.Events[i].Seq, all.Events[i-1].Seq)
		}
	}
	find := func(typ string, pred func(obs.Event) bool) obs.Event {
		for _, e := range all.Events {
			if e.Type == typ && (pred == nil || pred(e)) {
				return e
			}
		}
		t.Fatalf("no %s event in the journal", typ)
		return obs.Event{}
	}
	for _, gid := range []int{idD, idA, idC, idB} {
		find(obs.EventSubmit, func(e obs.Event) bool { return e.GID == gid })
	}
	submitA := find(obs.EventSubmit, func(e obs.Event) bool { return e.GID == idA })
	admitA := find(obs.EventAdmit, func(e obs.Event) bool { return e.GID == idA })
	stolenA := find(obs.EventMigrate, func(e obs.Event) bool {
		return e.GID == idA && strings.Contains(e.Detail, "stolen from shard 0")
	})
	steal := find(obs.EventSteal, nil)
	reshard := find(obs.EventReshard, nil)
	if !(submitA.Seq < admitA.Seq && admitA.Seq < stolenA.Seq &&
		stolenA.Seq < steal.Seq && steal.Seq < reshard.Seq) {
		t.Errorf("event order broken: submit=%d admit=%d migrate=%d steal=%d reshard=%d",
			submitA.Seq, admitA.Seq, stolenA.Seq, steal.Seq, reshard.Seq)
	}
	if steal.Shard != 1 || !strings.Contains(steal.Detail, "1 jobs from shard 0") {
		t.Errorf("steal event = %+v, want thief shard 1 taking 1 job from shard 0", steal)
	}
	if reshard.Shard != -1 || reshard.Gen != 1 || !strings.Contains(reshard.Detail, "2 jobs migrated") {
		t.Errorf("reshard event = %+v, want server-level, generation 1, 2 jobs migrated", reshard)
	}
	for _, gid := range []int{idA, idC} {
		e := find(obs.EventMigrate, func(e obs.Event) bool {
			return e.GID == gid && strings.Contains(e.Detail, "resharded from shard")
		})
		if e.Gen != 1 {
			t.Errorf("reshard migrate of job %d under generation %d, want 1", gid, e.Gen)
		}
	}

	// Filters: by type, and by shard (server-level events carry shard -1 and
	// must not leak into a shard-filtered view).
	typed := getEvents(t, ts.URL, "?type="+obs.EventSteal)
	if len(typed.Events) != 1 || typed.Events[0].Type != obs.EventSteal {
		t.Errorf("type filter returned %d events, want exactly the steal", len(typed.Events))
	}
	byShard := getEvents(t, ts.URL, "?shard=1")
	if len(byShard.Events) == 0 {
		t.Error("shard filter returned nothing")
	}
	for _, e := range byShard.Events {
		if e.Shard != 1 {
			t.Errorf("shard=1 filter leaked event %+v", e)
		}
	}

	// Pagination: walking ?since= with limit=3 reassembles the full journal.
	var paged []obs.Event
	cursor := int64(0)
	for {
		page := getEvents(t, ts.URL, fmt.Sprintf("?since=%d&limit=3", cursor))
		paged = append(paged, page.Events...)
		if page.Next == cursor {
			break
		}
		cursor = page.Next
	}
	if len(paged) < len(all.Events) {
		t.Fatalf("pagination lost events: %d < %d", len(paged), len(all.Events))
	}
	for i, e := range all.Events {
		if paged[i].Seq != e.Seq {
			t.Fatalf("pagination diverges at %d: seq %d vs %d", i, paged[i].Seq, e.Seq)
		}
	}

	// NDJSON sink: quiesce the loops, then every journaled event must have
	// been mirrored as one decodable JSON line.
	srv.Close()
	if err := srv.tel.journal.SinkErr(); err != nil {
		t.Fatal(err)
	}
	want := srv.tel.journal.NextSeq()
	dec := json.NewDecoder(&sink)
	var lines int64
	for dec.More() {
		var e obs.Event
		if err := dec.Decode(&e); err != nil {
			t.Fatalf("sink line %d: %v", lines, err)
		}
		if e.Seq != lines {
			t.Fatalf("sink line %d carries seq %d", lines, e.Seq)
		}
		lines++
	}
	if lines != want {
		t.Errorf("sink holds %d events, journal appended %d", lines, want)
	}
}

// TestObsHammerUnderRace hammers the telemetry read surface while the
// service is busiest: concurrent HTTP submitters, two /metrics scrapers, a
// /v1/events poller, and a reshard storm, on a driven virtual clock. Run
// with -race this is the data-race check on the observability layer. The
// scrapers assert no monotone sample ever regresses between scrapes; the
// poller asserts the journal pages in strict sequence order; afterwards
// every journaled job ID must still resolve through the forwarding table,
// and the exported totals must equal the workload.
func TestObsHammerUnderRace(t *testing.T) {
	const clients, perClient = 8, 6
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 1, Policy: "mct", Clock: vc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	srv.Start()

	stop := make(chan struct{})
	var aux sync.WaitGroup
	aux.Add(1)
	go func() {
		defer aux.Done()
		for {
			select {
			case <-stop:
				return
			default:
				vc.AdvanceToNextTimer()
			}
		}
	}()
	for s := 0; s < 2; s++ {
		aux.Add(1)
		go func() {
			defer aux.Done()
			prev := make(map[string]float64)
			for {
				select {
				case <-stop:
					return
				default:
				}
				m, _ := scrapeMetrics(t, ts.URL)
				for k, v := range m {
					if !monotoneSample(k) {
						continue
					}
					if pv, ok := prev[k]; ok && v < pv {
						t.Errorf("monotone sample %s regressed between scrapes: %v -> %v", k, pv, v)
					}
					prev[k] = v
				}
			}
		}()
	}
	aux.Add(1)
	go func() {
		defer aux.Done()
		cursor, last := int64(0), int64(-1)
		for {
			page := getEvents(t, ts.URL, fmt.Sprintf("?since=%d", cursor))
			if page.Dropped != 0 {
				t.Errorf("journal dropped %d events well under capacity", page.Dropped)
			}
			for _, e := range page.Events {
				if e.Seq <= last {
					t.Errorf("event seq %d paged after %d", e.Seq, last)
				}
				last = e.Seq
			}
			cursor = page.Next
			select {
			case <-stop:
				return
			default:
			}
		}
	}()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := 0; k < perClient; k++ {
				postJob(t, ts.URL, model.SubmitRequest{
					Size:      fmt.Sprintf("%d", 1+(c+k)%5),
					Databanks: []string{"shared"},
				})
			}
		}(c)
	}
	// Reshard storm concurrent with the submissions and the scrapers.
	for _, shards := range []int{4, 2, 3} {
		if _, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: shards}); err != nil {
			t.Fatal(err)
		}
	}
	wg.Wait()
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.JobsCompleted == clients*perClient
	})
	close(stop)
	aux.Wait()

	// Replay the full journal: every event must name a shard and generation
	// inside the topology history, and every job-scoped event a global ID
	// that still resolves (through the forwarding table, across three
	// re-encodings of the ID space).
	var events []obs.Event
	cursor := int64(0)
	for {
		page := getEvents(t, ts.URL, fmt.Sprintf("?since=%d", cursor))
		events = append(events, page.Events...)
		if page.Next == cursor {
			break
		}
		cursor = page.Next
	}
	if len(events) == 0 {
		t.Fatal("journal empty after the storm")
	}
	total := len(srv.allShards())
	gen := srv.Generation()
	if gen != 3 {
		t.Errorf("generation = %d, want 3", gen)
	}
	for _, e := range events {
		if e.Shard < -1 || e.Shard >= total {
			t.Errorf("event %d (%s) names shard %d outside [-1, %d)", e.Seq, e.Type, e.Shard, total)
		}
		if e.Gen < 0 || e.Gen > gen {
			t.Errorf("event %d (%s) names generation %d outside [0, %d]", e.Seq, e.Type, e.Gen, gen)
		}
		if e.GID >= 0 {
			if _, known := srv.jobStatus(e.GID); !known {
				t.Errorf("event %d (%s) names job %d that no longer resolves", e.Seq, e.Type, e.GID)
			}
		}
	}

	// The exported totals agree with the workload: every submission and
	// completion appears exactly once across the shard labels.
	m, _ := scrapeMetrics(t, ts.URL)
	sum := func(name string) (s float64) {
		for k, v := range m {
			if strings.HasPrefix(k, name+"{") {
				s += v
			}
		}
		return s
	}
	if got := sum("divflow_submissions_total"); got != clients*perClient {
		t.Errorf("divflow_submissions_total sums to %v across shards, want %d", got, clients*perClient)
	}
	if got := sum("divflow_jobs_completed_total"); got != clients*perClient {
		t.Errorf("divflow_jobs_completed_total sums to %v across shards, want %d", got, clients*perClient)
	}
	if m[`divflow_topology_generation`] != 3 {
		t.Errorf("divflow_topology_generation = %v, want 3", m[`divflow_topology_generation`])
	}
}

// TestObsDisabledKeepsServiceSurface: -metrics=false must remove /metrics
// and /v1/events and stop journaling, while /healthz keeps answering and
// the flow histogram keeps backing the /v1/stats P95 estimate.
func TestObsDisabledKeepsServiceSurface(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: testFleet(), Clock: vc, DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, path := range []string{"/metrics", "/v1/events"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Errorf("GET %s with telemetry disabled = %d, want 404", path, resp.StatusCode)
		}
	}
	var h model.HealthResponse
	getJSON(t, ts.URL+"/healthz", &h)
	if h.Status != "ok" {
		t.Errorf("healthz = %+v, want ok (liveness is not telemetry)", h)
	}

	for _, size := range []string{"1", "2", "4"} {
		postJob(t, ts.URL, model.SubmitRequest{Size: size, Databanks: []string{"swissprot"}})
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 3 })
	st := srv.Stats()
	if st.P95Flow <= 0 {
		t.Errorf("p95Flow = %v with telemetry disabled; the flow histogram must keep backing /v1/stats", st.P95Flow)
	}
	if n := srv.tel.journal.NextSeq(); n != 0 {
		t.Errorf("journal appended %d events with telemetry disabled", n)
	}
}

// TestObsDisabledLeavesNoEffects: with telemetry off the shells still drain
// what their cores record, and drop it. A two-shard fleet under retention
// runs a steal and a seeded stream to completion, compacting as it goes;
// once it is quiet no shard holds an effect, the journal holds no event, and
// the ledger still backs p95Flow.
func TestObsDisabledLeavesNoEffects(t *testing.T) {
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Retention: rat(4, 1), Clock: vc, DisableObs: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	for _, size := range []string{"2", "6", "10"} {
		submitTo(t, srv.active()[0], size, "shared")
	}
	submitTo(t, srv.active()[1], "3", "shared")
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals == 4 })
	vc.Advance(rat(3, 2)) // shard 1 runs dry and steals
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.Migrations > 0 })
	wcfg := workload.Default()
	wcfg.Jobs, wcfg.Machines, wcfg.Seed = 12, 4, 9
	inst := workload.MustGenerate(wcfg)
	base := vc.Now()
	for _, job := range inst.Jobs {
		vc.Advance(new(big.Rat).Add(base, job.Release))
		req := model.SubmitRequest{Weight: job.Weight.RatString(), Size: job.Size.RatString(), Databanks: []string{"shared"}}
		if _, err := srv.Submit(&req); err != nil {
			t.Fatal(err)
		}
	}
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == inst.N()+4 })
	quiesce(t, srv, vc.Now())
	for _, sh := range srv.allShards() {
		sh.mu.Lock()
		if n := len(sh.effects); n != 0 {
			t.Errorf("shard %d holds %d undrained effects", sh.idx, n)
		}
		sh.mu.Unlock()
	}
	st := srv.Stats()
	if st.Migrations == 0 || st.CompactedJobs == 0 || st.P95Flow <= 0 {
		t.Errorf("stolen %d, compacted %d, p95Flow %v: want all positive", st.Migrations, st.CompactedJobs, st.P95Flow)
	}
	if n := srv.tel.journal.NextSeq(); n != 0 {
		t.Errorf("journal appended %d events with telemetry disabled", n)
	}
}
