package server

import (
	"encoding/json"
	"flag"
	"fmt"
	"math/big"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"divflow/internal/model"
	"divflow/internal/shardlink"
)

var updateSchema = flag.Bool("update-metrics-schema", false, "rewrite testdata/metrics_schema.txt")

// metricsSchema reduces a /metrics exposition to one line per family — name,
// type, label names, help — sorted by name. A family is only rendered once it
// has a sample, so the caller's scenario has to touch every one of them.
func metricsSchema(t *testing.T, raw string) string {
	t.Helper()
	type family struct{ typ, help, labels string }
	fams := map[string]*family{}
	var names []string
	for _, line := range strings.Split(raw, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, help, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			fams[name] = &family{help: help, labels: "-"}
			names = append(names, name)
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			fams[name].typ = typ
		case line != "":
			// The first sample after the header names the family's labels.
			f := fams[names[len(names)-1]]
			if f.labels != "-" {
				continue
			}
			f.labels = ""
			if open := strings.IndexByte(line, '{'); open >= 0 {
				var labels []string
				for _, pair := range strings.Split(line[open+1:strings.IndexByte(line, '}')], ",") {
					if k, _, _ := strings.Cut(pair, "="); k != "le" {
						labels = append(labels, k)
					}
				}
				f.labels = strings.Join(labels, ",")
			}
		}
	}
	sort.Strings(names)
	var b strings.Builder
	for _, name := range names {
		f := fams[name]
		fmt.Fprintf(&b, "%s %s {%s} %s\n", name, f.typ, f.labels, f.help)
	}
	return b.String()
}

// TestMetricsSchema pins what a dashboard is written against: every family's
// name, type, label names and help text. The fixture was generated by the
// build before the per-shard families moved into one table (PR 18); the
// exposition may reorder families, it may not rename, retype or drop one.
// The scenario touches every family: two rpc-transport shards under the
// solving policy, tracked tenants, one quota shed.
func TestMetricsSchema(t *testing.T) {
	tc, err := model.ParseTenantConfig([]byte(`{"tenants":[
		{"name":"noisy","weight":"1"},{"name":"quiet","weight":"3"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "online-mwf",
		Clock: vc, Transport: shardlink.TransportRPC, Tenants: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	for _, req := range []model.SubmitRequest{
		{Size: "5", Tenant: "noisy", Databanks: []string{"shared"}},
		{Size: "1", Tenant: "quiet", Databanks: []string{"shared"}},
	} {
		if _, err := srv.Submit(&req); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := srv.Submit(&model.SubmitRequest{Size: "5", Tenant: "noisy", Databanks: []string{"shared"}}); err == nil {
		t.Fatal("the flooding tenant's second submission was not shed")
	}
	srv.Start()
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 2 })

	_, raw := scrapeMetrics(t, ts.URL)
	got := metricsSchema(t, raw)
	const fixture = "testdata/metrics_schema.txt"
	if *updateSchema {
		if err := os.WriteFile(fixture, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(fixture)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("/metrics schema drifted from %s\n got:\n%s\nwant:\n%s", fixture, got, want)
	}
}

// TestTenantMetricsMatchTenants extends TestMetricsMatchStatsSingleShard's
// single-source rule to the tenant surface, across shards: per tenant,
// GET /v1/tenants and the divflow_tenant_* samples of the same instant agree
// exactly — right after a steal left one tenant's backlog on a shard that
// holds no entry for it (TestStealMigratesHalfExecutedJob's scenario, with
// tenants), and again once everything completed. Both transports: the gob
// crossing is where a ledger copy that aliased or dropped a field would show.
func TestTenantMetricsMatchTenants(t *testing.T) {
	for _, tr := range transportAxis {
		t.Run(tr, func(t *testing.T) { testTenantMetricsMatchTenants(t, tr) })
	}
}

func testTenantMetricsMatchTenants(t *testing.T, transport string) {
	tc, err := model.ParseTenantConfig([]byte(`{"tenants":[
		{"name":"acme","weight":"1"},{"name":"globex","weight":"1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: hotSharedFleet(), Shards: 2, Policy: "srpt",
		Clock: vc, Transport: transport, Tenants: tc})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	submitTo := func(sh *shard, size, tenant, databank string) {
		t.Helper()
		job, err := (&model.SubmitRequest{Size: size, Tenant: tenant, Databanks: []string{databank}}).Job()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sh.submit(job); err != nil {
			t.Fatal(err)
		}
	}
	submitTo(srv.active()[0], "2", "acme", "shared")   // D
	submitTo(srv.active()[0], "6", "acme", "shared")   // A
	submitTo(srv.active()[0], "10", "globex", "hot")   // C
	submitTo(srv.active()[1], "3", "globex", "shared") // B
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.BatchedArrivals >= 4 })
	vc.Advance(rat(2, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.JobsCompleted == 1 })
	// t=3: B completes, shard 1 idles and steals the half-executed A.
	vc.Advance(rat(3, 1))
	waitStats(t, srv, func(st model.StatsResponse) bool {
		return st.Migrations == 1 && st.Shards[1].JobsLive == 1
	})
	quiesce(t, srv, rat(3, 1))
	// acme holds 6 of the 16 units of backlog; 50 more would put it far past
	// its half.
	if _, err := srv.Submit(&model.SubmitRequest{Size: "50", Tenant: "acme", Databanks: []string{"shared"}}); err == nil {
		t.Fatal("the flooding submission was not shed")
	}

	check := func(stage string, want map[string]model.TenantStats) {
		t.Helper()
		var tenants model.TenantsResponse
		getJSON(t, ts.URL+"/v1/tenants", &tenants)
		m, _ := scrapeMetrics(t, ts.URL)
		if len(tenants.Tenants) != len(want) {
			t.Fatalf("%s: /v1/tenants = %+v, want %d rows", stage, tenants.Tenants, len(want))
		}
		for _, row := range tenants.Tenants {
			w := want[row.Tenant]
			if row.Submitted != w.Submitted || row.Completed != w.Completed || row.Shed != w.Shed || row.Backlog != w.Backlog {
				t.Errorf("%s: row %+v, want submitted %d completed %d shed %d backlog %s",
					stage, row, w.Submitted, w.Completed, w.Shed, w.Backlog)
			}
			backlog, _ := new(big.Rat).SetString(row.Backlog)
			backlogF, _ := backlog.Float64()
			for family, v := range map[string]float64{
				"divflow_tenant_submissions_total": float64(row.Submitted),
				"divflow_tenant_completed_total":   float64(row.Completed),
				"divflow_tenant_shed_total":        float64(row.Shed), // no sample until the first shed
				"divflow_tenant_backlog_work":      backlogF,
			} {
				if got := m[fmt.Sprintf(`%s{tenant="%s"}`, family, row.Tenant)]; got != v {
					t.Errorf("%s: %s{tenant=%q} = %v, /v1/tenants says %v", stage, family, row.Tenant, got, v)
				}
			}
		}
	}
	check("after the steal", map[string]model.TenantStats{
		"acme":   {Submitted: 2, Completed: 1, Shed: 1, Backlog: "6"},
		"globex": {Submitted: 2, Completed: 1, Backlog: "10"},
	})
	drive(t, vc, func() bool { return srv.Stats().JobsCompleted == 4 })
	check("drained", map[string]model.TenantStats{
		"acme":   {Submitted: 2, Completed: 2, Shed: 1, Backlog: "0"},
		"globex": {Submitted: 2, Completed: 2, Backlog: "0"},
	})
}

// TestTenantRowsIgnoreMergeOrder restores the parent-format fixture's fleet —
// tenant entries split over both shards, one of them a backlog with no entry
// of its own — and requires the rows the parent's hand-written merge answered
// (expected.json), whichever order the shards' ledgers are merged in.
func TestTenantRowsIgnoreMergeOrder(t *testing.T) {
	var want struct {
		Tenants model.TenantsResponse `json:"tenants"`
	}
	data, err := os.ReadFile(filepath.Join(parentFixture, "expected.json"))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	copyDir(t, filepath.Join(parentFixture, "wal"), dir)
	srv, _ := reopenServer(t, parentFixtureCfg(dir))
	defer srv.Close()
	for _, order := range []string{"creation order", "reversed"} {
		if got := srv.TenantStats(); !reflect.DeepEqual(got, want.Tenants) {
			t.Errorf("%s: /v1/tenants = %+v, the parent's fleet answered %+v", order, got, want.Tenants)
		}
		srv.topoMu.Lock()
		slices.Reverse(srv.all)
		srv.topoMu.Unlock()
	}
}
