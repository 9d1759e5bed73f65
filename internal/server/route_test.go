package server

import (
	"fmt"
	"maps"
	"math/big"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"divflow/internal/exact"
	"divflow/internal/model"
	"divflow/internal/shardlink"
)

// TestPickRoutePlacesSubmitAndDrainAlike pins the one placement rule both of
// its callers apply: a submission through pickRoute, a reshard's drain (and
// the restore repair) through placement.pick, which is pickRoute plus the
// count of what the drain has placed so far.
func TestPickRoutePlacesSubmitAndDrainAlike(t *testing.T) {
	// mk builds one route per spec "databank backlog [latched error]".
	mk := func(specs ...string) []route {
		var routes []route
		for i, spec := range specs {
			f := strings.SplitN(spec, " ", 3)
			var backlog exact.Q
			if err := backlog.UnmarshalText([]byte(f[1])); err != nil {
				t.Fatal(err)
			}
			r := route{
				sh:             &shard{shardCore: shardCore{idx: i, machines: []model.Machine{{Name: "m", Databanks: []string{f[0]}}}}},
				RouteInfoReply: shardlink.RouteInfoReply{Backlog: backlog},
			}
			if len(f) == 3 {
				r.Err = f[2]
			}
			routes = append(routes, r)
		}
		return routes
	}
	for _, tc := range []struct {
		name   string
		routes []route
		bank   string
		want   int    // picked shard idx, -1 for none
		stall  string // the pick's Err: what both callers quote in their warning
	}{
		{"least backlog", mk("a 5", "a 3", "a 4"), "a", 1, ""},
		{"tie to the lowest index", mk("a 3", "a 3/1", "a 6/2"), "a", 0, ""},
		{"only hosts count", mk("b 0", "a 7", "b 1"), "a", 1, ""},
		{"healthy beats an emptier stalled shard", mk("a 0 boom", "a 9"), "a", 1, ""},
		{"stalled fallback, least loaded of them", mk("a 4 late", "b 0", "a 2 boom"), "a", 2, "boom"},
		{"stalled tie to the lowest index", mk("a 2 first", "a 2 second"), "a", 0, "first"},
		{"no host", mk("a 0", "b 0"), "c", -1, ""},
		{"no reachable shard", nil, "a", -1, ""},
	} {
		got := pickRoute(tc.routes, []string{tc.bank})
		if got == nil {
			if tc.want != -1 {
				t.Errorf("%s: picked nothing, want shard %d", tc.name, tc.want)
			}
			continue
		}
		if got.sh.idx != tc.want || got.Err != tc.stall {
			t.Errorf("%s: picked shard %d (err %q), want %d (err %q)", tc.name, got.sh.idx, got.Err, tc.want, tc.stall)
		}
	}

	// A drain accumulates: three equal jobs over backlogs 1 and 2 go to shard
	// 0, then shard 1 (2 < 3), then shard 0 again (3 = 3, lowest index) — and
	// the job no shard hosts goes nowhere and counts nowhere.
	pl := &placement{routes: mk("a 1", "a 2", "b 0 boom")}
	var order []int
	for gid, bank := range []string{"a", "a", "c", "a", "b"} {
		dest := pl.pick(&shardlink.MigratedJob{GID: gid, Job: shardlink.Job{Size: exact.Int(2), Databanks: []string{bank}}})
		if dest == nil {
			order = append(order, -1)
		} else {
			order = append(order, dest.idx)
		}
	}
	if want := []int{0, 1, -1, 0, 2}; !slices.Equal(order, want) {
		t.Errorf("drain placed on %v, want %v", order, want)
	}
	if want := "job 4 migrated to stalled shard 2 (no healthy shard hosts databanks [b]): boom"; pl.warning != want {
		t.Errorf("drain warning = %q, want %q", pl.warning, want)
	}
	if got := pl.routes[0].Backlog; got.Cmp(exact.Int(5)) != 0 {
		t.Errorf("shard 0 counts %v after two placements of size 2 on backlog 1, want 5", got)
	}
}

// TestRouteKeyMatchesRecords holds every shard's published routing key to its
// records at each step of seeded steal, reshard, retention and shutdown
// scenarios: the backlog is the summed size of the queued and scheduled
// records (reserved ones included), the tenant split the same sum per tenant.
// A router goroutine reads the keys throughout and checks that no reply it
// already holds changes under it.
func TestRouteKeyMatchesRecords(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) { testRouteKeyMatchesRecords(t, seed) })
	}
}

func testRouteKeyMatchesRecords(t *testing.T, seed int64) {
	tc, err := model.ParseTenantConfig([]byte(`{"tenants":[
		{"name":"gold","weight":"2"},{"name":"silver","weight":"1"}]}`))
	if err != nil {
		t.Fatal(err)
	}
	vc := NewVirtualClock()
	srv, err := New(Config{Machines: uniformFleet(4), Shards: 2, Policy: "srpt", Clock: vc,
		Tenants: tc, Retention: big.NewRat(4, 1)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	rng := rand.New(rand.NewSource(seed))
	// randomJob is premium, so the quota never sheds the fixture itself.
	randomJob := func() *model.SubmitRequest {
		return &model.SubmitRequest{Size: fmt.Sprintf("%d/%d", 1+rng.Intn(9), 1+rng.Intn(3)),
			Tenant: []string{"gold", "silver", ""}[rng.Intn(3)], SLAClass: model.SLAPremium,
			Databanks: []string{"shared"}}
	}
	// submit sends one random job through the router (sh nil) or straight
	// onto sh.
	submit := func(sh *shard) {
		t.Helper()
		if sh == nil {
			if _, err := srv.Submit(randomJob()); err != nil {
				t.Fatal(err)
			}
			return
		}
		job, err := randomJob().Job()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := sh.submit(job); err != nil {
			t.Fatal(err)
		}
	}
	check := func(step string) {
		t.Helper()
		for _, sh := range srv.allShards() {
			checkRouteKey(t, step, sh)
		}
	}
	advance := func(step string, events int) {
		t.Helper()
		for range events {
			if !vc.AdvanceToNextTimer() {
				time.Sleep(100 * time.Microsecond)
			}
			check(step)
		}
	}

	type heldReply struct{ held, copied shardlink.RouteInfoReply }
	var kept []heldReply
	stop := make(chan struct{})
	var router sync.WaitGroup
	router.Add(1)
	go func() {
		defer router.Done()
		for n := 0; ; n++ {
			select {
			case <-stop:
				return
			default:
			}
			routes, down := readRoutes(srv.allShards())
			if len(down) > 0 {
				t.Errorf("in-process shard %d unreachable: %s", down[0].sh.idx, down[0].Err)
				return
			}
			for _, r := range routes {
				if r.Backlog.Sign() < 0 {
					t.Errorf("shard %d publishes backlog %s", r.sh.idx, r.Backlog)
				}
				for tenant, b := range r.TenantBacklog {
					if b.Sign() <= 0 {
						t.Errorf("shard %d publishes tenant %q backlog %s", r.sh.idx, tenant, b)
					}
				}
				if n%4 == 0 && len(kept) < 512 {
					ri := r.RouteInfoReply
					kept = append(kept, heldReply{ri, shardlink.RouteInfoReply{
						Backlog: ri.Backlog, Err: ri.Err, TenantBacklog: maps.Clone(ri.TenantBacklog)}})
				}
			}
			time.Sleep(20 * time.Microsecond)
		}
	}()

	// Steal: every job lands on shard 0; shard 1 starts idle and steals.
	for range 8 {
		submit(srv.active()[0])
		check("submit")
	}
	srv.Start()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.Migrations > 0 })
	check("steal")
	advance("run after steal", 6)
	// Route work onto the shards, then reshard with it in flight: the virtual
	// clock stands still until advance, so none of it can finish first.
	for _, shards := range []int{3, 1} {
		for range 4 {
			submit(nil)
			check("routed submit")
		}
		if _, err := srv.Reshard(&model.Platform{Machines: uniformFleet(4), Shards: shards}); err != nil {
			t.Fatal(err)
		}
		check("reshard")
		advance("run after reshard", 6)
	}
	// Retention: a jump far past every completion compacts the history.
	vc.Advance(big.NewRat(100, 1))
	submit(nil)
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.CompactedJobs > 0 })
	check("retention")
	advance("run after retention", 4)
	// Close drains what is still queued. A job whose hosts are cleared before
	// the loop sees it latches the one active shard, and it and the jobs
	// routed there after it stay queued until the drain.
	job, err := randomJob().Job()
	if err != nil {
		t.Fatal(err)
	}
	sh := srv.active()[0]
	sh.mu.Lock()
	job.Release = sh.clock.Now()
	r := &recSubmit{Shard: sh.idx, Local: sh.records.next(), Job: job}
	r.GID = sh.globalID(r.Local)
	if err := sh.run(r); err != nil {
		t.Fatal(err)
	}
	sh.records.get(r.Local).hosts = nil
	sh.mu.Unlock()
	sh.poke()
	waitStats(t, srv, func(st model.StatsResponse) bool { return st.LastError != "" })
	check("latched")
	submit(nil)
	submit(nil)
	check("queued behind the latch")
	sh.mu.Lock()
	queued := len(sh.pending)
	sh.mu.Unlock()
	srv.Close()
	check("close")
	close(stop)
	router.Wait()

	for i, h := range kept {
		if !reflect.DeepEqual(h.held, h.copied) {
			t.Fatalf("held reply %d changed after it was read: %+v, read as %+v", i, h.held, h.copied)
		}
	}
	if st := srv.Stats(); st.Migrations == 0 || st.ReshardedJobs == 0 || st.CompactedJobs == 0 || queued < 3 {
		t.Errorf("scenario missed a path: %d stolen, %d resharded, %d compacted, %d drained at close",
			st.Migrations, st.ReshardedJobs, st.CompactedJobs, queued)
	}
}

// checkRouteKey compares a shard's published routing key with the sums
// recomputed from its records, under the mu every writer of the key holds.
func checkRouteKey(t *testing.T, step string, sh *shard) {
	t.Helper()
	sh.mu.Lock()
	defer sh.mu.Unlock()
	var backlog exact.Q
	tenants := map[string]exact.Q{}
	for _, rec := range sh.records.recs {
		if rec == nil || (rec.State != StateQueued && rec.State != StateScheduled) {
			continue
		}
		backlog = backlog.Add(rec.Size)
		if rec.Tenant != "" {
			tenants[rec.Tenant] = tenants[rec.Tenant].Add(rec.Size)
		}
	}
	ri := sh.route.Load()
	if sh.lastErr == nil && ri.Err != "" || sh.lastErr != nil && ri.Err != sh.lastErr.Error() {
		t.Errorf("%s: shard %d publishes error %q, latched %v", step, sh.idx, ri.Err, sh.lastErr)
	}
	if ri.Backlog.Cmp(backlog) != 0 {
		t.Errorf("%s: shard %d publishes backlog %s, its records sum to %s", step, sh.idx, ri.Backlog, backlog)
	}
	if len(ri.TenantBacklog) != len(tenants) {
		t.Errorf("%s: shard %d publishes tenant backlog %v, its records sum to %v", step, sh.idx, ri.TenantBacklog, tenants)
	}
	for tenant, want := range tenants {
		if got, ok := ri.TenantBacklog[tenant]; !ok || got.Cmp(want) != 0 {
			t.Errorf("%s: shard %d publishes tenant %q backlog %s, its records sum to %s", step, sh.idx, tenant, got, want)
		}
	}
}
