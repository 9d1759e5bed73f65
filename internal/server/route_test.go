package server

import (
	"slices"
	"strings"
	"testing"

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
				sh:             &shard{idx: i, machines: []model.Machine{{Name: "m", Databanks: []string{f[0]}}}},
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
