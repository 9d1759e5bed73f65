package server

import (
	"flag"
	"fmt"
	"math/big"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"divflow/internal/model"
)

var updateGolden = flag.Bool("update", false, "rewrite the testdata/stream goldens")

// streamCell is one cell of the streaming goldens: a policy, a fleet split
// into shards with steal off, deadline-free or strict-deadline traffic, and
// the seed of the stream.
type streamCell struct {
	policy    string
	shards    int
	deadlines bool
	seed      int64
}

func (c streamCell) name() string {
	traffic := "free"
	if c.deadlines {
		traffic = "strict"
	}
	return fmt.Sprintf("%s-%dshard-%s-s%d", c.policy, c.shards, traffic, c.seed)
}

func (c streamCell) path() string {
	return filepath.Join("testdata", "stream", c.name()+".golden")
}

// streamCells lists every cell: online-mwf-lazy and online-mwf-preempt, one
// shard and two with steal off, deadline-free and strict traffic, seeds 1–3.
// Steal stays off: its census races the shard loops, so a cell with it on
// would not repeat.
func streamCells() []streamCell {
	var out []streamCell
	for _, policy := range []string{"online-mwf-lazy", "online-mwf-preempt"} {
		for _, shards := range []int{1, 2} {
			for _, deadlines := range []bool{false, true} {
				for seed := int64(1); seed <= 3; seed++ {
					out = append(out, streamCell{policy, shards, deadlines, seed})
				}
			}
		}
	}
	return out
}

// streamFleet is four machines of four speeds hosting one databank, so that
// either split keeps every job eligible on every machine of its shard.
func streamFleet() []model.Machine {
	speeds := []*big.Rat{rat(1, 2), rat(1, 1), rat(2, 3), rat(3, 2)}
	machines := make([]model.Machine, len(speeds))
	for i, s := range speeds {
		machines[i] = model.Machine{Name: fmt.Sprintf("s%d", i), InverseSpeed: s, Databanks: []string{"shared"}}
	}
	return machines
}

// streamJobs is the number of submissions of one stream.
const streamJobs = 14

// streamRows drives the cell's seeded stream through a started Server on a
// VirtualClock and returns its golden: one row per submission, in submission
// order — gid, shard, release, completion, flow, weighted flow, deadline and
// whether it was met, or "-" where a field has no value, a strict reject
// naming its counter-offer — then the exact makespan and max weighted flow.
// Every submission is admitted before the clock moves or the next one is
// made, so each is a batch of its own and the routing reads settled
// backlogs: the stream replays identically run after run.
func streamRows(t *testing.T, c streamCell) []string {
	t.Helper()
	rng := rand.New(rand.NewSource(c.seed))
	q := func(lo, hi int64) *big.Rat { return big.NewRat(lo+rng.Int63n(hi-lo+1), 1+rng.Int63n(3)) }
	cfg := Config{Machines: streamFleet(), Policy: c.policy, Clock: NewVirtualClock(), Shards: c.shards, DisableSteal: true}
	if c.deadlines {
		cfg.Admission = AdmissionStrict
	}
	vc := cfg.Clock.(*VirtualClock)
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	type submission struct {
		gid      int // -1: rejected
		release  *big.Rat
		deadline string
		reject   string
	}
	subs := make([]submission, 0, streamJobs)
	accepted := 0
	now := new(big.Rat)
	for n := 0; n < streamJobs; n++ {
		now = new(big.Rat).Add(now, big.NewRat(rng.Int63n(5), 2))
		vc.Advance(now)
		quiesce(t, srv, now)
		size, weight := q(1, 8), q(1, 3)
		req := &model.SubmitRequest{Size: size.RatString(), Weight: weight.RatString(), Databanks: []string{"shared"}}
		sub := submission{gid: -1, release: now, deadline: "-"}
		if c.deadlines {
			slack := new(big.Rat).Mul(size, big.NewRat(1+rng.Int63n(4), 2))
			sub.deadline = slack.Add(slack, now).RatString()
			req.Deadline = sub.deadline
		}
		resp, err := srv.Submit(req)
		switch {
		case err == nil:
			sub.gid = resp.ID
			accepted++
		case c.deadlines && resp.Admission != nil && !resp.Admission.Feasible:
			sub.reject = "rejected:" + resp.Admission.CounterOffer
		default:
			t.Fatalf("submission %d: %v", n, err)
		}
		subs = append(subs, sub)
		quiesce(t, srv, now)
	}
	// Run the accepted jobs to completion, one settled timer at a time.
	deadline := time.Now().Add(30 * time.Second)
	for srv.Stats().JobsCompleted < accepted {
		if time.Now().After(deadline) {
			t.Fatal("the stream did not complete in 30s")
		}
		if !vc.AdvanceToNextTimer() {
			time.Sleep(100 * time.Microsecond)
			continue
		}
		quiesce(t, srv, vc.Now())
	}

	rows := make([]string, 0, len(subs)+2)
	makespan := new(big.Rat)
	for _, sub := range subs {
		if sub.gid < 0 {
			rows = append(rows, fmt.Sprintf("- - %s - - - %s %s", sub.release.RatString(), sub.deadline, sub.reject))
			continue
		}
		st, ok := srv.jobStatus(sub.gid)
		if !ok || st.State != StateDone {
			t.Fatalf("job %d: status %+v, want done", sub.gid, st)
		}
		sh, _, _ := srv.locate(sub.gid)
		met := "-"
		if st.DeadlineMet != nil {
			met = fmt.Sprint(*st.DeadlineMet)
		}
		rows = append(rows, fmt.Sprintf("%d %d %s %s %s %s %s %s",
			sub.gid, sh.idx, st.Release, st.CompletedAt, st.Flow, st.WeightedFlow, sub.deadline, met))
		if c := ratOf(t, st.CompletedAt); c.Cmp(makespan) > 0 {
			makespan = c
		}
	}
	rows = append(rows, "makespan "+makespan.RatString(), "maxWeightedFlow "+srv.Stats().MaxWeightedFlow)
	return rows
}

func ratOf(t *testing.T, s string) *big.Rat {
	t.Helper()
	r, ok := new(big.Rat).SetString(s)
	if !ok {
		t.Fatalf("not a rational: %q", s)
	}
	return r
}

// TestStreamGolden pins what the daemon's online policies execute on seeded
// streams to testdata/stream: per cell, every submission's routing, release,
// completion, flows and deadline verdict, and the stream's makespan and max
// weighted flow, all exact. A change to the solvers, the policies, routing or
// admission that moves any schedule shows up as a moved row. Run
// `go test ./internal/server -run TestStreamGolden -update` after an
// intentional change, and name the moved cells with their reason.
func TestStreamGolden(t *testing.T) {
	for _, c := range streamCells() {
		t.Run(c.name(), func(t *testing.T) {
			t.Parallel()
			got := streamRows(t, c)
			if *updateGolden {
				if err := os.MkdirAll(filepath.Dir(c.path()), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(c.path(), []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			data, err := os.ReadFile(c.path())
			if err != nil {
				t.Fatalf("%v (run with -update to regenerate)", err)
			}
			want := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
			for k := 0; k < max(len(got), len(want)); k++ {
				switch {
				case k >= len(want):
					t.Errorf("row %d missing from the golden: %s (run with -update)", k, got[k])
				case k >= len(got):
					t.Errorf("stale golden row %d: %s", k, want[k])
				case got[k] != want[k]:
					t.Errorf("row %d moved:\n got: %s\nwant: %s", k, got[k], want[k])
				}
			}
		})
	}
}
