package core

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/big"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"divflow/internal/model"
	"divflow/internal/schedule"
	"divflow/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/offline.golden")

// goldenPath holds one row per offline solver call of offlineGoldenRows.
var goldenPath = filepath.Join("testdata", "offline.golden")

// scheduleDigest is the sha256 of a schedule's pieces as exact strings, one
// "machine job start end fraction" line each, in the order the solver wrote
// them; "-" for no schedule.
func scheduleDigest(s *schedule.Schedule) string {
	if s == nil {
		return "-"
	}
	h := sha256.New()
	for _, p := range s.Pieces {
		fmt.Fprintf(h, "%d %d %s %s %s\n", p.Machine, p.Job, p.Start.RatString(), p.End.RatString(), p.Fraction.RatString())
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// goldenInstance is one workload instance of the offline goldens.
type goldenInstance struct {
	label string
	inst  *model.Instance
}

// goldenInstances lists the instances: shapes 6×3, 10×3 and 14×4, related
// and unrelated costs, two seeds each, the second with stretch weights (so
// that the deadline forms are not all parallel).
func goldenInstances() []goldenInstance {
	var out []goldenInstance
	for _, shape := range [][2]int{{6, 3}, {10, 3}, {14, 4}} {
		for _, unrelated := range []bool{false, true} {
			for seed := int64(1); seed <= 2; seed++ {
				cfg := workload.Default()
				cfg.Jobs, cfg.Machines = shape[0], shape[1]
				cfg.Unrelated = unrelated
				cfg.Seed = seed
				inst := workload.MustGenerate(cfg)
				kind := "related"
				if unrelated {
					kind = "unrelated"
				}
				weights := "equal"
				if seed == 2 {
					inst.WeightsForStretch()
					weights = "stretch"
				}
				out = append(out, goldenInstance{fmt.Sprintf("%dx%d-%s-s%d-%s", shape[0], shape[1], kind, seed, weights), inst})
			}
		}
	}
	return out
}

// flowWindows returns r_j + scale·F/w_j for every job: at scale 1 the
// deadlines a schedule of max weighted flow F meets.
func flowWindows(inst *model.Instance, f, scale *big.Rat) []*big.Rat {
	out := make([]*big.Rat, inst.N())
	for j, job := range inst.Jobs {
		d := new(big.Rat).Quo(f, job.Weight)
		d.Mul(d, scale)
		out[j] = d.Add(d, job.Release)
	}
	return out
}

// offlineGoldenRows solves every golden instance with every offline entry
// point and writes one row per call: the instance, the call, the exact
// objective or verdict, the search's counters where it has them, and the
// schedule's digest.
func offlineGoldenRows(t *testing.T) []string {
	t.Helper()
	var rows []string
	row := func(label, call, value string, s *schedule.Schedule) {
		rows = append(rows, fmt.Sprintf("%s %s %s %s", label, call, value, scheduleDigest(s)))
	}
	flowRow := func(label, call string, res *Result) {
		row(label, call, fmt.Sprintf("%s probes=%d solves=%d milestones=%d",
			res.Objective.RatString(), res.Probes, res.LPSolves, res.NumMilestones), res.Schedule)
	}
	for _, g := range goldenInstances() {
		inst := g.inst
		mwf, err := MinMaxWeightedFlow(inst)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		flowRow(g.label, "mwf", mwf)
		if inst.N() <= 10 {
			pre, err := MinMaxWeightedFlowPreemptive(inst)
			if err != nil {
				t.Fatalf("%s: %v", g.label, err)
			}
			flowRow(g.label, "mwf-pre", pre)
		}
		mk, err := MinMakespan(inst)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		row(g.label, "makespan", mk.Makespan.RatString(), mk.Schedule)
		for _, scale := range []*big.Rat{r(1, 1), r(999, 1000)} {
			ok, s, err := DeadlineFeasible(inst, flowWindows(inst, mwf.Objective, scale), schedule.Divisible)
			if err != nil {
				t.Fatalf("%s: %v", g.label, err)
			}
			row(g.label, "deadlines@"+scale.RatString(), fmt.Sprint(ok), s)
		}
		held := flowWindows(inst, mwf.Objective, r(1, 1))
		best, err := BestDeadline(inst, held, inst.N()-1, schedule.Divisible)
		if err != nil {
			t.Fatalf("%s: %v", g.label, err)
		}
		value := "none"
		if best != nil {
			value = best.RatString()
		}
		row(g.label, "best-deadline", value, nil)
	}
	return rows
}

// TestOfflineGolden pins every offline entry point on seeded workload
// instances to testdata/offline.golden: the exact optimum or verdict, the
// milestone search's probes, exact solves and milestones, and the digest of
// the schedule — so a refactor of the search that changes any LP it solves,
// any vertex it returns or the path it takes there shows up as a row. Run
// `go test ./internal/core -run TestOfflineGolden -update` after an
// intentional change, and name the moved rows with their reason.
func TestOfflineGolden(t *testing.T) {
	got := strings.Join(offlineGoldenRows(t), "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	want := map[string]string{} // "instance call" -> the row
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) < 2 {
			t.Fatalf("malformed golden row %q", line)
		}
		want[f[0]+" "+f[1]] = line
	}
	for _, line := range strings.Split(strings.TrimSuffix(got, "\n"), "\n") {
		f := strings.Fields(line)
		key := f[0] + " " + f[1]
		w, ok := want[key]
		switch {
		case !ok:
			t.Errorf("missing golden row for %s: %s (run with -update)", key, line)
		case w != line:
			t.Errorf("%s moved:\n got: %s\nwant: %s", key, line, w)
		}
		delete(want, key)
	}
	for key := range want {
		t.Errorf("stale golden row %s: no call computes it", key)
	}
	if !bytes.Equal([]byte(got), data) && !t.Failed() {
		t.Errorf("%s is out of order (run with -update)", goldenPath)
	}
}
