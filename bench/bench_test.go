package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"os"
	"reflect"
	"strings"
	"testing"

	"divflow/internal/schedule"
)

// smokeEnv runs every workload at a twentieth of its pass size (the
// real-clock one at half, about a second a pass).
func smokeEnv(t *testing.T, w *workload) *runEnv {
	t.Helper()
	env := &runEnv{scale: 0.05, out: t.TempDir()}
	if w.name == "http-open" {
		env.scale = 0.5
	}
	env.scratch = env.out
	return env
}

// checkReport asserts that printing the report names every declared metric
// exactly once, with a finite value, and ends with the contract's result
// object carrying the same names.
func checkReport(t *testing.T, rep *report, defs []metricDef, nonZero bool) {
	t.Helper()
	var buf bytes.Buffer
	rep.print(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	for _, d := range defs {
		n := 0
		for _, line := range lines[:len(lines)-1] {
			if f := strings.Fields(line); len(f) > 2 && f[0] == rep.workload && f[1] == d.Name {
				n++
			}
		}
		if n != 1 {
			t.Errorf("%s: metric %s printed %d times", rep.workload, d.Name, n)
		}
	}
	var out struct {
		Correct   bool `json:"correct"`
		Attempted int  `json:"attempted"`
		Failed    int  `json:"failed"`
		Metrics   map[string]struct {
			Value float64 `json:"value"`
			Unit  string  `json:"unit"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &out); err != nil {
		t.Fatalf("%s: last line is not the result object: %v", rep.workload, err)
	}
	if !out.Correct || out.Failed != 0 || out.Attempted < 1 || len(out.Metrics) != len(defs) {
		t.Errorf("%s: result correct=%v attempted=%d failed=%d with %d metrics, want %d",
			rep.workload, out.Correct, out.Attempted, out.Failed, len(out.Metrics), len(defs))
	}
	for _, d := range defs {
		m, ok := out.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (nonZero && m.Value <= 0) {
			t.Errorf("%s: metric %s = %+v (present %v)", rep.workload, d.Name, m, ok)
		}
	}
}

func TestWorkloadsSmoke(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			env := smokeEnv(t, w)
			rep, err := runWorkload(w, 7, 2, env, false)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, rep, endToEnd, true)
			traced, err := runWorkload(w, 7, 2, env, true)
			if err != nil {
				t.Fatal(err)
			}
			checkReport(t, traced, perLayer, false)
			if _, err := os.Stat(env.out + "/trace-" + w.name + ".json"); err != nil {
				t.Errorf("traced run left no span file: %v", err)
			}
			if files, _ := os.ReadDir(env.out); len(files) != 1 {
				t.Errorf("run left %d entries in its scratch directory, want only the trace", len(files))
			}
		})
	}
}

// TestTamperedResultFails checks that every workload's verification runs
// and has teeth: with the result corrupted before it is verified, the run
// must fail.
func TestTamperedResultFails(t *testing.T) {
	tamperPieces = true
	defer func() { tamperPieces = false }()
	for _, w := range workloads {
		if _, err := runWorkload(w, 7, 1, smokeEnv(t, w), false); err == nil || !strings.Contains(err.Error(), "verification") {
			t.Errorf("%s: tampered run returned %v, want a verification error", w.name, err)
		}
	}
}

func TestVerifyExecution(t *testing.T) {
	fleet := bankedFleet()
	rat := func(a, b int64) *big.Rat { return big.NewRat(a, b) }
	// Job 5 (size 6, bank0) gets 1/3 on m0 (speed 4), 1/2 on m1 (speed 3)
	// beside it, and its last 1/6 in a second stint on m0.
	jobs := map[int]jobFacts{5: {size: rat(6, 1), weight: rat(1, 1), databanks: []string{"bank0"}}}
	good := func() []schedule.Piece {
		return []schedule.Piece{
			{Machine: 0, Job: 5, Start: rat(0, 1), End: rat(1, 2)},
			{Machine: 1, Job: 5, Start: rat(0, 1), End: rat(1, 1)},
			{Machine: 0, Job: 5, Start: rat(1, 2), End: rat(3, 4)},
		}
	}
	if err := verifyExecution(good(), jobs, fleet); err != nil {
		t.Fatalf("valid execution rejected: %v", err)
	}
	for name, corrupt := range map[string]func([]schedule.Piece) []schedule.Piece{
		"shortened piece": func(p []schedule.Piece) []schedule.Piece { p[2].End = rat(5, 8); return p },
		"dropped piece":   func(p []schedule.Piece) []schedule.Piece { return p[:2] },
		"overlap":         func(p []schedule.Piece) []schedule.Piece { p[2].Start, p[2].End = rat(1, 4), rat(1, 2); return p },
		"wrong machine":   func(p []schedule.Piece) []schedule.Piece { p[1].Machine = 3; return p },
		"unknown job":     func(p []schedule.Piece) []schedule.Piece { p[0].Job = 6; return p },
	} {
		if err := verifyExecution(corrupt(good()), jobs, fleet); err == nil {
			t.Errorf("%s: corrupted execution accepted", name)
		}
	}
}

// TestBenchmarkJSON holds BENCHMARK.json and the harness together: same
// workloads, same metrics, same units, directions and bounds.
func TestBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if doc.RunSeconds != refSeconds {
		t.Errorf("run_seconds %d, the harness is sized for %d", doc.RunSeconds, refSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why || len(w.why) > 200 {
			t.Errorf("workload %d: declared %+v, implemented %s: %s", i, doc.Workloads[i], w.name, w.why)
		}
	}
	if !reflect.DeepEqual(doc.EndToEnd, endToEnd) {
		t.Errorf("end_to_end differs:\n%+v\n%+v", doc.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(doc.PerLayer, perLayer) {
		t.Errorf("per_layer differs:\n%+v\n%+v", doc.PerLayer, perLayer)
	}
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if seen[d.Name] || len(d.Name) > 64 || len(d.Unit) > 16 || (d.Better != "lower" && d.Better != "higher") || d.Bound > 0.25 {
			t.Errorf("bad or duplicate metric declaration %+v", d)
		}
		seen[d.Name] = true
	}
}
