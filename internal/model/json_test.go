package model

import (
	"encoding/json"
	"math/big"
	"os"
	"reflect"
	"strings"
	"testing"
)

func mustRat(t *testing.T, s string) *big.Rat {
	t.Helper()
	v, ok := new(big.Rat).SetString(s)
	if !ok {
		t.Fatalf("bad rational %q", s)
	}
	return v
}

// sameRat is exact equality with nil distinct from zero (reflect.DeepEqual
// would compare big.Rat's internal limbs, which differ between equal values).
func sameRat(a, b *big.Rat) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	return a.Cmp(b) == 0
}

func sameJob(a, b Job) bool {
	return a.Name == b.Name && sameRat(a.Release, b.Release) && sameRat(a.Weight, b.Weight) &&
		sameRat(a.Size, b.Size) && sameRat(a.Deadline, b.Deadline) &&
		reflect.DeepEqual(a.Databanks, b.Databanks) && a.Tenant == b.Tenant && a.SLAClass == b.SLAClass
}

func sameMachine(a, b Machine) bool {
	return a.Name == b.Name && sameRat(a.InverseSpeed, b.InverseSpeed) && reflect.DeepEqual(a.Databanks, b.Databanks)
}

func sameInstance(t *testing.T, what string, got, want *Instance) {
	t.Helper()
	if got.N() != want.N() || got.M() != want.M() {
		t.Fatalf("%s: %dx%d, want %dx%d", what, got.N(), got.M(), want.N(), want.M())
	}
	for j := range want.Jobs {
		if !sameJob(got.Jobs[j], want.Jobs[j]) {
			t.Errorf("%s: job %d = %+v, want %+v", what, j, got.Jobs[j], want.Jobs[j])
		}
	}
	for i := range want.Machines {
		if !sameMachine(got.Machines[i], want.Machines[i]) {
			t.Errorf("%s: machine %d = %+v, want %+v", what, i, got.Machines[i], want.Machines[i])
		}
		for j := range want.Jobs {
			a, aok := got.Cost(i, j)
			b, bok := want.Cost(i, j)
			if aok != bok || (aok && a.Cmp(b) != 0) {
				t.Errorf("%s: cost[%d][%d] = %v,%v, want %v,%v", what, i, j, a, aok, b, bok)
			}
		}
	}
}

// TestJobMachineJSON pins the one written form of a job and a machine: exact
// "p/q" strings under the keys every document, log and snapshot uses, nil
// distinct from zero, and no width limit (the 256-bit bound belongs to the
// request parser, not to the stored form).
func TestJobMachineJSON(t *testing.T) {
	// (2^128+1)/(2^128-1): both halves need a 129th bit.
	const wide = "340282366920938463463374607431768211457/340282366920938463463374607431768211455"
	for name, tc := range map[string]struct {
		job     Job
		machine Machine
		jobDoc  string
		machDoc string
	}{
		"full": {
			Job{Name: "blast", Release: r(7, 2), Weight: r(18, 17), Size: r(12, 1), Databanks: []string{"swissprot", "pdb"},
				Deadline: r(40, 1), Tenant: "acme", SLAClass: "premium"},
			Machine{Name: "capricorne", InverseSpeed: r(1, 2), Databanks: []string{"swissprot"}},
			`{"name":"blast","release":"7/2","weight":"18/17","size":"12","databanks":["swissprot","pdb"],"deadline":"40","tenant":"acme","slaClass":"premium"}`,
			`{"name":"capricorne","inverseSpeed":"1/2","databanks":["swissprot"]}`,
		},
		"nil": {
			Job{}, Machine{},
			`{"release":null,"weight":null}`, `{"name":""}`,
		},
		"zero": {
			Job{Release: new(big.Rat), Weight: new(big.Rat), Size: new(big.Rat), Deadline: new(big.Rat)},
			Machine{Name: "m", InverseSpeed: new(big.Rat)},
			`{"release":"0","weight":"0","size":"0","deadline":"0"}`, `{"name":"m","inverseSpeed":"0"}`,
		},
		"wide": {
			Job{Release: mustRat(t, wide), Weight: mustRat(t, wide), Size: mustRat(t, wide), Deadline: mustRat(t, wide)},
			Machine{Name: "m", InverseSpeed: mustRat(t, wide)},
			`{"release":"` + wide + `","weight":"` + wide + `","size":"` + wide + `","deadline":"` + wide + `"}`,
			`{"name":"m","inverseSpeed":"` + wide + `"}`,
		},
	} {
		t.Run(name, func(t *testing.T) {
			data, err := json.Marshal(tc.job)
			if err != nil || string(data) != tc.jobDoc {
				t.Fatalf("job encodes as %s (%v), want %s", data, err, tc.jobDoc)
			}
			var job Job
			if err := json.Unmarshal(data, &job); err != nil || !sameJob(job, tc.job) {
				t.Errorf("job decodes as %+v (%v), want %+v", job, err, tc.job)
			}
			data, err = json.Marshal(tc.machine)
			if err != nil || string(data) != tc.machDoc {
				t.Fatalf("machine encodes as %s (%v), want %s", data, err, tc.machDoc)
			}
			var mach Machine
			if err := json.Unmarshal(data, &mach); err != nil || !sameMachine(mach, tc.machine) {
				t.Errorf("machine decodes as %+v (%v), want %+v", mach, err, tc.machine)
			}

			// Clone shares nothing: scribbling on the copy leaves the original.
			cj, cm := tc.job.Clone(), tc.machine.Clone()
			if !sameJob(cj, tc.job) || !sameMachine(cm, tc.machine) {
				t.Fatalf("clones differ: %+v, %+v", cj, cm)
			}
			for _, v := range []*big.Rat{cj.Release, cj.Weight, cj.Size, cj.Deadline, cm.InverseSpeed} {
				if v != nil {
					v.SetInt64(-1)
				}
			}
			if len(cj.Databanks) > 0 {
				cj.Databanks[0], cm.Databanks[0] = "scribbled", "scribbled"
			}
			after, _ := json.Marshal(tc.job)
			afterM, _ := json.Marshal(tc.machine)
			if string(after) != tc.jobDoc || string(afterM) != tc.machDoc {
				t.Errorf("writing through a clone reached the original: %s, %s", after, afterM)
			}
		})
	}
}

// TestRepoDocumentsDecode reads the two documents the repository ships
// (the GriPPS instance and the daemon's platform) and requires the values the
// string-typed decoder produced before Job and Machine wrote themselves, then
// the same values again after a re-encode.
func TestRepoDocumentsDecode(t *testing.T) {
	w := r(18, 17)
	want, err := NewInstance([]Job{
		{Name: "blast-vs-swissprot", Release: r(0, 1), Weight: w, Size: r(12, 1), Databanks: []string{"swissprot"}},
		{Name: "ssearch-vs-swissprot", Release: r(2, 1), Weight: w, Size: r(6, 1), Databanks: []string{"swissprot"}},
		{Name: "pattern-vs-swissprot", Release: r(3, 1), Weight: w, Size: r(8, 1), Databanks: []string{"swissprot"}},
	}, []Machine{
		{Name: "capricorne", InverseSpeed: r(1, 2), Databanks: []string{"swissprot", "pdb"}},
		{Name: "sekhmet", InverseSpeed: r(1, 1), Databanks: []string{"swissprot", "pir"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile("../../testdata/gripps3x2.json")
	if err != nil {
		t.Fatal(err)
	}
	var inst, back Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		t.Fatal(err)
	}
	sameInstance(t, "gripps3x2.json", &inst, want)
	if data, err = json.Marshal(&inst); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("re-decoding %s: %v", data, err)
	}
	sameInstance(t, "gripps3x2.json re-encoded", &back, want)

	wantFleet := []Machine{
		{Name: "capricorne", InverseSpeed: r(1, 2), Databanks: []string{"swissprot", "pdb", "prosite"}},
		{Name: "sekhmet", InverseSpeed: r(1, 1), Databanks: []string{"swissprot", "pir"}},
		{Name: "pixies", InverseSpeed: r(1, 3), Databanks: []string{"pir", "prosite"}},
	}
	if data, err = os.ReadFile("../../testdata/platform.json"); err != nil {
		t.Fatal(err)
	}
	for _, what := range []string{"platform.json", "platform.json re-encoded"} {
		p, err := ParsePlatformConfig(data)
		if err != nil {
			t.Fatal(err)
		}
		if p.Shards != 0 || len(p.Machines) != len(wantFleet) {
			t.Fatalf("%s: %d machines over %d shards", what, len(p.Machines), p.Shards)
		}
		for i := range wantFleet {
			if !sameMachine(p.Machines[i], wantFleet[i]) {
				t.Errorf("%s: machine %d = %+v, want %+v", what, i, p.Machines[i], wantFleet[i])
			}
		}
		if data, err = json.Marshal(map[string]any{"machines": p.Machines}); err != nil {
			t.Fatal(err)
		}
	}
}

// incompleteInstanceDocs leave out (or leave empty, or null) a field the
// uniform model cannot do without. Each must come back as an error — from the
// rational parser or from the constructors — and never reach NewInstance's
// sort with a nil release. FuzzInstanceJSON seeds its corpus with them.
var incompleteInstanceDocs = map[string]string{
	"release missing":      `{"jobs":[{"name":"a","weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"release empty":        `{"jobs":[{"name":"a","release":"","weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"release null":         `{"jobs":[{"name":"a","release":null,"weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"second release gone":  `{"jobs":[{"name":"a","release":"0","weight":"1","size":"6"},{"name":"b","weight":"1","size":"1"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"release missing+cost": `{"jobs":[{"name":"a","weight":"1"}],"machines":[{"name":"m"}],"cost":[["1"]]}`,
	"weight missing":       `{"jobs":[{"name":"a","release":"0","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"weight empty":         `{"jobs":[{"name":"a","release":"0","weight":"","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"weight missing+cost":  `{"jobs":[{"name":"a","release":"0"}],"machines":[{"name":"m"}],"cost":[["1"]]}`,
	"size missing":         `{"jobs":[{"name":"a","release":"0","weight":"1"}],"machines":[{"name":"m","inverseSpeed":"1"}]}`,
	"speed missing":        `{"jobs":[{"name":"a","release":"0","weight":"1","size":"6"}],"machines":[{"name":"m"}]}`,
	"speed empty":          `{"jobs":[{"name":"a","release":"0","weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":""}]}`,
	"speed null":           `{"jobs":[{"name":"a","release":"0","weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":null}]}`,
}

func TestJSONIncompleteDocumentsAreErrors(t *testing.T) {
	for what, doc := range incompleteInstanceDocs {
		var inst Instance
		err := json.Unmarshal([]byte(doc), &inst)
		if err == nil {
			t.Errorf("%s: decoded %s without an error", what, doc)
		} else if !strings.Contains(err.Error(), "model: ") && !strings.Contains(err.Error(), "Rat") {
			t.Errorf("%s: error %q names neither the model nor the rational", what, err)
		}
	}
	// The platform parser shares the Machine decoder and keeps its own checks.
	for what, doc := range map[string]string{
		"speed missing": `{"machines":[{"name":"m"}]}`,
		"speed empty":   `{"machines":[{"name":"m","inverseSpeed":""}]}`,
		"speed null":    `{"machines":[{"name":"m","inverseSpeed":null}]}`,
	} {
		if _, err := ParsePlatformConfig([]byte(doc)); err == nil {
			t.Errorf("platform, %s: expected an error", what)
		}
	}
}
