package model

import (
	"strings"
	"testing"
)

func TestSubmitRequestJob(t *testing.T) {
	req := SubmitRequest{Name: "blast", Size: "40", Databanks: []string{"swissprot"}}
	job, err := req.Job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Weight.Cmp(r(1, 1)) != 0 {
		t.Errorf("default weight = %v, want 1", job.Weight)
	}
	if job.Size.Cmp(r(40, 1)) != 0 || job.Name != "blast" {
		t.Errorf("job = %+v", job)
	}
	req.Weight = "3/2"
	job, err = req.Job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Weight.Cmp(r(3, 2)) != 0 {
		t.Errorf("weight = %v, want 3/2", job.Weight)
	}

	bad := []SubmitRequest{
		{},                              // no size
		{Size: "0"},                     // zero size
		{Size: "-2"},                    // negative size
		{Size: "x"},                     // malformed size
		{Size: "1", Weight: "0"},        // zero weight
		{Size: "1", Weight: "nonsense"}, // malformed weight
		{Size: "1e100000"},              // rational magnitude bomb
		{Size: "1", Weight: "1/1e999"},  // denominator bomb
	}
	for _, req := range bad {
		if _, err := req.Job(); err == nil {
			t.Errorf("Job(%+v) should error", req)
		}
	}
}

func TestParsePlatform(t *testing.T) {
	doc := `{"machines":[
	  {"name":"cluster-a","inverseSpeed":"1/2","databanks":["swissprot","pdb"]},
	  {"name":"cluster-b","inverseSpeed":"1"}
	]}`
	plat, err := ParsePlatformConfig([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	machines := plat.Machines
	if len(machines) != 2 {
		t.Fatalf("got %d machines", len(machines))
	}
	if machines[0].InverseSpeed.Cmp(r(1, 2)) != 0 || !machines[0].Hosts([]string{"pdb"}) {
		t.Errorf("machine 0 = %+v", machines[0])
	}

	bad := map[string]string{
		"no machines":  `{"machines":[]}`,
		"no speed":     `{"machines":[{"name":"m"}]}`,
		"zero speed":   `{"machines":[{"name":"m","inverseSpeed":"0"}]}`,
		"bad rational": `{"machines":[{"name":"m","inverseSpeed":"fast"}]}`,
		// 1e100 needs 333 bits: past the bound submissions get.
		"oversized speed": `{"machines":[{"name":"m","inverseSpeed":"1e100"}]}`,
		"malformed doc":   `{`,
	}
	for what, doc := range bad {
		if _, err := ParsePlatformConfig([]byte(doc)); err == nil {
			t.Errorf("%s: expected error", what)
		}
	}
}

func TestSubmitRequestRoundTripsThroughJSON(t *testing.T) {
	// The wire format keeps rationals as strings; a weight like 10/3 must
	// survive exactly.
	req := SubmitRequest{Size: "100/7", Weight: "10/3"}
	job, err := req.Job()
	if err != nil {
		t.Fatal(err)
	}
	if job.Size.RatString() != "100/7" || job.Weight.RatString() != "10/3" {
		t.Errorf("lost exactness: size %s weight %s", job.Size.RatString(), job.Weight.RatString())
	}
	if !strings.Contains(job.Size.RatString(), "/") {
		t.Error("expected a non-integer rational")
	}
}
