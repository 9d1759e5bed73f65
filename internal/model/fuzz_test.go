package model

import (
	"encoding/json"
	"testing"
)

// FuzzInstanceJSON checks that arbitrary input never panics the decoder and
// that everything it accepts re-encodes losslessly.
func FuzzInstanceJSON(f *testing.F) {
	valid, err := json.Marshal(mustTwoByTwo())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(string(valid))
	f.Add(`{"jobs":[{"name":"a","release":"0","weight":"1","size":"6"}],"machines":[{"name":"m","inverseSpeed":"1/3"}]}`)
	f.Add(`{"jobs":[],"machines":[]}`)
	f.Add(`{"jobs":[{"release":"1/0"}]}`)
	f.Add(`not json`)
	f.Add(`{"jobs":[{"name":"a","release":"-5","weight":"1"}],"machines":[{"name":"m"}],"cost":[["1"]]}`)
	for _, doc := range incompleteInstanceDocs {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		var inst Instance
		if err := json.Unmarshal([]byte(doc), &inst); err != nil {
			return
		}
		// Accepted documents must be valid instances (UnmarshalJSON
		// validates) and must round-trip exactly.
		if err := inst.Validate(); err != nil {
			t.Fatalf("decoder accepted an invalid instance: %v\ninput: %s", err, doc)
		}
		out, err := json.Marshal(&inst)
		if err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		var back Instance
		if err := json.Unmarshal(out, &back); err != nil {
			t.Fatalf("re-decode failed: %v\nencoded: %s", err, out)
		}
		if back.N() != inst.N() || back.M() != inst.M() {
			t.Fatal("round-trip changed dimensions")
		}
		for i := 0; i < inst.M(); i++ {
			for j := 0; j < inst.N(); j++ {
				a, aok := inst.Cost(i, j)
				b, bok := back.Cost(i, j)
				if aok != bok || (aok && a.Cmp(b) != 0) {
					t.Fatal("round-trip changed costs")
				}
			}
		}
	})
}

func mustTwoByTwo() *Instance {
	jobs := []Job{
		{Name: "J0", Release: r(0, 1), Weight: r(1, 1), Size: r(10, 1), Databanks: []string{"pdb"}},
		{Name: "J1", Release: r(2, 1), Weight: r(2, 1), Size: r(4, 1)},
	}
	machines := []Machine{
		{Name: "fast", InverseSpeed: r(1, 2), Databanks: []string{"pdb"}},
		{Name: "slow", InverseSpeed: r(2, 1)},
	}
	inst, err := NewInstance(jobs, machines)
	if err != nil {
		panic(err)
	}
	return inst
}
