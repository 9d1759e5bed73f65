package analysis_test

import (
	"bytes"
	"encoding/gob"
	"path/filepath"
	"reflect"
	"testing"

	"divflow/internal/analysis"
	"divflow/internal/analysis/analysistest"
)

func testdata(t *testing.T) string {
	t.Helper()
	p, err := filepath.Abs("testdata")
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func analyzers(t *testing.T, names string) []*analysis.Analyzer {
	t.Helper()
	as, err := analysis.ByName(names)
	if err != nil {
		t.Fatal(err)
	}
	return as
}

func TestWallclock(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "wallclock"), "divflow/internal/wc")
}

func TestRatAlias(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "ratalias"), "divflow/internal/sim")
}

func TestFloatExact(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "floatexact"), "divflow/internal/core")
}

// TestLockCheckers exercises lockorder and emitmu together over a two-package
// fixture: the annotated journal mutex lives in the fixture obs package, so
// the Flush case only fires if Append's acquire-set propagates across the
// package boundary as a fact.
func TestLockCheckers(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "lockorder,emitmu"),
		"divflow/internal/obs", "divflow/internal/server")
}

// TestFuncLocksGob pins the serializability the vettool depends on: lock
// facts must survive the gob round-trip through vetx files with plain string
// keys.
func TestFuncLocksGob(t *testing.T) {
	in := map[string]*analysis.FuncLocks{
		"divflow/internal/obs.Journal.Append": {
			Acquires:  map[string]bool{"journal": true},
			Ascending: map[string]bool{},
		},
		"divflow/internal/server.shard.catchUp": {
			Acquires:  map[string]bool{"journal": true},
			Requires:  []string{"shard"},
			Ascending: map[string]bool{"shard": true},
		},
		"divflow/internal/server.shardRPC.Submit": {
			Acquires:       map[string]bool{"shard": true},
			Ascending:      map[string]bool{},
			Boundary:       "shardlink",
			AscendingReach: map[string]bool{},
		},
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(in); err != nil {
		t.Fatal(err)
	}
	out := make(map[string]*analysis.FuncLocks)
	if err := gob.NewDecoder(&buf).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("gob round-trip mismatch:\n in: %#v\nout: %#v", in, out)
	}
}
