package analysis_test

import (
	"path/filepath"
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

func TestFloatExact(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "floatexact"), "divflow/internal/exact", "divflow/internal/core")
}

// TestLockCheckers exercises lockorder and emitmu together over a two-package
// fixture: the annotated journal mutex lives in the fixture obs package, so
// the Flush case only fires if Append's acquire-set propagates across the
// package boundary as a fact.
func TestLockCheckers(t *testing.T) {
	analysistest.Run(t, testdata(t), analyzers(t, "lockorder,emitmu"),
		"divflow/internal/obs", "divflow/internal/server")
}
