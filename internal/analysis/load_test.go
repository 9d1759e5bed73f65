package analysis

import (
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// repoRoot walks up from this file to the module root.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("no caller info")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func TestLoadModule(t *testing.T) {
	prog, err := Load(repoRoot(t), "divflow/internal/server")
	if err != nil {
		t.Fatal(err)
	}
	var server *Package
	for _, pkg := range prog.Pkgs {
		if pkg.Path == "divflow/internal/server" {
			server = pkg
		}
	}
	if server == nil {
		t.Fatal("server package not loaded")
	}
	if !server.Analyze {
		t.Error("server package should be marked Analyze")
	}
	// Dependencies load from source and share identity with the importer's
	// view, so cross-package symbol facts can key off types.Object.
	var obsLoaded bool
	for _, pkg := range prog.Pkgs {
		if pkg.Path == "divflow/internal/obs" {
			obsLoaded = true
			if pkg.Analyze {
				t.Error("obs loaded as dependency should not be marked Analyze")
			}
			if got, _ := prog.Import("divflow/internal/obs"); got != pkg.Types {
				t.Error("importer does not share source-checked package identity")
			}
		}
	}
	if !obsLoaded {
		t.Error("in-module dependency obs not source-loaded")
	}
	// Stdlib resolves through export data with no network.
	big, err := prog.Import("math/big")
	if err != nil {
		t.Fatalf("import math/big: %v", err)
	}
	if big.Scope().Lookup("Rat") == nil {
		t.Error("math/big export data missing Rat")
	}
	// The nested bench/ module loads from its own root the same way: its
	// package is the one analyzed, and the server it drives comes along from
	// source — what lets one driver reach both modules.
	nested, err := Load(filepath.Join(repoRoot(t), "bench"), "./...")
	if err != nil {
		t.Fatal(err)
	}
	analyzed := make(map[string]bool)
	for _, pkg := range nested.Pkgs {
		analyzed[pkg.Path] = pkg.Analyze
	}
	if !analyzed["divflow/bench"] {
		t.Errorf("bench/ loaded %v, want divflow/bench marked Analyze", analyzed)
	}
	if dep, ok := analyzed["divflow/internal/server"]; !ok || dep {
		t.Errorf("bench/ loaded %v, want divflow/internal/server source-loaded as a dependency", analyzed)
	}
}

// TestLockOrderIsOnePage pins the daemon's lock order to what README's table
// prints: the classes internal/server declares or names form exactly this
// chain, each ordered before the next and never the reverse, and one function
// in the whole module is blessed to hold two instances of a class.
func TestLockOrderIsOnePage(t *testing.T) {
	prog, err := Load(repoRoot(t), "./...")
	if err != nil {
		t.Fatal(err)
	}
	world := NewWorld()
	for _, pkg := range prog.Pkgs {
		CollectLocks(prog, pkg, world)
	}
	chain := []string{"reshard", "collect", "shard", "topo", "dmu", "journal"}
	classes := make(map[string]bool)
	for field, class := range world.FieldClass {
		if strings.HasPrefix(field, "divflow/internal/server.") {
			classes[class] = true
			for next := range world.Before[class] {
				classes[next] = true
			}
		}
	}
	want := append([]string(nil), chain...)
	sort.Strings(want)
	if got := sortedKeys(classes); !reflect.DeepEqual(got, want) {
		t.Errorf("lock classes of internal/server = %v, want exactly %v", got, want)
	}
	for i := 0; i+1 < len(chain); i++ {
		if a, b := chain[i], chain[i+1]; !world.orderedBefore(a, b) || world.orderedBefore(b, a) {
			t.Errorf("declared order does not put %s strictly before %s", a, b)
		}
	}
	var blessed []string
	for key, fl := range world.Funcs {
		if len(fl.Ascending) > 0 {
			blessed = append(blessed, key)
		}
	}
	if len(blessed) != 1 || blessed[0] != "divflow/internal/server.Server.cut" {
		t.Errorf("ascending= blesses %v, want Server.cut alone", blessed)
	}
}

// sortedKeys returns a map's keys in deterministic order, for stable
// diagnostics.
func sortedKeys(m map[string]bool) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
