package divflow

import (
	"os/exec"
	"testing"
)

// TestBenchModuleVets compiles and vets the benchmark harness against this
// checkout. bench/ is a module of its own (divflow/bench, replace divflow =>
// ../) that imports divflow/internal/..., so `go build ./... && go test ./...`
// here never sees it: without this test a change to a package the harness
// calls could break the benchmark and leave tier-1 green.
func TestBenchModuleVets(t *testing.T) {
	if testing.Short() {
		t.Skip("runs go vet over the bench module")
	}
	if out, err := exec.Command("go", "vet", "-C", "bench", "./...").CombinedOutput(); err != nil {
		t.Fatalf("go vet -C bench ./...: %v\n%s", err, out)
	}
}
