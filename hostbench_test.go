package graphbench_test

import (
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestHostbenchCompiles vets benchmarks/, the nested module
// BENCHMARK.json runs: `go build ./... && go test ./...` from the root
// never compiles it, so without this test an internal/ change that
// breaks an identifier hostbench uses passes tier-1 and fails only when
// the benchmark is next built.
func TestHostbenchCompiles(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles a second module")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go is not on PATH")
	}
	// Stat what vet is about to read: go test caches a result until a
	// file the test process itself consulted changes, and an identifier
	// only hostbench uses is not in this test's binary.
	for _, dir := range []string{"internal", "benchmarks/hostbench"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() {
				_, err = os.Stat(path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	cmd := exec.Command(goTool, "vet", "./...")
	cmd.Dir = "benchmarks"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in benchmarks/: %v\n%s", err, out)
	}
}
