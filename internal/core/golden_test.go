package core

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/golden_grid.txt from this build's results")

const goldenGridPath = "testdata/golden_grid.txt"

// goldenCells is the full main grid (the cells of `graphbench -grid`)
// followed by Vertica on every dataset, workload and cluster size.
func goldenCells() []Cell {
	var cells []Cell
	for _, name := range []datasets.Name{datasets.Twitter, datasets.UK, datasets.WRN} {
		for _, kind := range engine.ExtendedKinds() {
			systems := MainGridSystems()
			if kind == engine.PageRank {
				systems = Systems()
			}
			for _, m := range ClusterSizes {
				for _, s := range systems {
					cells = append(cells, Cell{System: s, Dataset: name, Kind: kind, Machines: m})
				}
			}
		}
	}
	for _, name := range []datasets.Name{datasets.Twitter, datasets.WRN, datasets.UK, datasets.ClueWeb} {
		for _, kind := range engine.ExtendedKinds() {
			for _, m := range ClusterSizes {
				cells = append(cells, Cell{System: Vertica(), Dataset: name, Kind: kind, Machines: m})
			}
		}
	}
	return cells
}

// resultDigest hashes everything a run reports that the bit-identity
// contracts cover: status, the time decomposition, iteration count,
// resource totals, recovery costs, per-iteration stats, and the raw
// bits of the output vectors (length-prefixed, so a nil vector and a
// filled one never collide).
func resultDigest(res *engine.Result) string {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	f := math.Float64bits
	put(uint64(res.Status), f(res.Load), f(res.Exec), f(res.Save), f(res.Overhead),
		uint64(res.Iterations), uint64(res.NetBytes), uint64(res.MemTotal), uint64(res.MemMax),
		f(res.CPUUser), f(res.CPUIO), f(res.CPUNet), f(res.CPUIdle),
		uint64(res.Costs.Failures), f(res.Costs.CheckpointSeconds),
		f(res.Costs.RestartSeconds), f(res.Costs.ReplaySeconds))
	put(uint64(len(res.PerIteration)))
	for _, it := range res.PerIteration {
		put(uint64(it.Iteration), uint64(it.Active), uint64(it.Updates), f(it.Seconds))
	}
	put(uint64(len(res.Ranks)))
	for _, x := range res.Ranks {
		put(f(x))
	}
	put(uint64(len(res.Labels)))
	for _, x := range res.Labels {
		put(uint64(x))
	}
	put(uint64(len(res.Dist)))
	for _, x := range res.Dist {
		put(uint64(x))
	}
	put(uint64(len(res.Triangles)))
	for _, x := range res.Triangles {
		put(uint64(x))
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestGoldenGridDigest compares every cell of the main grid plus the
// Vertica grid against digests recorded from an earlier build. The other
// bit-identity tests compare two runs of the same build, so a refactor
// that shifts a modeled cost on both sides passes them; this one does
// not. A deliberate modeling change regenerates the file with
//
//	go test ./internal/core -run TestGoldenGridDigest -update
//
// and lists the changed cells in its description.
func TestGoldenGridDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the full grid at default scale")
	}
	r := NewRunner(0, 1)
	defer r.Close()
	cells := goldenCells()
	results := r.RunGrid(cells)
	var sb strings.Builder
	for i, c := range cells {
		fmt.Fprintf(&sb, "%s %s %s %d %s\n", c.Dataset, c.Kind, c.System.Key, c.Machines, resultDigest(results[i]))
	}
	got := sb.String()
	if *updateGolden {
		if err := os.WriteFile(goldenGridPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	wantBytes, err := os.ReadFile(goldenGridPath)
	if err != nil {
		t.Fatal(err)
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(string(wantBytes), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("grid has %d lines, golden file has %d", len(gotLines), len(wantLines))
	}
	diffs := 0
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			if diffs++; diffs <= 20 {
				t.Errorf("line %d:\n  got  %s\n  want %s", i+1, gotLines[i], wantLines[i])
			}
		}
	}
	if diffs > 20 {
		t.Errorf("%d cells differ in total", diffs)
	}
}
