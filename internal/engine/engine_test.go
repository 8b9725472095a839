package engine

import (
	"testing"

	"graphbench/internal/graph"
	"graphbench/internal/hdfs"
	"graphbench/internal/sim"
)

func TestWorkloadConstructors(t *testing.T) {
	pr := NewPageRank()
	if pr.Kind != PageRank || pr.Damping != 0.15 || pr.Tolerance != 0.01 || pr.MaxIterations != 0 {
		t.Fatalf("NewPageRank = %+v", pr)
	}
	pri := NewPageRankIters(30)
	if pri.MaxIterations != 30 {
		t.Fatalf("NewPageRankIters = %+v", pri)
	}
	if w := NewKHop(7); w.K != 3 || w.Source != 7 {
		t.Fatalf("NewKHop = %+v", w)
	}
	if w := NewSSSP(9); w.Source != 9 || w.Kind != SSSP {
		t.Fatalf("NewSSSP = %+v", w)
	}
	if NewWCC().Kind != WCC {
		t.Fatal("NewWCC kind")
	}
	if w := NewTriangleCount(); w.Kind != Triangle {
		t.Fatalf("NewTriangleCount = %+v", w)
	}
	lpa := NewLPA()
	if lpa.Kind != LPA || lpa.MaxIterations != DefaultLPAIterations {
		t.Fatalf("NewLPA = %+v", lpa)
	}
	if lpa.LPAIterations() != DefaultLPAIterations {
		t.Fatalf("LPAIterations = %d", lpa.LPAIterations())
	}
	if (Workload{Kind: LPA}).LPAIterations() != DefaultLPAIterations {
		t.Fatal("zero cap must fall back to the default")
	}
}

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		PageRank: "pagerank", WCC: "wcc", SSSP: "sssp", KHop: "khop",
		Triangle: "triangle", LPA: "lpa",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("%v.String() = %q", int(k), k.String())
		}
	}
	if len(AllKinds()) != 4 {
		t.Error("AllKinds must stay the paper's four workloads")
	}
	if len(ExtendedKinds()) != 6 {
		t.Error("ExtendedKinds incomplete")
	}
}

func TestTotalTriangles(t *testing.T) {
	r := &Result{Triangles: []int64{3, 2, 2, 1, 1}}
	if got := r.TotalTriangles(); got != 3 {
		t.Fatalf("TotalTriangles = %d, want 3", got)
	}
	if (&Result{}).TotalTriangles() != 0 {
		t.Fatal("empty result must report zero triangles")
	}
}

func TestDilationFor(t *testing.T) {
	d := &Dataset{DilationSSSP: 100, DilationWCC: 50}
	if d.DilationFor(SSSP) != 100 || d.DilationFor(WCC) != 50 {
		t.Fatal("traversal dilations wrong")
	}
	if d.DilationFor(PageRank) != 1 || d.DilationFor(KHop) != 1 {
		t.Fatal("non-traversal workloads must not dilate")
	}
	if d.DilationFor(Triangle) != 1 || d.DilationFor(LPA) != 1 {
		t.Fatal("extension workloads must not dilate")
	}
	empty := &Dataset{}
	if empty.DilationFor(SSSP) != 1 {
		t.Fatal("zero dilation must clamp to 1")
	}
}

func TestPrepareRegistersAllFormats(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	g := b.SetName("tiny").SetScaleFactor(1000).Build()
	fs := hdfs.New()
	d, err := Prepare(fs, g, "data/tiny", 8, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []graph.Format{graph.FormatAdj, graph.FormatAdjLong, graph.FormatEdge} {
		file, err := d.Open(f)
		if err != nil {
			t.Fatalf("%v: %v", f, err)
		}
		if file.Chunks != 8 {
			t.Errorf("%v: chunks = %d", f, file.Chunks)
		}
		if d.FileBytes(f) <= 0 {
			t.Errorf("%v: no paper bytes", f)
		}
	}
	if d.Graph != g {
		t.Error("Dataset.Graph is not the prepared graph")
	}
	// Edge format carries ~21 B/edge at paper scale.
	if got := d.FileBytes(graph.FormatEdge); got != 3*1000*hdfs.EdgeFormatBytesPerEdge {
		t.Errorf("edge bytes = %d", got)
	}
}

func TestResultFinishAggregates(t *testing.T) {
	c := sim.NewSize(2)
	if err := c.Alloc(0, 100); err != nil {
		t.Fatal(err)
	}
	if err := c.UniformStep(sim.StepCost{ComputeSeconds: 2, NetSendBytes: 50}); err != nil {
		t.Fatal(err)
	}
	res := (&Result{}).Finish(c, nil)
	if res.Status != sim.OK {
		t.Fatalf("status %v", res.Status)
	}
	if res.CPUUser != 4 { // 2s on each of 2 machines
		t.Errorf("CPUUser = %v", res.CPUUser)
	}
	if res.NetBytes != 100 {
		t.Errorf("NetBytes = %v", res.NetBytes)
	}
	if res.MemTotal != 100 || res.MemMax != 100 {
		t.Errorf("memory: %d/%d", res.MemTotal, res.MemMax)
	}
	failed := (&Result{}).Finish(c, &sim.Failure{Status: sim.MPI})
	if failed.Status != sim.MPI || failed.Err == nil {
		t.Errorf("failure not propagated: %+v", failed)
	}
}

func TestTotalTime(t *testing.T) {
	r := &Result{Load: 1, Exec: 2, Save: 3, Overhead: 4}
	if r.TotalTime() != 10 {
		t.Fatalf("TotalTime = %v", r.TotalTime())
	}
}
