package plan

import (
	"reflect"
	"sync"
	"testing"

	"graphbench/internal/datasets"
	"graphbench/internal/engine"
	"graphbench/internal/hdfs"
	"graphbench/internal/sim"
)

// testProfile builds the profile of a paper dataset exactly the way
// core.TryDataset does, at the default scale and seed.
func testProfile(t testing.TB, name datasets.Name) *Profile {
	t.Helper()
	g := datasets.Generate(name, datasets.Options{Scale: datasets.DefaultScale, Seed: 1})
	src := datasets.SourceVertex(g, 42)
	d, err := engine.Prepare(hdfs.New(), g, "data/"+string(name), 64, src)
	if err != nil {
		t.Fatal(err)
	}
	d.DilationSSSP = datasets.TraversalDilation(name, g, src)
	d.DilationWCC = datasets.WCCDilation(name, g)
	return NewProfile(d, g)
}

var workloads = []string{"pagerank", "wcc", "sssp", "khop", "triangle", "lpa"}

// TestDecideDeterministic pins the planner's central contract: the
// same snapshot and request produce bit-identical decisions and traces
// — across fresh planners, across repeats on one planner, and under
// concurrent access (run with -race).
func TestDecideDeterministic(t *testing.T) {
	pr := testProfile(t, datasets.Twitter)
	for _, w := range workloads {
		for _, m := range []int{16, 64} {
			req := Request{Dataset: string(datasets.Twitter), Workload: w, Machines: m}
			a := New().Decide(pr, req)
			b := New().Decide(pr, req)
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("%s/%d: fresh planners disagree:\n%s\nvs\n%s", w, m, a.Trace(), b.Trace())
			}
			if a.Trace() != b.Trace() {
				t.Fatalf("%s/%d: traces differ", w, m)
			}

			p := New()
			first := p.Decide(pr, req)
			const n = 8
			var wg sync.WaitGroup
			got := make([]*Decision, n)
			for i := 0; i < n; i++ {
				wg.Add(1)
				go func(i int) {
					defer wg.Done()
					got[i] = p.Decide(pr, req)
				}(i)
			}
			wg.Wait()
			for i, d := range got {
				if !reflect.DeepEqual(first, d) {
					t.Fatalf("%s/%d: concurrent decide %d diverged", w, m, i)
				}
			}
		}
	}
}

// TestDecideSticky: once a request cell is decided it stays decided — a
// repeat Decide returns the equal decision, so downstream caches keyed
// on the decision stay stable.
func TestDecideSticky(t *testing.T) {
	pr := testProfile(t, datasets.Twitter)
	req := Request{Dataset: string(datasets.Twitter), Workload: "pagerank", Machines: 16}
	p := New()
	first := p.Decide(pr, req)
	snapshot := *first
	second := p.Decide(pr, req)
	if !reflect.DeepEqual(&snapshot, second) {
		t.Fatalf("repeat changed a pinned decision:\n%s\nvs\n%s", snapshot.Trace(), second.Trace())
	}
}

// TestDecideNeverWorseThanFixed is the planner's quality bound: by
// argmin construction, the chosen configuration's modeled cost never
// exceeds the best fixed configuration's — the documented bound is
// exactly zero, for every dataset class, workload, and cluster size.
func TestDecideNeverWorseThanFixed(t *testing.T) {
	for _, name := range []datasets.Name{datasets.Twitter, datasets.WRN, datasets.UK} {
		pr := testProfile(t, name)
		p := New()
		for _, w := range workloads {
			for _, m := range []int{16, 32, 64, 128} {
				d := p.Decide(pr, Request{Dataset: string(name), Workload: w, Machines: m})
				if len(d.Candidates) == 0 {
					t.Fatalf("%s/%s/%d: no candidates", name, w, m)
				}
				best := d.Candidates[0].Score
				for _, c := range d.Candidates {
					if c.Score < best {
						best = c.Score
					}
				}
				if d.Score > best {
					t.Errorf("%s/%s/%d: chose %s at %.3f, best fixed is %.3f",
						name, w, m, d.System, d.Score, best)
				}
			}
		}
	}
}

// TestDecideConfiguration spot-checks the configuration heuristics on
// profiles with known shapes.
func TestDecideConfiguration(t *testing.T) {
	twitter := testProfile(t, datasets.Twitter)
	wrn := testProfile(t, datasets.WRN)

	d := New().Decide(twitter, Request{Dataset: string(datasets.Twitter), Workload: "pagerank", Machines: 16})
	if d.ShardPlan != engine.ShardPlanWeighted {
		t.Errorf("twitter skew %.1f chose %s shard plan, want weighted", twitter.Skew, d.ShardPlan)
	}
	if d.Direction != engine.DirectionAuto {
		t.Error("pagerank should direction-optimize")
	}
	if d.Shards < 1 || d.Shards > maxShards {
		t.Errorf("shards %d out of range", d.Shards)
	}
	if d.MemoryTier != engine.TierAuto {
		t.Error("unbudgeted request picked a non-default memory tier")
	}

	d = New().Decide(wrn, Request{Dataset: string(datasets.WRN), Workload: "sssp", Machines: 16})
	if d.ShardPlan != engine.ShardPlanUniform {
		t.Errorf("wrn skew %.1f chose %s shard plan, want uniform", wrn.Skew, d.ShardPlan)
	}
	if d.Direction != engine.DirectionPush {
		t.Errorf("deep traversal (depth %d) should disable direction switching", wrn.DepthSSSP)
	}

	d = New().Decide(twitter, Request{
		Dataset: string(datasets.Twitter), Workload: "pagerank",
		Machines: 16, MemoryBudget: 1,
	})
	if d.MemoryTier != engine.TierSpill {
		t.Errorf("1-byte budget under a %d-byte working set kept tier %s", twitter.HostBytes, d.MemoryTier)
	}
}

// TestPredictCalibratedExact: a class reference dataset at an observed
// cluster size predicts from the exact grid cell, not the curve fit.
func TestPredictCalibratedExact(t *testing.T) {
	pr := testProfile(t, datasets.Twitter)
	for _, m := range []int{16, 32, 64, 128} {
		p := predict(pr, "giraph", "pagerank", m)
		if p.Source != "calibrated" {
			t.Fatalf("m=%d: source %q, want calibrated", m, p.Source)
		}
	}
	if p := predict(pr, "giraph", "pagerank", 48); p.Source != "curve" {
		t.Fatalf("unobserved cluster size: source %q, want curve", p.Source)
	}
}

// TestPredictFailures pins the failure predictors against known paper
// outcomes at full scale.
func TestPredictFailures(t *testing.T) {
	clueweb := &Profile{
		Dataset:       string(datasets.ClueWeb),
		Class:         ClassWeb,
		PaperVertices: datasets.SpecFor(datasets.ClueWeb).PaperVertices,
		PaperEdges:    datasets.SpecFor(datasets.ClueWeb).PaperEdges,
		Vertices:      9784, Edges: 425000,
		DepthSSSP: 40, DepthWCC: 40,
	}
	// Blogel-B's MPI partitioner overflows past 2^29 vertices.
	if p := predict(clueweb, "blogel-b", "pagerank", 128); p.Status != "MPI" {
		t.Errorf("clueweb blogel-b: status %q, want MPI", p.Status)
	}
	if clueweb.PaperVertices <= mpiVertexLimit {
		t.Fatal("test fixture no longer exceeds the MPI vertex limit")
	}
}

// TestClassify covers both the by-name path and the shape fallback.
func TestClassify(t *testing.T) {
	cases := []struct {
		dataset  string
		skew     float64
		diameter int
		want     string
	}{
		{"twitter", 0, 0, ClassSocial},
		{"wrn", 0, 0, ClassRoad},
		{"uk200705", 0, 0, ClassWeb},
		{"clueweb", 0, 0, ClassWeb},
		{"custom", 2.0, 128, ClassRoad},  // uniform degree, huge diameter
		{"custom", 30.0, 5, ClassSocial}, // power-law, tiny diameter
		{"custom", 6.0, 12, ClassWeb},    // in between
	}
	for _, c := range cases {
		if got := Classify(c.dataset, c.skew, c.diameter); got != c.want {
			t.Errorf("Classify(%q, %v, %d) = %q, want %q", c.dataset, c.skew, c.diameter, got, c.want)
		}
	}
}

// TestScore pins the composite cost formula and the failure penalty.
func TestScore(t *testing.T) {
	p := Prediction{Status: "OK", TimeSec: 100, MemTotal: 2 << 30, NetBytes: 4 << 30}
	got := Score(p, 16)
	want := 100.0 + WeightMemory*2 + WeightNetwork*4 + WeightMachines*16*100
	if got != want {
		t.Fatalf("Score = %v, want %v", got, want)
	}
	if got := Score(Prediction{Status: "TO", TimeSec: 1}, 16); got != FailurePenalty {
		t.Fatalf("failure score = %v, want the flat penalty %v", got, FailurePenalty)
	}
	if FailurePenalty != sim.TimeoutSeconds {
		t.Fatal("failure penalty drifted from the simulation timeout")
	}
}

func BenchmarkPlanner(b *testing.B) {
	pr := testProfile(b, datasets.Twitter)
	req := Request{Dataset: string(datasets.Twitter), Workload: "pagerank", Machines: 16}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Fresh planner each iteration: sticky decisions would turn
		// repeats into a map hit and benchmark nothing.
		if d := New().Decide(pr, req); d.System == "" {
			b.Fatal("empty decision")
		}
	}
}
