package partition

import (
	"math/rand"
	"sort"

	"graphbench/internal/graph"
)

// Voronoi is the output of Blogel-B's Graph Voronoi Diagram (GVD)
// partitioning (§2.3): vertices grouped into connected blocks grown by
// multi-source BFS from sampled seeds, blocks packed onto machines, and
// the block-level graph that block-centric computation runs on.
type Voronoi struct {
	NumBlocks    int
	BlockOf      []int32 // vertex -> block
	BlockMachine []int32 // block -> machine
	BlockSizes   []int   // block -> vertex count
	Rounds       int     // sampling rounds used

	// BlockEdges is the multigraph of blocks: BlockEdges[b] maps
	// neighbor block -> number of underlying graph edges, the weights
	// Blogel-B's block PageRank uses (§3.1.2).
	BlockEdges []map[int32]int
}

// VoronoiOptions tunes GVD sampling; zero values take Blogel defaults.
type VoronoiOptions struct {
	InitialRate float64 // seed sampling probability, default 0.001
	MaxRounds   int     // default 10; leftovers become singleton blocks
}

// BuildVoronoi runs GVD partitioning of g for m machines: the blocks,
// then their packing.
func BuildVoronoi(g *graph.Graph, m int, seed int64, opt VoronoiOptions) *Voronoi {
	return BuildBlocks(g, g.Undirected(), seed, opt).Pack(m)
}

// Pack returns the blocks packed onto m machines: a shallow copy that
// shares the block structure and owns its BlockMachine, so one
// BuildBlocks result serves runs at any cluster size.
func (v *Voronoi) Pack(m int) *Voronoi {
	p := *v
	p.packBlocks(m)
	return &p
}

// BuildBlocks runs the part of GVD partitioning that does not depend on
// the machine count — the sampling rounds, the block of every vertex
// and the block graph — leaving BlockMachine to Pack. Sampling and BFS
// run on u, g's undirected view, so blocks are connected vertex sets.
// The sampling rate doubles each round, as in Blogel, until every
// vertex is assigned or MaxRounds is reached.
func BuildBlocks(g, u *graph.Graph, seed int64, opt VoronoiOptions) *Voronoi {
	if opt.InitialRate <= 0 {
		opt.InitialRate = 0.001
	}
	if opt.MaxRounds <= 0 {
		opt.MaxRounds = 10
	}
	n := u.NumVertices()
	rng := rand.New(rand.NewSource(seed))

	v := &Voronoi{BlockOf: make([]int32, n)}
	for i := range v.BlockOf {
		v.BlockOf[i] = -1
	}

	unassigned := n
	rate := opt.InitialRate
	for round := 0; round < opt.MaxRounds && unassigned > 0; round++ {
		v.Rounds++
		// Sample seeds among unassigned vertices.
		want := int(float64(unassigned) * rate)
		if want < 1 {
			want = 1
		}
		var seeds []graph.VertexID
		for i := 0; i < n && len(seeds) < want; i++ {
			if v.BlockOf[i] < 0 && rng.Float64() < rate*4 {
				seeds = append(seeds, graph.VertexID(i))
			}
		}
		if len(seeds) == 0 {
			for i := 0; i < n; i++ {
				if v.BlockOf[i] < 0 {
					seeds = append(seeds, graph.VertexID(i))
					break
				}
			}
		}
		// Multi-source BFS over unassigned vertices only: each seed
		// grows a connected block.
		frontier := make([]graph.VertexID, 0, len(seeds))
		for _, s := range seeds {
			if v.BlockOf[s] >= 0 {
				continue
			}
			v.BlockOf[s] = int32(v.NumBlocks)
			v.NumBlocks++
			frontier = append(frontier, s)
			unassigned--
		}
		for len(frontier) > 0 {
			var next []graph.VertexID
			for _, x := range frontier {
				for _, w := range u.OutNeighbors(x) {
					if v.BlockOf[w] < 0 {
						v.BlockOf[w] = v.BlockOf[x]
						unassigned--
						next = append(next, w)
					}
				}
			}
			frontier = next
		}
		rate *= 2
	}
	// Anything still unassigned (isolated vertices or round budget
	// exhausted) becomes singleton blocks.
	for i := 0; i < n; i++ {
		if v.BlockOf[i] < 0 {
			v.BlockOf[i] = int32(v.NumBlocks)
			v.NumBlocks++
			unassigned--
		}
	}

	v.BlockSizes = make([]int, v.NumBlocks)
	for i := 0; i < n; i++ {
		v.BlockSizes[v.BlockOf[i]]++
	}

	v.buildBlockGraph(g)
	return v
}

// packBlocks assigns blocks to machines greedily, largest block first
// onto the least-loaded machine — Blogel's balance objective.
func (v *Voronoi) packBlocks(m int) {
	order := make([]int, v.NumBlocks)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		if v.BlockSizes[order[a]] != v.BlockSizes[order[b]] {
			return v.BlockSizes[order[a]] > v.BlockSizes[order[b]]
		}
		return order[a] < order[b]
	})
	v.BlockMachine = make([]int32, v.NumBlocks)
	load := make([]int, m)
	for _, b := range order {
		best := 0
		for i := 1; i < m; i++ {
			if load[i] < load[best] {
				best = i
			}
		}
		v.BlockMachine[b] = int32(best)
		load[best] += v.BlockSizes[b]
	}
}

func (v *Voronoi) buildBlockGraph(g *graph.Graph) {
	v.BlockEdges = make([]map[int32]int, v.NumBlocks)
	g.Edges(func(src, dst graph.VertexID) bool {
		bs, bd := v.BlockOf[src], v.BlockOf[dst]
		if bs == bd {
			return true
		}
		if v.BlockEdges[bs] == nil {
			v.BlockEdges[bs] = make(map[int32]int)
		}
		v.BlockEdges[bs][bd]++
		return true
	})
}

// MachineOf returns the machine owning vertex x's block.
func (v *Voronoi) MachineOf(x graph.VertexID) int {
	return int(v.BlockMachine[v.BlockOf[x]])
}

// CrossBlockEdges counts edges whose endpoints lie in different blocks.
func (v *Voronoi) CrossBlockEdges() int {
	t := 0
	for _, es := range v.BlockEdges {
		for _, c := range es {
			t += c
		}
	}
	return t
}

// CrossMachineEdges counts edges whose endpoints lie on different
// machines — the traffic block-centric BSP actually ships.
func (v *Voronoi) CrossMachineEdges(g *graph.Graph) int {
	t := 0
	g.Edges(func(src, dst graph.VertexID) bool {
		if v.MachineOf(src) != v.MachineOf(dst) {
			t++
		}
		return true
	})
	return t
}

// MachineVertexCounts returns per-machine vertex totals.
func (v *Voronoi) MachineVertexCounts(m int) []int {
	counts := make([]int, m)
	for b := 0; b < v.NumBlocks; b++ {
		counts[v.BlockMachine[b]] += v.BlockSizes[b]
	}
	return counts
}
