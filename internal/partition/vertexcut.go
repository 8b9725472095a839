package partition

import (
	"fmt"
	"math/bits"

	"graphbench/internal/graph"
)

// VertexCutKind selects a GraphLab/PowerGraph edge-placement strategy.
type VertexCutKind int

// The strategies of §4.4.1.
const (
	VCRandom VertexCutKind = iota
	VCGrid
	VCPDS
	VCOblivious
)

// String names the strategy as in the paper.
func (k VertexCutKind) String() string {
	switch k {
	case VCRandom:
		return "random"
	case VCGrid:
		return "grid"
	case VCPDS:
		return "pds"
	case VCOblivious:
		return "oblivious"
	default:
		return fmt.Sprintf("VertexCutKind(%d)", int(k))
	}
}

// AutoKind implements GraphLab's "Auto" mode: PDS when the machine
// count is p²+p+1 for a prime power p, else Grid when the machines
// form a near-square rectangle (|X−Y| ≤ 2), else Oblivious (§4.4.1,
// §5.4). For the paper's cluster sizes this selects Grid at 16 and 64
// and Oblivious at 32 and 128 — the source of GraphLab-auto's load-time
// cliff between those sizes.
func AutoKind(m int) VertexCutKind {
	if _, ok := pdsOrder(m); ok {
		return VCPDS
	}
	if _, _, ok := gridShape(m); ok {
		return VCGrid
	}
	return VCOblivious
}

// gridShape factors m into the most square X×Y rectangle and reports
// whether it satisfies the paper's |X−Y| ≤ 2 requirement.
func gridShape(m int) (x, y int, ok bool) {
	best := -1
	for a := 1; a*a <= m; a++ {
		if m%a == 0 {
			best = a
		}
	}
	if best <= 0 {
		return 0, 0, false
	}
	x, y = best, m/best
	return x, y, y-x <= 2
}

// pdsOrder reports whether m = p²+p+1 for some prime power p ≥ 2 and
// returns p.
func pdsOrder(m int) (p int, ok bool) {
	for p = 2; p*p+p+1 <= m; p++ {
		if p*p+p+1 == m && isPrimePower(p) {
			return p, true
		}
	}
	return 0, false
}

func isPrimePower(n int) bool {
	if n < 2 {
		return false
	}
	for f := 2; f*f <= n; f++ {
		if n%f == 0 {
			for n%f == 0 {
				n /= f
			}
			return n == 1
		}
	}
	return true // prime
}

// perfectDifferenceSet finds a set S of size p+1 over Z_m (m = p²+p+1)
// such that every non-zero residue mod m is the difference of exactly
// one ordered pair from S. Backtracking is fast for the small p used by
// clusters of ≤ a few hundred machines.
func perfectDifferenceSet(m, p int) []int {
	size := p + 1
	set := make([]int, 0, size)
	used := make([]bool, m) // used[d] = difference d already produced
	var rec func(next int) bool
	rec = func(next int) bool {
		if len(set) == size {
			return true
		}
		for cand := next; cand < m; cand++ {
			diffs := make([]int, 0, 2*len(set))
			ok := true
			for _, s := range set {
				d1 := (cand - s + m) % m
				d2 := (s - cand + m) % m
				if used[d1] || used[d2] || d1 == d2 {
					ok = false
					break
				}
				used[d1], used[d2] = true, true
				diffs = append(diffs, d1, d2)
			}
			if ok {
				set = append(set, cand)
				if rec(cand + 1) {
					return true
				}
				set = set[:len(set)-1]
			}
			for _, d := range diffs {
				used[d] = false
			}
		}
		return false
	}
	set = append(set, 0)
	if !rec(1) {
		panic(fmt.Sprintf("partition: no perfect difference set for m=%d p=%d", m, p))
	}
	return set
}

// MaxVertexCutMachines is the largest cluster a vertex cut is built
// for (the paper stops at 128): a replicaSet has this many bits, and a
// machine id fits the byte edgeMachine keeps per edge.
const MaxVertexCutMachines = 192

// replicaSet is a machine bitset.
type replicaSet [3]uint64

func (r *replicaSet) add(m int)     { r[m>>6] |= 1 << (m & 63) }
func (r replicaSet) has(m int) bool { return r[m>>6]&(1<<(m&63)) != 0 }
func (r replicaSet) count() int {
	return bits.OnesCount64(r[0]) + bits.OnesCount64(r[1]) + bits.OnesCount64(r[2])
}
func (r replicaSet) empty() bool { return r[0] == 0 && r[1] == 0 && r[2] == 0 }
func intersect(a, b replicaSet) replicaSet {
	return replicaSet{a[0] & b[0], a[1] & b[1], a[2] & b[2]}
}
func union(a, b replicaSet) replicaSet {
	return replicaSet{a[0] | b[0], a[1] | b[1], a[2] | b[2]}
}

// VertexCut is the result of edge-disjoint (vertex-cut) partitioning:
// every edge lives on exactly one machine; vertices are replicated on
// every machine holding one of their edges.
type VertexCut struct {
	M    int
	Kind VertexCutKind

	edgeMachine []uint8      // per edge, in CSR iteration order
	replicas    []replicaSet // per vertex
	edgeCounts  []int        // per machine

	repFactor float64
}

// BuildVertexCut partitions g's edges across m machines.
func BuildVertexCut(g *graph.Graph, m int, kind VertexCutKind, seed int64) *VertexCut {
	if m > MaxVertexCutMachines {
		panic(fmt.Sprintf("partition: vertex-cut supports at most %d machines", MaxVertexCutMachines))
	}
	vc := &VertexCut{
		M:           m,
		Kind:        kind,
		edgeMachine: make([]uint8, g.NumEdges()),
		replicas:    make([]replicaSet, g.NumVertices()),
		edgeCounts:  make([]int, m),
	}

	var constraint [][]int // per vertex-hash machine, candidate machines
	switch kind {
	case VCGrid:
		x, y, ok := gridShape(m)
		if !ok {
			panic(fmt.Sprintf("partition: %d machines do not form a grid", m))
		}
		constraint = gridConstraints(m, x, y)
	case VCPDS:
		p, ok := pdsOrder(m)
		if !ok {
			panic(fmt.Sprintf("partition: %d machines do not admit a PDS", m))
		}
		constraint = pdsConstraints(m, p)
	}

	idx := 0
	g.Edges(func(src, dst graph.VertexID) bool {
		var machine int
		switch kind {
		case VCRandom:
			machine = int(hash64(uint64(src)*1_000_003+uint64(dst), uint64(seed)) % uint64(m))
		case VCGrid, VCPDS:
			su := constraint[vc.hashMachine(src, seed)]
			sv := constraint[vc.hashMachine(dst, seed)]
			machine = vc.leastLoadedCommon(su, sv)
		case VCOblivious:
			machine = vc.obliviousPlace(src, dst)
		}
		vc.edgeMachine[idx] = uint8(machine)
		vc.edgeCounts[machine]++
		vc.replicas[src].add(machine)
		vc.replicas[dst].add(machine)
		idx++
		return true
	})

	placed, verts := 0, 0
	for v := range vc.replicas {
		if c := vc.replicas[v].count(); c > 0 {
			placed += c
			verts++
		}
	}
	if verts > 0 {
		vc.repFactor = float64(placed) / float64(verts)
	}
	return vc
}

func (vc *VertexCut) hashMachine(v graph.VertexID, seed int64) int {
	return int(hash64(uint64(v), uint64(seed)) % uint64(vc.M))
}

// leastLoadedCommon picks the least-loaded machine present in both
// candidate lists; the Grid and PDS constructions guarantee a non-empty
// intersection.
func (vc *VertexCut) leastLoadedCommon(su, sv []int) int {
	var inSv replicaSet
	for _, x := range sv {
		inSv.add(x)
	}
	best, bestLoad := -1, int(^uint(0)>>1)
	for _, x := range su {
		if inSv.has(x) && vc.edgeCounts[x] < bestLoad {
			best, bestLoad = x, vc.edgeCounts[x]
		}
	}
	if best < 0 {
		panic("partition: constrained placement found no common machine")
	}
	return best
}

// obliviousPlace implements PowerGraph's greedy heuristic: place the
// edge on the least-loaded machine already holding replicas of both
// endpoints, else of either endpoint, else anywhere (§4.4.1) — subject
// to PowerGraph's balance constraint: when every candidate is already
// overloaded relative to the cluster average, the edge goes to the
// globally least-loaded machine instead. Without the constraint the
// greedy rule collapses everything onto one machine.
func (vc *VertexCut) obliviousPlace(src, dst graph.VertexID) int {
	globalBest, globalLoad, total := 0, vc.edgeCounts[0], 0
	for i := 0; i < vc.M; i++ {
		total += vc.edgeCounts[i]
		if vc.edgeCounts[i] < globalLoad {
			globalBest, globalLoad = i, vc.edgeCounts[i]
		}
	}

	su, sv := vc.replicas[src], vc.replicas[dst]
	var candidates replicaSet
	switch {
	case !intersect(su, sv).empty():
		candidates = intersect(su, sv)
	case !su.empty() && !sv.empty():
		candidates = union(su, sv)
	case !su.empty():
		candidates = su
	case !sv.empty():
		candidates = sv
	default:
		return globalBest
	}
	best, bestLoad := -1, int(^uint(0)>>1)
	for i := 0; i < vc.M; i++ {
		if candidates.has(i) && vc.edgeCounts[i] < bestLoad {
			best, bestLoad = i, vc.edgeCounts[i]
		}
	}
	avg := float64(total) / float64(vc.M)
	if float64(bestLoad) > avg*1.2+4 {
		return globalBest
	}
	return best
}

func gridConstraints(m, x, y int) [][]int {
	out := make([][]int, m)
	for mach := 0; mach < m; mach++ {
		r, c := mach/y, mach%y
		seen := map[int]bool{}
		var set []int
		for cc := 0; cc < y; cc++ {
			if id := r*y + cc; id < m && !seen[id] {
				seen[id] = true
				set = append(set, id)
			}
		}
		for rr := 0; rr < x; rr++ {
			if id := rr*y + c; id < m && !seen[id] {
				seen[id] = true
				set = append(set, id)
			}
		}
		out[mach] = set
	}
	return out
}

func pdsConstraints(m, p int) [][]int {
	base := perfectDifferenceSet(m, p)
	out := make([][]int, m)
	for i := 0; i < m; i++ {
		set := make([]int, len(base))
		for j, s := range base {
			set[j] = (s + i) % m
		}
		out[i] = set
	}
	return out
}

// MachineOfEdge returns the machine holding the idx-th edge in CSR
// iteration order.
func (vc *VertexCut) MachineOfEdge(idx int) int { return int(vc.edgeMachine[idx]) }

// NumReplicas returns how many machines hold v.
func (vc *VertexCut) NumReplicas(v graph.VertexID) int { return vc.replicas[v].count() }

// MasterOf returns the machine acting as v's master (the lowest-id
// replica, or a hash assignment for vertices with no edges).
func (vc *VertexCut) MasterOf(v graph.VertexID) int {
	for i := 0; i < vc.M; i++ {
		if vc.replicas[v].has(i) {
			return i
		}
	}
	return int(hash64(uint64(v), 1) % uint64(vc.M))
}

// ReplicationFactor returns the average number of replicas per vertex
// that has at least one edge (Table 4).
func (vc *VertexCut) ReplicationFactor() float64 { return vc.repFactor }

// EdgeCounts returns per-machine edge counts.
func (vc *VertexCut) EdgeCounts() []int { return vc.edgeCounts }

// TotalReplicas returns the summed replica count across vertices — the
// quantity that drives GraphLab's memory footprint.
func (vc *VertexCut) TotalReplicas() int {
	t := 0
	for v := range vc.replicas {
		t += vc.replicas[v].count()
	}
	return t
}
