package main

import (
	"sync"
	"time"

	"graphbench/internal/graph"
)

// hostRef is the benchmark's own yardstick for how fast the host is
// right now: a damped pull sweep over a private copy of the twitter
// fixture's in-edges, the access pattern of the engines it stands
// beside, in code and memory no change to the repository can touch.
//
// The box is a VM on a shared host whose speed drifts for minutes at a
// time (measured: the same ooc-spill window 18 % slower for three runs
// in a row, the same grid window 27 % slower for two, user CPU time up
// by as much, no steal; an hour earlier the acceptance driver saw whole
// runs two and three times slower). No statistic inside a window can see
// past a drift that covers the window, but a yardstick timed between the
// window's own operations drifts with them: across fourteen bsp-cost runs
// the summed legs spread 5.2 % and the single-thread oracles timed in the
// same passes 6.9 %, their ratio 2.0 % — the paper's COST argument turned
// on the host. So every window times this kernel between its operations
// and states its timings on a host of reference speed (see
// hostSlowdown and endToEnd).
type hostRef struct {
	off, src []int32     // CSR of in-edges
	rank     [][]float64 // two buffers per concurrent sweeper
}

const (
	refSweeps = 8 // sweeps per timing: ≈ 6 ms on the scale-2000 fixture
	// refNominalNS is what the kernel takes per edge visited on the
	// reference host: this repository's 2-vCPU box (Xeon @ 2.10 GHz) in a
	// quiet minute, on the scale-2000 fixture. It only fixes the scale of
	// the timing metrics; on another host they read as if measured on
	// this one.
	refNominalNS = 1.0
	// refEvery is how often a closed-loop client stops to time the
	// kernel: 3 % of its time.
	refEvery = 200 * time.Millisecond
)

func newHostRef(g *graph.Graph, sweepers int) *hostRef {
	n := g.NumVertices()
	r := &hostRef{off: make([]int32, n+1), src: make([]int32, 0, g.NumEdges())}
	for v := 0; v < n; v++ {
		for _, u := range g.InNeighbors(graph.VertexID(v)) {
			r.src = append(r.src, int32(u))
		}
		r.off[v+1] = int32(len(r.src))
	}
	for i := 0; i < 2*sweepers; i++ {
		buf := make([]float64, n)
		for v := range buf {
			buf[v] = 1
		}
		r.rank = append(r.rank, buf)
	}
	return r
}

// sweep times the kernel on sweeper i's buffers, in ns per edge visited.
// Ranks stay within [0.15, 1], so the time does not depend on how often
// it ran.
func (r *hostRef) sweep(i int) float64 {
	cur, next := r.rank[2*i], r.rank[2*i+1]
	t := time.Now()
	for it := 0; it < refSweeps; it++ {
		for v := 0; v+1 < len(r.off); v++ {
			in := r.src[r.off[v]:r.off[v+1]]
			var s float64
			for _, u := range in {
				s += cur[u]
			}
			next[v] = 0.15 + 0.85*s/float64(len(in)+1)
		}
		cur, next = next, cur
	}
	return float64(time.Since(t).Nanoseconds()) / float64(refSweeps*len(r.src))
}

// on times the kernel on cpus sweepers at once and returns the slowest:
// as many as the operations it stands beside keep busy, or a neighbour
// inside the VM that takes one CPU would slow the yardstick of a
// one-CPU operation that it leaves alone.
func (r *hostRef) on(cpus int) float64 {
	times := make([]float64, cpus)
	var wg sync.WaitGroup
	for i := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			times[i] = r.sweep(i)
		}()
	}
	wg.Wait()
	return maxOf(times)
}
