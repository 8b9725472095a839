package main

import (
	"encoding/json"
	"os"
	"strings"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call. The program under test is not instrumented: the
// outer span of an operation wraps the top call (serve.request around
// ServeHTTP, core.run around TryRun), and its children are replays of
// the same cell one layer down on a shadow runner. Spans of one
// operation share Op; Parent is the span id that caused this one (0 for
// the operation's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) durNS() int64 { return s.EndNS - s.StartNS }

// layer is the span name's prefix up to the first dot: serve.request
// belongs to layer "serve".
func (s span) layer() string {
	if i := strings.IndexByte(s.Name, '.'); i >= 0 {
		return s.Name[:i]
	}
	return s.Name
}

// tracer keeps spans in memory until the run ends. The nil tracer is
// valid and records nothing, so measured windows share one code path
// with traced ones.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
	ops   int
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// newOp allots the identifier the spans of one operation share.
func (t *tracer) newOp() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.ops++
	return t.ops
}

// do times fn as a span of op under parent and returns the span's id.
func (t *tracer) do(op, parent int, name string, fn func()) int {
	if t == nil {
		fn()
		return 0
	}
	start := time.Since(t.epoch)
	fn()
	end := time.Since(t.epoch)
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Op: op, Name: name,
		StartNS: start.Nanoseconds(), EndNS: end.Nanoseconds()})
	return id
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON array.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time: the time it covers minus the
// time its children cover. A child here is a replay — it ran after its
// parent, not inside it — so it covers its own duration, capped at what
// its parent has left: replay noise can never make a self time negative,
// and the self times of an operation's spans sum to its root span's
// duration by construction. What the cap cut off is returned as clipped,
// per root span: the time by which replays outran the spans they stand
// for, which is how far the attribution can be off.
func selfTimes(spans []span) (self, clipped map[int]int64) {
	children := map[int][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	self = make(map[int]int64, len(spans))
	clipped = map[int]int64{}
	var visit func(root int, s span, covers int64)
	visit = func(root int, s span, covers int64) {
		left := covers
		for _, c := range children[s.ID] {
			cc := c.durNS()
			if cc > left {
				clipped[root] += cc - left
				cc = left
			}
			left -= cc
			visit(root, c, cc)
		}
		self[s.ID] = left
	}
	for _, root := range children[0] {
		visit(root.ID, root, root.durNS())
	}
	return self, clipped
}

// layerShares sums self time by layer over every operation and returns
// each layer's share of the total root-span time, in percent, and the
// share of it that replays overran (clippedPct). Because self times
// partition each root span exactly, the shares of the layers that appear
// sum to 100; clippedPct says how much of that is the cap's doing — the
// attribution holds to within that share. Spans of op 0 belong to no
// operation (a grid pass, timed only for the overhead comparison) and
// are left out.
func layerShares(spans []span) (shares map[string]float64, clippedPct float64) {
	self, clipped := selfTimes(spans)
	byLayer := map[string]int64{}
	var roots, cut int64
	for _, s := range spans {
		if s.Op == 0 {
			continue
		}
		byLayer[s.layer()] += self[s.ID]
		if s.Parent == 0 {
			roots += s.durNS()
			cut += clipped[s.ID]
		}
	}
	shares = map[string]float64{}
	if roots == 0 {
		return shares, 0
	}
	for l, ns := range byLayer {
		shares[l] = 100 * float64(ns) / float64(roots)
	}
	return shares, 100 * float64(cut) / float64(roots)
}
