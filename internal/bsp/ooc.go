package bsp

// Out-of-core execution under a memory governor (internal/govern).
//
// A governed run sizes its working set before allocating anything and
// picks one of three modes:
//
//   - in-core: everything fits inside the soft fraction of the budget.
//     One up-front reservation covers the projected working set (state
//     planes, resident CSR, twin inbox arenas, send buckets, optional
//     pull scratch) and the run executes exactly as ungoverned.
//   - in-core lean (soft pressure): the full projection exceeds the
//     soft fraction but the push-only working set still fits. The run
//     forces DirectionPush — shedding the direction-optimization
//     scratch (frontiers, snapshot values, counting masks) — which is
//     bit-identical by the direction contract.
//   - out-of-core (hard pressure): even the lean projection exceeds
//     the available budget. The run forces push and streams instead of
//     residing: edge blocks are re-laid out into checksummed segment
//     files read through small per-shard windows; send buckets spill
//     to per-shard chunk files once their in-memory bytes pass a
//     threshold; and the merged inbox arena is written per destination
//     shard to segment files that the next superstep's compute streams
//     back. Only the O(V) state planes, the combiner's per-machine
//     slots, and the bounded windows/regions stay charged.
//
// The spill layout preserves the exact sequential message order: a
// destination's messages are replayed per source shard as that shard's
// spilled chunks in flush order followed by its in-memory remainder —
// the concatenation shardState.segment serves to the one merge body,
// with zero chunks in core — so the deposit and fold passes, outputs,
// IterStats, and every modeled cost are bit-identical to in-core
// execution at every shard count. Modeled costs never see the
// host strategy at all: out-of-core is a host-side execution detail,
// like shard count or traversal direction.
//
// Checkpoints copy the current inbox segment files next to the resident
// state; a rollback deletes both live inbox file sets (invalidating any
// in-flight spill), restores the checkpoint copies, and lets replay
// regenerate bucket spill files from scratch — deterministically, since
// replayed supersteps recompute identical state. All spill files live
// in the run's private lease directory, removed when the run ends.

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sync"
	"unsafe"

	"graphbench/internal/engine"
	"graphbench/internal/govern"
	"graphbench/internal/graph"
	"graphbench/internal/sim"
)

// oocWindowBytes is the streaming window granularity: two segment pages.
const oocWindowBytes = 2 * govern.PageBytes

// Bucket spill thresholds: a shard flushes its buckets once their
// in-memory bytes pass a budget-derived threshold clamped to this range.
const (
	minSpillThreshold = 16 << 10
	maxSpillThreshold = 1 << 20
)

var oocCRC = crc32.MakeTable(crc32.Castagnoli)

// budgetFailure couples a budget rejection to the paper's OOM status:
// errors.Is(err, govern.ErrBudget) identifies it for the serve path,
// and errors.As(*sim.Failure) gives StatusOf the OOM classification.
// It is never Recoverable — retrying under the same budget reproduces it.
type budgetFailure struct {
	f   *sim.Failure
	err error
}

func (e *budgetFailure) Error() string   { return e.f.Error() }
func (e *budgetFailure) Unwrap() []error { return []error{e.f, e.err} }

// wrapBudget dresses budget rejections as OOM failures; other errors
// pass through untouched.
func wrapBudget(err error) error {
	if err == nil || !errors.Is(err, govern.ErrBudget) {
		return err
	}
	return &budgetFailure{
		f:   &sim.Failure{Status: sim.OOM, Machine: -1, Detail: "host memory budget: " + err.Error()},
		err: err,
	}
}

// governSizes are the projected working sets the mode decision weighs.
type governSizes struct {
	floor int64 // resident in every mode: state planes, offsets, combiner slots, checkpoint planes
	full  int64 // in-core with direction-optimization scratch
	lean  int64 // in-core, forced push
	fixed int64 // out-of-core streaming buffers (windows, chunk buffers, bucket residue)
}

func (rt *runtime) governSizes(threshold int64) governSizes {
	g := rt.cfg.Graph
	n := int64(g.NumVertices())
	e := int64(g.NumEdges()) // the in-CSR mirrors every out-edge
	var s governSizes
	// values 8 + halted 1 + four offset planes 16 + owner 4 + shardOf 4
	// + the fold's receiver lists 4.
	s.floor = n * 37
	s.floor += (n + 1) * 4 // out-offsets stay resident even when streaming
	if rt.cfg.UseInNeighbors {
		s.floor += (n + 1) * 4
	}
	nsh := int64(rt.plan.Count())
	s.floor += nsh * int64(rt.cfg.M) * 8 // stamp + slot per shard and machine
	raw := e
	if rt.cfg.UseInNeighbors {
		raw += e
	}
	if rt.cfg.CheckpointEvery > 0 {
		s.floor += n * 17 // checkpointed values, halted, inStart, inLen
	}
	s.lean = s.floor + e*8 + raw*32 // resident CSR both sides + twin arenas & buckets
	if rt.cfg.Combine != nil {
		s.lean += raw * 2 // the fold's sender machine per raw message
	}
	if rt.cfg.CheckpointEvery > 0 {
		s.lean += raw * 8 // checkpointed inbox values
	}
	s.full = s.lean + n*18 // fvals, counting masks, frontier bitsets
	win := int64(oocWindowBytes)
	s.fixed = nsh * (win /*edges out*/ + win /*inbox*/ + (threshold + 64) /*chunk buf*/ + 2*threshold /*bucket residue*/)
	if rt.cfg.UseInNeighbors {
		s.fixed += nsh * win
	}
	return s
}

// setupGovernor runs once before any plane is allocated: it leases the
// run's share of the budget and picks the execution mode. It may force
// cfg.Direction to push (bit-identical) and, under hard pressure,
// set up out-of-core streaming. A budget below even the out-of-core
// floor fails with a budgetFailure.
func (rt *runtime) setupGovernor() error {
	g := rt.cfg.Governor
	if !g.Enabled() {
		return nil
	}
	rt.lease = g.NewLease()
	avail := rt.lease.Available()
	// A shard's spill buffers are three thresholds (governSizes' fixed):
	// together they get a quarter of the budget, the rest is for the
	// planes and the merge regions, ten bytes a raw message.
	threshold := avail / (int64(rt.plan.Count()) * 12)
	if threshold < minSpillThreshold {
		threshold = minSpillThreshold
	}
	if threshold > maxSpillThreshold {
		threshold = maxSpillThreshold
	}
	sizes := rt.governSizes(threshold)
	// TierSpill (set by the planner when the in-core working set clearly
	// exceeds the budget) skips the doomed in-core reservation probes
	// and goes straight to the out-of-core tier below.
	if rt.cfg.MemoryTier != engine.TierSpill {
		if sizes.full <= int64(float64(avail)*govern.SoftFraction) {
			if rt.lease.TryCharge(sizes.full) == nil {
				return nil
			}
		}
		if sizes.lean <= avail && rt.lease.TryCharge(sizes.lean) == nil {
			// Soft pressure: shed the optional scratch, keep everything
			// else resident.
			rt.cfg.Direction = engine.DirectionPush
			rt.lease.NoteSoft()
			return nil
		}
	}
	// Hard pressure: go out-of-core, or reject if even that cannot fit.
	if err := rt.lease.TryCharge(sizes.floor + sizes.fixed); err != nil {
		rt.lease.Close()
		rt.lease = nil
		return wrapBudget(err)
	}
	rt.lease.NoteHard()
	rt.cfg.Direction = engine.DirectionPush
	if err := rt.setupOOC(int(threshold)); err != nil {
		if rt.oc != nil {
			rt.oc.closeFiles()
			rt.oc = nil
		}
		rt.lease.Close()
		rt.lease = nil
		return wrapBudget(err)
	}
	return nil
}

// finishGovernor closes spill files, returns the lease, and publishes
// the run's ledger stats. Safe to call on ungoverned runs.
func (rt *runtime) finishGovernor(out *Output) {
	if rt.lease == nil {
		return
	}
	if rt.oc != nil {
		rt.oc.closeFiles()
	}
	out.Govern = rt.lease.Stats()
	rt.lease.Close()
}

// oocState is the out-of-core machinery of one run.
type oocState struct {
	rt        *runtime
	lease     *govern.Lease
	dir       string
	threshold int

	outSeg, inSeg *govern.SegmentReader // shared streamed edge blocks

	inbox    []winReader   // per compute shard, over the current inbox set
	regions  [][]float64   // per merge shard, reused across supersteps
	regMach  [][]machineID // per merge shard, the regions' sender-machine scratch
	chunkBuf [][]byte      // per merge shard, spilled-chunk read scratch

	// Double-buffered inbox segment files: set inSet holds the current
	// superstep's messages, the other set is written by the merge pass;
	// deliver flips. inBase/nextBase are each shard's region base — the
	// global arena offset its file's first value corresponds to.
	inSet    int
	inBase   []int32
	nextBase []int32

	// Checkpoint copies of the inbox set (ckptHas marks shards whose
	// region file existed at checkpoint time).
	ckptBase []int32
	ckptHas  []bool

	mu  sync.Mutex
	err error
}

// fail records the run's first out-of-core error; the superstep loop
// aborts the run once the current phase drains.
func (oc *oocState) fail(err error) {
	oc.mu.Lock()
	if oc.err == nil {
		oc.err = err
	}
	oc.mu.Unlock()
}

func (oc *oocState) firstErr() error {
	oc.mu.Lock()
	defer oc.mu.Unlock()
	return oc.err
}

// charge asks the lease for n more bytes, converting a rejection into
// the run's failure.
func (oc *oocState) charge(n int64) bool {
	if err := oc.lease.TryCharge(n); err != nil {
		oc.fail(err)
		return false
	}
	return true
}

func (oc *oocState) inboxPath(set, shard int) string {
	return filepath.Join(oc.dir, fmt.Sprintf("inbox-%d-s%d.seg", set, shard))
}

func (oc *oocState) ckptPath(shard int) string {
	return filepath.Join(oc.dir, fmt.Sprintf("ckpt-inbox-s%d.seg", shard))
}

// setupOOC writes the edge segments and installs the per-shard streams
// and spill state the phase bodies' out-of-core branches read (rt.oc,
// shardState.spill). The fixed buffers it allocates were already
// charged by setupGovernor.
func (rt *runtime) setupOOC(threshold int) error {
	lease := rt.lease
	dir, err := lease.Dir()
	if err != nil {
		return err
	}
	nsh := rt.plan.Count()
	oc := &oocState{
		rt:        rt,
		lease:     lease,
		dir:       dir,
		threshold: threshold,
		inbox:     make([]winReader, nsh),
		regions:   make([][]float64, nsh),
		regMach:   make([][]machineID, nsh),
		chunkBuf:  make([][]byte, nsh),
		inBase:    make([]int32, nsh),
		nextBase:  make([]int32, nsh),
		ckptBase:  make([]int32, nsh),
		ckptHas:   make([]bool, nsh),
	}
	csr := rt.cfg.Graph.RawCSR()
	writeEdges := func(name string, edges []graph.VertexID) (*govern.SegmentReader, error) {
		path := filepath.Join(dir, name)
		w, err := govern.CreateSegment(path, lease)
		if err != nil {
			return nil, err
		}
		if len(edges) > 0 {
			if _, err := w.Write(bytesOf(edges)); err != nil {
				w.Finish()
				return nil, err
			}
		}
		if err := w.Finish(); err != nil {
			return nil, err
		}
		return govern.OpenSegment(path)
	}
	if oc.outSeg, err = writeEdges("edges-out.seg", csr.OutEdges); err != nil {
		return err
	}
	if rt.cfg.UseInNeighbors {
		if oc.inSeg, err = writeEdges("edges-in.seg", csr.InEdges); err != nil {
			return err
		}
	}
	for i, ss := range rt.shards {
		ss.edgeOut = &edgeStream{oc: oc, off: csr.OutOffsets, win: winReader{seg: oc.outSeg, buf: govern.AlignedBytes(oocWindowBytes)}}
		if rt.cfg.UseInNeighbors {
			ss.edgeIn = &edgeStream{oc: oc, off: csr.InOffsets, win: winReader{seg: oc.inSeg, buf: govern.AlignedBytes(oocWindowBytes)}}
		}
		ss.spill = &bucketSpill{
			oc:        oc,
			shard:     i,
			path:      filepath.Join(dir, fmt.Sprintf("bkt-s%d.dat", i)),
			threshold: threshold,
			chunks:    make([][]chunkRef, nsh),
			counts:    make([]int, nsh),
		}
		oc.inbox[i].buf = govern.AlignedBytes(oocWindowBytes)
		oc.chunkBuf[i] = govern.AlignedBytes(threshold + 64)
	}
	rt.oc = oc
	return nil
}

// closeFiles closes every open spill file descriptor. The files
// themselves are removed with the lease directory.
func (oc *oocState) closeFiles() {
	if oc.outSeg != nil {
		oc.outSeg.Close()
	}
	if oc.inSeg != nil {
		oc.inSeg.Close()
	}
	for i := range oc.inbox {
		oc.closeInboxReader(i)
	}
	for _, ss := range oc.rt.shards {
		if ss.spill != nil && ss.spill.f != nil {
			ss.spill.f.Close()
			ss.spill.f = nil
		}
	}
}

func (oc *oocState) closeInboxReader(i int) {
	if w := &oc.inbox[i]; w.seg != nil {
		w.seg.Close()
		w.seg = nil
		w.lo, w.hi = 0, 0
	}
}

// inboxMsgs streams vertex messages [start, start+mlen) of shard i's
// current inbox region file. The returned slice aliases the shard's
// window and is valid until the shard's next inbox read; programs may
// mutate it (it is scratch, exactly like the in-core arena slice).
func (oc *oocState) inboxMsgs(i int, start, mlen int32) []float64 {
	if mlen == 0 {
		return nil
	}
	w := &oc.inbox[i]
	if w.seg == nil {
		seg, err := govern.OpenSegment(oc.inboxPath(oc.inSet, i))
		if err != nil {
			oc.fail(err)
			return nil
		}
		w.seg = seg
		w.lo, w.hi = 0, 0
	}
	p := w.view(oc, (int64(start)-int64(oc.inBase[i]))*8, int64(mlen)*8)
	if p == nil {
		return nil
	}
	return viewOf[float64](p)
}

// region returns merge shard i's region buffer grown to n values and,
// for a combining superstep, the sender-machine scratch beside it,
// charging only capacity growth.
func (oc *oocState) region(i, n int, combined bool) ([]float64, []machineID) {
	r := oc.regions[i]
	if cap(r) < n {
		if !oc.charge(int64(n-cap(r)) * 8) {
			return nil, nil
		}
		r = make([]float64, n)
	}
	oc.regions[i] = r[:n]
	if !combined {
		return r[:n], nil
	}
	m := oc.regMach[i]
	if cap(m) < n {
		if !oc.charge(int64(n-cap(m)) * 2) {
			return nil, nil
		}
		m = make([]machineID, n)
	}
	oc.regMach[i] = m[:n]
	return r[:n], m[:n]
}

// writeRegion seals merge shard i's next inbox region to its segment
// file and records the region base for the next superstep's reads.
func (oc *oocState) writeRegion(i int, region []float64, base int32) {
	w, err := govern.CreateSegment(oc.inboxPath(1-oc.inSet, i), oc.lease)
	if err != nil {
		oc.fail(err)
		return
	}
	if len(region) > 0 {
		if _, err := w.Write(bytesOf(region)); err != nil {
			oc.fail(err)
			w.Finish()
			return
		}
	}
	if err := w.Finish(); err != nil {
		oc.fail(err)
		return
	}
	oc.nextBase[i] = base
}

// flip publishes the merged inbox set — the out-of-core half of
// deliver's arena swap.
func (oc *oocState) flip() {
	for i := range oc.inbox {
		oc.closeInboxReader(i)
	}
	oc.inBase, oc.nextBase = oc.nextBase, oc.inBase
	oc.inSet = 1 - oc.inSet
}

// saveInbox checkpoints the current inbox segment files (takeCheckpoint
// calls it where the in-core path copies the arena values).
func (oc *oocState) saveInbox() error {
	for i := range oc.inbox {
		cur := oc.inboxPath(oc.inSet, i)
		if _, err := os.Stat(cur); err != nil {
			os.Remove(oc.ckptPath(i))
			oc.ckptHas[i] = false
			continue
		}
		if err := govern.CopyFile(oc.ckptPath(i), cur); err != nil {
			return fmt.Errorf("bsp: checkpoint spill segment: %w", err)
		}
		oc.ckptHas[i] = true
	}
	copy(oc.ckptBase, oc.inBase)
	return nil
}

// restoreInbox rolls the spill state back to the last checkpoint: both
// live inbox sets are deleted (invalidating everything in flight), the
// checkpoint copies become set 0, and replay regenerates bucket spill
// files from scratch.
func (oc *oocState) restoreInbox() error {
	for i := range oc.inbox {
		oc.closeInboxReader(i)
		os.Remove(oc.inboxPath(0, i))
		os.Remove(oc.inboxPath(1, i))
		if oc.ckptHas[i] {
			if err := govern.CopyFile(oc.inboxPath(0, i), oc.ckptPath(i)); err != nil {
				return fmt.Errorf("bsp: restore spill segment: %w", err)
			}
		}
	}
	oc.inSet = 0
	copy(oc.inBase, oc.ckptBase)
	return nil
}

// winReader is a verified sliding window over a segment: view returns
// in-window payload bytes, refilling (and growing, charged) on miss.
// Windows start page-aligned, so 8-aligned payload offsets stay
// 8-aligned in the buffer.
type winReader struct {
	seg    *govern.SegmentReader
	buf    []byte
	lo, hi int64
}

func (w *winReader) view(oc *oocState, off, n int64) []byte {
	if off >= w.lo && off+n <= w.hi {
		return w.buf[off-w.lo : off-w.lo+n]
	}
	lo := off - off%govern.PageBytes
	if need := int(off + n - lo); need > len(w.buf) {
		sz := (need + govern.PageBytes - 1) / govern.PageBytes * govern.PageBytes
		if !oc.charge(int64(sz - len(w.buf))) {
			return nil
		}
		w.buf = govern.AlignedBytes(sz)
	}
	got, err := w.seg.ReadPages(w.buf, int(lo/govern.PageBytes))
	if err != nil {
		oc.fail(err)
		return nil
	}
	w.lo, w.hi = lo, lo+int64(got)
	if off+n > w.hi {
		oc.fail(fmt.Errorf("bsp: spill read [%d,%d) past segment end %d", off, off+n, w.hi))
		return nil
	}
	return w.buf[off-w.lo : off-w.lo+n]
}

// edgeStream serves one vertex's neighbor list from a streamed edge
// segment; offsets stay resident. Vertices are visited in ascending
// order per shard, so reads are sequential.
type edgeStream struct {
	oc  *oocState
	off []int32
	win winReader
}

// neighbors returns v's adjacency list. The slice aliases the shard's
// window and is valid until the shard's next neighbor fetch from the
// same stream.
func (es *edgeStream) neighbors(v graph.VertexID) []graph.VertexID {
	lo := int64(es.off[v]) * 4
	hi := int64(es.off[v+1]) * 4
	if hi == lo {
		return nil
	}
	p := es.win.view(es.oc, lo, hi-lo)
	if p == nil {
		return nil
	}
	return viewOf[graph.VertexID](p)
}

// chunkRef locates one spilled bucket chunk: count messages for a
// single destination shard, stored as [dst 4B×n][srcM 4B×n][val 8B×n]
// and guarded by a CRC-32C over the whole chunk.
type chunkRef struct {
	off   int64
	count int32
	crc   uint32
}

// bucketSpill is one compute shard's send-bucket spill file. Chunks are
// appended in flush order; the merge pass replays each destination's
// chunks in that order followed by the in-memory remainder, preserving
// the exact sequential message stream.
type bucketSpill struct {
	oc        *oocState
	shard     int
	path      string
	f         *os.File
	off       int64
	threshold int
	pending   int          // in-memory bucket bytes since the last flush
	chunks    [][]chunkRef // per destination shard
	counts    []int        // spilled messages per destination shard
}

// reset clears the per-superstep spill state; the file is overwritten
// in place from offset zero.
func (sp *bucketSpill) reset() {
	for d := range sp.chunks {
		sp.chunks[d] = sp.chunks[d][:0]
		sp.counts[d] = 0
	}
	sp.pending = 0
	sp.off = 0
}

// noteSend is the send-path hook: once the shard's in-memory buckets
// pass the threshold, flush them all.
func (sp *bucketSpill) noteSend(ss *shardState) {
	sp.pending += 16
	if sp.pending >= sp.threshold {
		sp.flush(ss)
	}
}

// flush spills every non-empty bucket of the shard as one chunk each
// and truncates the in-memory buffers.
func (sp *bucketSpill) flush(ss *shardState) {
	if sp.f == nil {
		f, err := os.OpenFile(sp.path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			sp.oc.fail(err)
			return
		}
		sp.f = f
	}
	for d := range ss.out {
		b := &ss.out[d]
		n := len(b.dst)
		if n == 0 {
			continue
		}
		dstB := bytesOf(b.dst)
		srcB := bytesOf(b.srcM)
		valB := bytesOf(b.val)
		crc := crc32.Update(0, oocCRC, dstB)
		crc = crc32.Update(crc, oocCRC, srcB)
		crc = crc32.Update(crc, oocCRC, valB)
		start := sp.off
		ok := sp.writeAt(dstB, start) &&
			sp.writeAt(srcB, start+int64(4*n)) &&
			sp.writeAt(valB, start+int64(8*n))
		if !ok {
			return
		}
		sp.off += int64(16 * n)
		sp.chunks[d] = append(sp.chunks[d], chunkRef{off: start, count: int32(n), crc: crc})
		sp.counts[d] += n
		sp.oc.lease.AddSpill(int64(16 * n))
		b.dst, b.srcM, b.val = b.dst[:0], b.srcM[:0], b.val[:0]
	}
	sp.pending = 0
}

func (sp *bucketSpill) writeAt(p []byte, off int64) bool {
	if _, err := sp.f.WriteAt(p, off); err != nil {
		sp.oc.fail(err)
		return false
	}
	return true
}

// readChunk reads and verifies one spilled chunk into merge shard
// mergeIdx's scratch buffer and returns aliased views of its columns.
func (sp *bucketSpill) readChunk(mergeIdx int, ref chunkRef) (dst []graph.VertexID, srcM []int32, val []float64, ok bool) {
	oc := sp.oc
	n := int(ref.count)
	size := 16 * n
	buf := oc.chunkBuf[mergeIdx]
	if len(buf) < size {
		if !oc.charge(int64(size - len(buf))) {
			return nil, nil, nil, false
		}
		buf = govern.AlignedBytes(size)
		oc.chunkBuf[mergeIdx] = buf
	}
	if _, err := sp.f.ReadAt(buf[:size], ref.off); err != nil {
		oc.fail(fmt.Errorf("bsp: spill chunk read: %w", err))
		return nil, nil, nil, false
	}
	if got := crc32.Checksum(buf[:size], oocCRC); got != ref.crc {
		oc.fail(fmt.Errorf("bsp: spill chunk at %d checksum mismatch (corrupt spill)", ref.off))
		return nil, nil, nil, false
	}
	return viewOf[graph.VertexID](buf[:4*n]), viewOf[int32](buf[4*n : 8*n]), viewOf[float64](buf[8*n : 16*n]), true
}

// Unsafe aliased views between typed slices and their raw bytes. All
// spill I/O stays on one host, so native byte order is fine; alignment
// holds because buffers come from govern.AlignedBytes and every typed
// view starts at an offset that is a multiple of its element size.

func bytesOf[T ~int32 | float64](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(&s[0])), len(s)*int(unsafe.Sizeof(s[0])))
}

func viewOf[T ~int32 | float64](p []byte) []T {
	if len(p) == 0 {
		return nil
	}
	var zero T
	return unsafe.Slice((*T)(unsafe.Pointer(&p[0])), len(p)/int(unsafe.Sizeof(zero)))
}
