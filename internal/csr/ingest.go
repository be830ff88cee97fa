package csr

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"sync"
	"sync/atomic"
	"time"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/wal"
)

// The durable ingest plane. Three commitments, layered:
//
//  1. Durability (wal): with OpenIngest({WAL: true}), ApplyMutations
//     returns only after its mutations are framed in the write-ahead log,
//     so an acknowledged mutation survives kill -9. Crash recovery
//     replays the log into the delta overlay on the next OpenIngest.
//
//  2. Crash-atomic merges (shadow + manifest): folding the delta into
//     the CSR files rewrites every interval file plus the metadata — far
//     from atomic on its own. The merge instead writes the complete new
//     contents to a shadow file, then commits a checksummed manifest
//     (the redo record: segment sizes, new metadata, the folded WAL
//     sequence), then copies shadow segments over the primaries. A crash
//     anywhere replays cleanly: no manifest -> old state plus WAL replay;
//     valid manifest -> recovery re-runs the idempotent redo. The merge
//     doubles as the WAL's checkpoint — frames at or below the folded
//     sequence are truncated once the redo lands.
//
//  3. Snapshot isolation (epochs): every mutation carries a sequence
//     number; readers see exactly the ops at or below their epoch.
//     Graph.Snapshot pins the current epoch so a long query reads a
//     frozen graph while ingest acknowledges new mutations around it.
//     Merges defer while any snapshot is pinned (folding would collapse
//     the epochs a pinned reader still distinguishes).

// ErrIngestBackpressure is returned by ApplyMutations when accepting the
// batch would push the buffered delta past IngestOptions.MaxPending. The
// serving layer maps it to a structured 503 with Retry-After; callers
// should back off and let a merge (or snapshot release) drain the buffer.
var ErrIngestBackpressure = errors.New("csr: ingest backpressure: pending structural updates at cap")

// ErrVertexOutOfRange is returned by ApplyMutations/ApplyReplicated for a
// mutation naming a vertex at or past NumVertices — a client error (the
// serving layer maps it to a structured 400), until vertex-set growth
// extends the universe instead — and by OpenIngest for a WAL frame that
// does, which belongs to another graph's log.
var ErrVertexOutOfRange = errors.New("csr: vertex out of range")

// Mutation is one structural edge mutation for ApplyMutations.
type Mutation struct {
	Del    bool
	Src    uint32
	Dst    uint32
	Weight uint32 // adds on weighted graphs; ignored otherwise
}

// IngestOptions configures the ingest plane of a graph opened with
// OpenIngest (a graph from Open/Build gets a volatile ingest plane with
// zero-value options).
type IngestOptions struct {
	// WAL makes mutations durable: acknowledged means framed in the
	// write-ahead log, replayed on the next OpenIngest after a crash.
	WAL bool
	// FlushEvery is the WAL group-commit window (<= 0: synchronous
	// flush per mutation batch).
	FlushEvery time.Duration
	// MaxPending caps buffered delta side-entries (two per live
	// mutation); past it ApplyMutations fails with
	// ErrIngestBackpressure. 0 = unbounded (legacy behavior).
	MaxPending int
	// MergeThreshold is the default merge trigger for mutations arriving
	// with no explicit threshold. 0 = DefaultMergeThreshold.
	MergeThreshold int
}

// ingestState is the shared mutable half of a Graph. Graph values are
// copied freely (View, Snapshot), so everything guarded by a lock lives
// behind this pointer; the copies alias it.
type ingestState struct {
	// seqMu serializes mutation submission and merges: WAL appends from
	// concurrent batches would interleave frames out of sequence order
	// otherwise. Group commit still batches the device writes.
	seqMu sync.Mutex
	// mu guards deltas, pins, and epoch publication. Readers hold it
	// shared across a whole adjacency load so a merge (exclusive) can
	// never rewrite CSR pages under a half-assembled neighbor list.
	mu     sync.RWMutex
	deltas *DeltaSet
	// epoch is the highest published (readable) sequence number; under
	// seqMu it is also the last one assigned, the source of the next.
	epoch atomic.Uint64

	pins      map[uint64]int // pinned epoch -> snapshot count
	maxPinned uint64         // highest pinned epoch (0 when none)

	log  *wal.Log // nil in volatile mode
	opts IngestOptions
	// sc is the ingest plane's IO scope, tagged StageIngest: the WAL and
	// the merges of mutations submitted outside any run charge their IO
	// to it.
	sc *ssd.IOScope

	// failed is sticky: set when a merge redo or WAL checkpoint fails
	// past the commit point, leaving in-memory state ahead of what a
	// half-applied redo guarantees on the device. Reads and mutations
	// fail classified until the graph is reopened (which re-runs the
	// idempotent redo).
	failed error
}

func newIngestState() *ingestState {
	sc := ssd.NewScope()
	sc.SetStage(obsv.StageIngest, -1)
	return &ingestState{deltas: newDeltaSet(), pins: make(map[uint64]int), sc: sc}
}

func ingestWALName(name string) string      { return name + ".wal" }
func ingestManifestName(name string) string { return name + ".ingest.manifest" }
func ingestShadowName(name string) string   { return name + ".ingest.shadow" }

var ingestCRC = crc32.MakeTable(crc32.Castagnoli)

// ApplyMutations applies a batch of structural mutations: validated,
// numbered, framed in the WAL as one group commit (durable mode), inserted
// into the delta overlay, and published under a single new epoch. On
// return without error the whole batch is acknowledged — durable and
// visible to subsequent reads. On error none of it is acknowledged (frames
// may still be on the device; replay may surface them after a crash, which
// only ever adds unacknowledged suffix, never loses acknowledged state).
//
// mergeThreshold bounds the buffered delta: crossing it triggers the
// crash-atomic merge (0 uses IngestOptions.MergeThreshold, then
// DefaultMergeThreshold).
func (g *Graph) ApplyMutations(ms []Mutation, mergeThreshold int) error {
	recs := make([]wal.Record, len(ms))
	for i, m := range ms {
		recs[i] = wal.Record{Op: wal.OpAdd, Src: m.Src, Dst: m.Dst, W: m.Weight}
		if m.Del {
			recs[i].Op = wal.OpDel
		}
	}
	_, err := g.apply(recs, true, mergeThreshold)
	return err
}

// apply is the one way a batch enters the ingest plane, local or
// replicated. It validates the batch, then under seqMu numbers a local
// batch epoch+1… — or, for a replicated batch, drops the already-applied
// seqs and requires the rest to extend the epoch contiguously — applies
// backpressure, logs the batch (durable mode), publishes it, and merges
// once the buffered delta crosses the threshold. Under seqMu the epoch is
// always the WAL's last assigned seq, so local numbering writes the frames
// the log would have numbered itself. It returns how many records were
// newly applied; a merge failure after the publish still counts them.
func (g *Graph) apply(recs []wal.Record, local bool, mergeThreshold int) (int, error) {
	if len(recs) == 0 {
		return 0, nil
	}
	if err := g.validate(recs); err != nil {
		return 0, err
	}
	ing := g.ing
	if ing == nil {
		return 0, fmt.Errorf("csr: graph view is not mutable")
	}
	ing.seqMu.Lock()
	defer ing.seqMu.Unlock()
	if ing.failed != nil {
		return 0, ing.failed
	}
	applied := ing.epoch.Load()
	if !local {
		for len(recs) > 0 && recs[0].Seq <= applied {
			recs = recs[1:] // duplicate delivery: already applied, seq is identity
		}
	}
	for i := range recs {
		want := applied + 1 + uint64(i)
		if local {
			recs[i].Seq = want
		} else if recs[i].Seq != want {
			return 0, fmt.Errorf("%w: replicated batch has seq %d where seq %d extends applied seq %d",
				wal.ErrSeqGap, recs[i].Seq, want, applied)
		}
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if cap := ing.opts.MaxPending; cap > 0 && ing.deltas.ops+2*len(recs) > cap {
		return 0, fmt.Errorf("%w (pending %d + batch %d > cap %d)",
			ErrIngestBackpressure, ing.deltas.ops, 2*len(recs), cap)
	}
	if ing.log != nil {
		if err := ing.log.AppendAt(recs); err != nil { // blocks until durable
			return 0, err
		}
	}
	pending := ing.publish(recs)

	if mergeThreshold <= 0 {
		mergeThreshold = ing.opts.MergeThreshold
	}
	if mergeThreshold <= 0 {
		mergeThreshold = DefaultMergeThreshold
	}
	if pending >= mergeThreshold {
		return len(recs), g.mergeAllLocked()
	}
	return len(recs), nil
}

// validate rejects a batch naming a vertex outside the graph or carrying
// an opcode the delta overlay does not know.
func (g *Graph) validate(recs []wal.Record) error {
	n := g.meta.NumVertices
	for _, r := range recs {
		if r.Src >= n || r.Dst >= n {
			return fmt.Errorf("%w: mutation (%d,%d) outside [0,%d)", ErrVertexOutOfRange, r.Src, r.Dst, n)
		}
		if r.Op != wal.OpAdd && r.Op != wal.OpDel {
			return fmt.Errorf("%w: record with unknown opcode %d", wal.ErrBadShipFrame, r.Op)
		}
	}
	return nil
}

// publish inserts a numbered batch into the delta overlay and makes it
// readable under one new epoch, its last seq. It returns the buffered
// side-entry count after the insert.
func (ing *ingestState) publish(recs []wal.Record) int {
	ing.mu.Lock()
	defer ing.mu.Unlock()
	for _, r := range recs {
		ing.deltas.insert(r, ing.maxPinned)
	}
	ing.epoch.Store(recs[len(recs)-1].Seq)
	return ing.deltas.ops
}

// MergeInterval folds the buffered delta into the CSR files. The
// historical signature took one interval; the crash-atomic merge always
// folds the whole delta (the manifest commits all intervals at once), so
// iv is accepted and ignored.
func (g *Graph) MergeInterval(iv int) error {
	_ = iv
	ing := g.ing
	if ing == nil {
		return nil
	}
	ing.seqMu.Lock()
	defer ing.seqMu.Unlock()
	return g.mergeAllLocked()
}

// Epoch returns the epoch this graph value reads at: its pinned epoch
// for snapshot views, the latest published epoch otherwise.
func (g *Graph) Epoch() uint64 {
	if g.ing == nil {
		return 0
	}
	if g.pinned {
		return g.atEpoch
	}
	return g.ing.epoch.Load()
}

// Snapshot pins the current epoch and returns a frozen view: reads
// through Snapshot.Graph() see exactly the mutations published when the
// snapshot was taken, while ingest keeps acknowledging new ones. Release
// it — merges defer while any snapshot is pinned.
type Snapshot struct {
	base     *Graph
	view     *Graph
	epoch    uint64
	released atomic.Bool
}

// Snapshot pins the current epoch. See type Snapshot.
func (g *Graph) Snapshot() *Snapshot {
	ing := g.ing
	if ing == nil {
		return &Snapshot{base: g, view: g}
	}
	ing.mu.Lock()
	e := ing.epoch.Load()
	ing.pins[e]++
	if e > ing.maxPinned {
		ing.maxPinned = e
	}
	ing.mu.Unlock()
	v := *g
	v.atEpoch = e
	v.pinned = true
	return &Snapshot{base: g, view: &v, epoch: e}
}

// Graph returns the frozen view. It supports every read path (loads,
// engine runs via View, CurrentEdges) at the pinned epoch.
func (s *Snapshot) Graph() *Graph { return s.view }

// Epoch returns the pinned epoch.
func (s *Snapshot) Epoch() uint64 { return s.epoch }

// Release unpins the snapshot (idempotent). The view must not be read
// after Release: a subsequent merge may fold the epochs it depended on.
func (s *Snapshot) Release() {
	if s.released.Swap(true) {
		return
	}
	ing := s.base.ing
	if ing == nil {
		return
	}
	ing.mu.Lock()
	if n := ing.pins[s.epoch]; n <= 1 {
		delete(ing.pins, s.epoch)
	} else {
		ing.pins[s.epoch] = n - 1
	}
	ing.maxPinned = 0
	for e := range ing.pins {
		if e > ing.maxPinned {
			ing.maxPinned = e
		}
	}
	ing.mu.Unlock()
}

// IngestStats is a point-in-time snapshot of the ingest plane.
type IngestStats struct {
	Pending int    // buffered delta side-entries
	Epoch   uint64 // latest published epoch
	Merges  int    // delta merges completed
	Pins    int    // snapshots currently pinned
	Durable bool   // WAL-backed
	WAL     wal.Stats
}

// IngestStats reports the ingest plane's counters (zero-valued for a
// graph without one).
func (g *Graph) IngestStats() IngestStats {
	ing := g.ing
	if ing == nil {
		return IngestStats{}
	}
	ing.mu.RLock()
	st := IngestStats{
		Pending: ing.deltas.ops,
		Epoch:   ing.epoch.Load(),
		Merges:  ing.deltas.merges,
		Durable: ing.log != nil,
	}
	for _, c := range ing.pins {
		st.Pins += c
	}
	ing.mu.RUnlock()
	if ing.log != nil {
		st.WAL = ing.log.Stats()
	}
	return st
}

// CloseIngest flushes and closes the WAL (no-op for volatile graphs).
// Call on daemon drain so the last group-commit window lands.
func (g *Graph) CloseIngest() error {
	if g.ing == nil || g.ing.log == nil {
		return nil
	}
	return g.ing.log.Close()
}

// OpenIngest opens a graph for streaming ingest: it completes any
// interrupted merge (via Open's recovery), then — in durable mode —
// opens the WAL and replays surviving frames into the delta overlay, so
// every mutation acknowledged before a crash is visible again.
func OpenIngest(dev *ssd.Device, name string, opts IngestOptions) (*Graph, error) {
	g, err := Open(dev, name)
	if err != nil {
		return nil, err
	}
	g.ing.opts = opts
	if !opts.WAL {
		return g, nil
	}
	log, recs, err := wal.Open(dev.Scoped(g.ing.sc), ingestWALName(name), wal.Options{FlushEvery: opts.FlushEvery})
	if err != nil {
		return nil, err
	}
	g.ing.log = log
	// Floor the WAL's numbering at the merge checkpoint: frames 1..FoldedSeq
	// were truncated, and a restarted log must not re-issue their seqs.
	log.SetNextSeq(g.meta.FoldedSeq)
	if len(recs) > 0 {
		// Open's recovery already truncated frames a committed merge
		// folded, so everything surviving here is unmerged: replay it. A
		// frame outside the graph belongs to some other graph's log.
		if err := g.validate(recs); err != nil {
			return nil, fmt.Errorf("csr: replay %q: %w", ingestWALName(name), err)
		}
		g.ing.publish(recs)
	}
	return g, nil
}

// ---- crash-atomic merge -------------------------------------------------

// ingestManifest is the merge's redo record, committed (checksummed)
// after the shadow file holds the complete new CSR contents. Its
// presence and validity is THE commit point: everything after it —
// copying segments over the primaries, rewriting the meta, truncating
// the WAL — is idempotent redo that recovery re-runs from scratch.
type ingestManifest struct {
	FoldedSeq uint64  `json:"folded_seq"` // WAL frames <= this are folded in
	ShadowLen int64   `json:"shadow_len"`
	ShadowCRC uint32  `json:"shadow_crc"`
	Segments  []int64 `json:"segments"` // per-file byte lengths, traversal order
	Meta      *Meta   `json:"meta"`     // complete post-merge metadata
}

const ingestManifestMagic = "MLIM"

// mergeAllLocked folds the whole buffered delta into the CSR files under
// the shadow/manifest protocol. Caller holds ing.seqMu. Skipped (not an
// error) while the delta is empty or a snapshot is pinned.
func (g *Graph) mergeAllLocked() error {
	ing := g.ing
	ing.mu.Lock()
	defer ing.mu.Unlock()
	if ing.failed != nil {
		return ing.failed
	}
	if ing.deltas.ops == 0 {
		return nil
	}
	if len(ing.pins) > 0 {
		// A pinned snapshot still distinguishes epochs the fold would
		// collapse; defer to the next trigger after release. MaxPending
		// keeps deferral honest (backpressure instead of unbounded maps).
		return nil
	}
	// A fold is ingest-plane IO, tagged StageIngest on the scope of the
	// graph handle that triggered it: a run's, when the run's own mutations
	// fill the delta, the ingest plane's otherwise.
	if g.dev.Scope() == nil {
		g = g.View(ing.sc)
	}
	sc := g.dev.Scope()
	prevS, prevIv := sc.SetStage(obsv.StageIngest, -1)
	defer sc.SetStage(prevS, prevIv)

	foldedSeq := ing.epoch.Load()
	if err := g.writeShadowAndManifest(foldedSeq); err != nil {
		return err // manifest not committed; old state + WAL replay intact
	}
	// Commit point passed: from here every failure is sticky — in-memory
	// state can no longer be trusted to match a half-applied redo, and a
	// reopen re-runs the redo from the manifest.
	man, err := redoIngestManifest(g.dev, g.meta.Name)
	if err == nil && man == nil {
		err = fmt.Errorf("csr: merge manifest vanished before redo")
	}
	if err != nil {
		ing.failed = fmt.Errorf("csr: merge redo failed (reopen to recover): %w", err)
		return ing.failed
	}
	// Update only the fields a merge can change, under the exclusive
	// lock this function holds. Immutable fields (Name, NumVertices,
	// Intervals, HasWeights) stay byte-identical, so lock-free readers
	// of those never observe a write. Shared by every view via g.meta.
	g.meta.NumEdges = man.Meta.NumEdges
	for side := range 2 {
		for col := range numCols {
			*g.meta.sizes(side, col) = *man.Meta.sizes(side, col)
		}
	}
	g.meta.FoldedSeq = man.Meta.FoldedSeq
	if ing.log != nil {
		if err := ing.log.TruncateThrough(foldedSeq); err != nil {
			ing.failed = fmt.Errorf("csr: WAL checkpoint failed (reopen to recover): %w", err)
			return ing.failed
		}
	}
	if err := truncateDeviceFile(g.dev, ingestManifestName(g.meta.Name)); err != nil {
		ing.failed = fmt.Errorf("csr: merge manifest retire failed (reopen to recover): %w", err)
		return ing.failed
	}
	// A shadow without a manifest is inert; freeing it is best-effort.
	_ = truncateDeviceFile(g.dev, ingestShadowName(g.meta.Name))

	ing.deltas.clear()
	ing.deltas.merges++
	obsv.Live().IngestMerges.Add(1)
	return nil
}

// writeShadowAndManifest streams the merged graph at foldedSeq into the
// shadow file and then commits the manifest. It goes one interval side at a
// time, in the shadow's order: the side's lists are read through a raw (lock-
// and overlay-free) view — the caller holds ing.mu exclusively — the delta is
// applied explicitly, and each list is sorted and encoded, so the merge holds
// one interval side in memory. CRC32C accumulates over the whole stream. The
// previous manifest is invalidated first, so a crash while the shadow is
// half-written recovers to the pre-merge state.
func (g *Graph) writeShadowAndManifest(foldedSeq uint64) error {
	name := g.meta.Name
	if err := truncateDeviceFile(g.dev, ingestManifestName(name)); err != nil {
		return err
	}
	sf, err := g.dev.OpenOrCreate(ingestShadowName(name))
	if err != nil {
		return err
	}
	if err := sf.Truncate(); err != nil {
		return err
	}
	w := ssd.NewWriter(sf)
	var crc uint32
	var segs []int64

	newMeta := *g.meta
	newMeta.FoldedSeq, newMeta.NumEdges = foldedSeq, 0
	for side := range 2 {
		for col := range newMeta.cols() {
			*newMeta.sizes(side, col) = make([]int64, len(g.meta.Intervals))
		}
	}

	raw := *g
	raw.ing = nil
	var (
		a     Arena
		enc   encoder
		verts []uint32
		pairs []wpair
	)
	for iv, interval := range g.meta.Intervals {
		verts = verts[:0]
		for v := interval.Lo; v < interval.Hi; v++ {
			verts = append(verts, v)
		}
		for side := range uint8(2) {
			a.Reset(len(verts), g.meta.HasWeights)
			if _, err := raw.fill(side, iv, verts, nil, &a); err != nil {
				return err
			}
			enc.reset(g.meta.HasWeights)
			for i, v := range verts {
				nbrs, weights, _ := g.ing.deltas.apply(side, v, a.Edges(i), a.Weights(i), foldedSeq)
				pairs = pairs[:0]
				for j, nb := range nbrs {
					p := wpair{id: nb}
					if weights != nil {
						p.w = weights[j]
					}
					pairs = append(pairs, p)
				}
				sortPairs(pairs)
				enc.row()
				for _, p := range pairs {
					enc.edge(p.id, p.w)
				}
			}
			if side == 0 {
				newMeta.NumEdges += enc.edges
			}
			for col, b := range enc.finish() {
				crc = crc32.Update(crc, ingestCRC, b)
				if _, err := w.Write(b); err != nil {
					return err
				}
				segs = append(segs, int64(len(b)))
				(*newMeta.sizes(int(side), col))[iv] = int64(len(b))
			}
		}
	}
	if err := w.Close(); err != nil {
		return err
	}

	man := ingestManifest{
		FoldedSeq: foldedSeq,
		ShadowLen: w.Offset(),
		ShadowCRC: crc,
		Segments:  segs,
		Meta:      &newMeta,
	}
	return writeIngestManifest(g.dev, name, &man)
}

// redoIngestManifest performs the merge's redo if a valid manifest is
// present: verify the shadow, copy its segments over the primary CSR
// files, rewrite the meta. Idempotent — recovery and the in-process
// merge both run it, so the recovery path is exercised on every merge,
// not only after crashes. Returns (nil, nil) when there is no valid
// manifest (no interrupted merge).
func redoIngestManifest(dev *ssd.Device, name string) (*ingestManifest, error) {
	man, ok, err := readIngestManifest(dev, ingestManifestName(name))
	if err != nil || !ok {
		return nil, err
	}
	sf, err := dev.OpenFile(ingestShadowName(name))
	if err != nil {
		return nil, fmt.Errorf("csr: merge manifest without shadow: %w", err)
	}
	if man.ShadowLen < 0 || man.ShadowLen > sf.Size() {
		return nil, fmt.Errorf("csr: merge manifest of %q claims %d shadow bytes of %d", name, man.ShadowLen, sf.Size())
	}
	buf := make([]byte, man.ShadowLen)
	if err := sf.ReadAt(buf, 0); err != nil {
		return nil, fmt.Errorf("csr: merge shadow read: %w", err)
	}
	if crc32.Checksum(buf, ingestCRC) != man.ShadowCRC {
		return nil, fmt.Errorf("csr: merge shadow of %q failed checksum: %w", name, ssd.ErrCorruptPage)
	}
	var off int64
	si := 0
	for iv := range man.Meta.Intervals {
		for side := range 2 {
			for col := range man.Meta.cols() {
				if si >= len(man.Segments) {
					return nil, fmt.Errorf("csr: merge manifest of %q truncated segment list", name)
				}
				n := man.Segments[si]
				si++
				if n < 0 || off+n > man.ShadowLen {
					return nil, fmt.Errorf("csr: merge manifest of %q overruns shadow", name)
				}
				if err := rewriteDeviceFile(dev, fileName(name, side, col, iv), buf[off:off+n]); err != nil {
					return nil, err
				}
				off += n
			}
		}
	}
	if si != len(man.Segments) || off != man.ShadowLen {
		return nil, fmt.Errorf("csr: merge manifest of %q segment mismatch", name)
	}
	if err := writeMeta(dev, name, man.Meta); err != nil {
		return nil, err
	}
	return man, nil
}

// recoverIngest completes an interrupted merge: redo from the manifest,
// checkpoint the WAL through the folded sequence, then retire the
// manifest. Every step is idempotent; a crash inside recovery recovers.
// Called by Open so even non-ingest opens see crash-consistent state.
func recoverIngest(dev *ssd.Device, name string) error {
	man, err := redoIngestManifest(dev, name)
	if err != nil {
		return err
	}
	if man == nil {
		return nil
	}
	if dev.Exists(ingestWALName(name)) {
		l, _, err := wal.Open(dev, ingestWALName(name), wal.Options{})
		if err != nil {
			return err
		}
		if err := l.TruncateThrough(man.FoldedSeq); err != nil {
			return err
		}
		if err := l.Close(); err != nil {
			return err
		}
	}
	if err := truncateDeviceFile(dev, ingestManifestName(name)); err != nil {
		return err
	}
	_ = truncateDeviceFile(dev, ingestShadowName(name))
	return nil
}

// writeIngestManifest frames the manifest — magic, payload length,
// JSON payload, CRC32C over all prior bytes — and writes it as one
// page batch. The frame is self-validating: a torn or stale manifest
// fails the checksum and reads as "no manifest".
func writeIngestManifest(dev *ssd.Device, name string, man *ingestManifest) error {
	payload, err := json.Marshal(man)
	if err != nil {
		return err
	}
	frame := make([]byte, 0, len(ingestManifestMagic)+8+len(payload))
	frame = append(frame, ingestManifestMagic...)
	frame = binary.LittleEndian.AppendUint32(frame, uint32(len(payload)))
	frame = append(frame, payload...)
	frame = binary.LittleEndian.AppendUint32(frame, crc32.Checksum(frame, ingestCRC))
	return rewriteDeviceFile(dev, ingestManifestName(name), frame)
}

// readIngestManifest returns (manifest, true) when the named file holds
// a frame with a valid magic, length, and checksum; (nil, false) when
// the file is missing, empty, torn, or stale. Device read errors (a
// corrupt page under the frame) propagate.
func readIngestManifest(dev *ssd.Device, fn string) (*ingestManifest, bool, error) {
	if !dev.Exists(fn) {
		return nil, false, nil
	}
	f, err := dev.OpenFile(fn)
	if err != nil {
		return nil, false, nil
	}
	np := f.NumPages()
	if np == 0 {
		return nil, false, nil
	}
	buf := make([]byte, np*dev.PageSize())
	if err := f.ReadPageRange(0, np, buf); err != nil {
		return nil, false, fmt.Errorf("csr: merge manifest read: %w", err)
	}
	hdr := len(ingestManifestMagic) + 4
	if len(buf) < hdr+4 || string(buf[:len(ingestManifestMagic)]) != ingestManifestMagic {
		return nil, false, nil
	}
	plen := int(binary.LittleEndian.Uint32(buf[len(ingestManifestMagic):]))
	if plen < 0 || hdr+plen+4 > len(buf) {
		return nil, false, nil
	}
	want := binary.LittleEndian.Uint32(buf[hdr+plen:])
	if crc32.Checksum(buf[:hdr+plen], ingestCRC) != want {
		return nil, false, nil
	}
	var man ingestManifest
	if err := json.Unmarshal(buf[hdr:hdr+plen], &man); err != nil {
		return nil, false, nil
	}
	if man.Meta == nil {
		return nil, false, nil
	}
	return &man, true, nil
}

// rewriteDeviceFile replaces fn's contents with data (page-padded) and
// fixes its logical size.
func rewriteDeviceFile(dev *ssd.Device, fn string, data []byte) error {
	f, err := dev.OpenOrCreate(fn)
	if err != nil {
		return err
	}
	if err := f.Truncate(); err != nil {
		return err
	}
	if len(data) > 0 {
		ps := dev.PageSize()
		padded := (len(data) + ps - 1) / ps * ps
		buf := make([]byte, padded)
		copy(buf, data)
		if err := f.WritePageRange(0, buf); err != nil {
			return err
		}
	}
	f.SetSize(int64(len(data)))
	return nil
}

// truncateDeviceFile empties fn if it exists (creating nothing).
func truncateDeviceFile(dev *ssd.Device, fn string) error {
	if !dev.Exists(fn) {
		return nil
	}
	f, err := dev.OpenFile(fn)
	if err != nil {
		return nil
	}
	return f.Truncate()
}
