// Package mlog implements the multi-log update unit of §V-A: one message
// log per destination vertex interval, with page-sized in-memory top
// buffers and batched eviction to the device.
//
// Every update sent between vertices is appended as a 12-byte
// <dst, src, data> record to the log of the destination's interval. Because
// each interval's worst-case incoming volume was bounded at partition time,
// the whole log of one interval fits the engine's sort budget in the next
// superstep — the property that lets MultiLogVC sort in memory and avoid
// GraFBoost's external sort.
//
// The engine owns two Logs (current and next generation) and swaps them at
// superstep boundaries, mirroring the double-buffered message flow of BSP.
package mlog

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"

	"multilogvc/internal/extsort"
	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
	"multilogvc/internal/vc"
)

// RecordBytes is the on-device size of one logged update, encoded by
// extsort.PutRecord.
const RecordBytes = extsort.RecordBytes

// readBatch is how many pages Read and ReadRecs fetch per device read.
const readBatch = 64

// pageHeader is the per-page record-count prefix. It lets a log be read
// back even when partially filled pages were flushed mid-superstep, which
// the asynchronous computation model (§V-F) needs.
const pageHeader = 4

// Log is one generation of the multi-log: one append-only log file per
// vertex interval. It has one writer role — the engine's send drain, on the
// run goroutine — and one mutex, for what crosses goroutines: ReclaimConsumed
// is a device reclaimer, called from whichever goroutine's write hit the disk
// quota (another run's, or this log's own eviction re-entering through the
// device). So mu guards every field below it, never across a device write.
//
// The buffers a record crosses on its way through the Log are recycled, not
// reallocated (see Buffers).
type Log struct {
	dev      *ssd.Device
	prefix   string
	pageSize int
	budget   int64 // multi-log memory buffer size (paper's A%)

	mu       sync.Mutex
	files    []*ssd.File // created lazily
	top      []topPage   // top (partial) page per interval
	full     [][][]byte  // completed pages awaiting eviction
	count    []uint64    // records per interval
	buffered int64       // bytes held in completed (evictable) pages
	// consumed marks intervals whose records were fully processed this
	// superstep; ReclaimConsumed (the device's space-reclamation hook)
	// truncates their logs early instead of waiting for the generation
	// swap.
	consumed []bool

	bufs *Buffers // shared with the run's other generation

	tr *obsv.Trace // nil = tracing disabled
}

// topPage is an interval's partial page: fill bytes of page are in use, the
// header's room included. The fill is kept beside the slice, not as its
// length, so that logging a record stores no pointer.
type topPage struct {
	page []byte // nil until the interval's next record arrives
	fill int
}

// Device returns the device handle hosting the log files, and so the
// IOScope their IO is charged to; Prefix the file-name prefix. The spill
// path (internal/sortgroup) externally sorts an oversized interval onto
// the same handle under a derived prefix.
func (l *Log) Device() *ssd.Device { return l.dev }

// Prefix returns the log's device file-name prefix.
func (l *Log) Prefix() string { return l.prefix }

// SetTracer attaches a span tracer; evictions and flushes emit spans on
// it. A nil tracer (the default) disables tracing.
func (l *Log) SetTracer(tr *obsv.Trace) { l.tr = tr }

// New creates a Log with one interval log per interval. prefix names the
// device files ("<prefix>.<interval>"). budget is the in-memory buffer
// size in bytes before completed pages are evicted to the device; it is
// floored at one page per interval, matching the paper's requirement that
// at least one log buffer page exists per interval.
func New(dev *ssd.Device, prefix string, numIntervals int, budget int64) (*Log, error) {
	return NewWith(dev, prefix, numIntervals, budget, &Buffers{})
}

// NewWith is New drawing on bufs: fresh ones, or the buffers an earlier Log
// of the caller's recycled, kept so that this one allocates none of them
// afresh.
func NewWith(dev *ssd.Device, prefix string, numIntervals int, budget int64, bufs *Buffers) (*Log, error) {
	if numIntervals <= 0 {
		return nil, fmt.Errorf("mlog: numIntervals %d invalid", numIntervals)
	}
	ps := dev.PageSize()
	if ps < pageHeader+RecordBytes {
		return nil, fmt.Errorf("mlog: page size %d smaller than record", ps)
	}
	return &Log{
		dev:      dev,
		prefix:   prefix,
		pageSize: ps,
		budget:   max(budget, int64(numIntervals)*int64(ps)),
		files:    make([]*ssd.File, numIntervals),
		top:      make([]topPage, numIntervals),
		full:     make([][][]byte, numIntervals),
		count:    make([]uint64, numIntervals),
		consumed: make([]bool, numIntervals),
		bufs:     bufs,
	}, nil
}

// NewGeneration returns the Log's other generation: an empty Log under
// another file-name prefix with the same device handle, intervals, budget
// and tracer, drawing on the same recycled buffers — so the two Logs of a run
// hold one generation's worth of page buffers between them, not one each.
func (l *Log) NewGeneration(prefix string) *Log {
	n := l.NumIntervals()
	return &Log{
		dev: l.dev, prefix: prefix, pageSize: l.pageSize, budget: l.budget,
		files:    make([]*ssd.File, n),
		top:      make([]topPage, n),
		full:     make([][][]byte, n),
		count:    make([]uint64, n),
		consumed: make([]bool, n),
		bufs:     l.bufs, tr: l.tr,
	}
}

// NumIntervals returns the number of interval logs.
func (l *Log) NumIntervals() int { return len(l.count) }

// Budget returns the in-memory buffer size in bytes, after New's floor.
func (l *Log) Budget() int64 { return l.budget }

// Append logs the update <dst, src, data> to interval's log. Once the
// completed pages outgrow the budget it evicts them all, so the order of
// Appends alone decides which one evicts, and what. It is the one-record,
// goroutine-safe form of AppendRecs.
func (l *Log) Append(interval int, dst, src, data uint32) error {
	l.mu.Lock()
	over := l.put(interval, vc.Msg{Dst: dst, Src: src, Data: data})
	l.mu.Unlock()
	if over {
		return l.evictFull()
	}
	return nil
}

// AppendRecs logs recs[i] to interval ivs[i]'s log, in order, under one hold
// of the lock. It evicts at exactly the records where Append, called once per
// record, would have — the lock is dropped around each eviction, as a device
// write may re-enter ReclaimConsumed — so the two leave the same pages on the
// device after the same device writes. It returns how many records it logged:
// all of them, or those up to and including the one whose eviction failed.
func (l *Log) AppendRecs(ivs []int32, recs []vc.Msg) (int, error) {
	l.mu.Lock()
	for i, r := range recs {
		if l.put(int(ivs[i]), r) {
			l.mu.Unlock()
			if err := l.evictFull(); err != nil {
				return i + 1, err
			}
			l.mu.Lock()
		}
	}
	l.mu.Unlock()
	return len(recs), nil
}

// put appends r to interval iv's top page, under mu, and reports whether
// that completed a page which took the completed pages past the budget: the
// caller then owes an evictFull, outside mu.
func (l *Log) put(iv int, r vc.Msg) bool {
	t := &l.top[iv]
	if t.page == nil {
		t.page, t.fill = l.bufs.page(l.pageSize), pageHeader
	}
	extsort.PutRecord(t.page[t.fill:], r)
	t.fill += RecordBytes
	l.count[iv]++
	if t.fill+RecordBytes <= l.pageSize {
		return false
	}
	l.full[iv] = append(l.full[iv], t.page[:t.fill])
	t.page = nil
	l.buffered += int64(l.pageSize)
	return l.buffered > l.budget
}

// evictFull writes every completed page to its interval's file, batching
// the pages of each interval into a single device write.
func (l *Log) evictFull() error {
	// Tid 2 keeps log-unit spans off the engine's stage timeline: callers
	// other than the engine may Append concurrently, and their evictions
	// would overlap and break the engine track's strict nesting.
	sp := l.tr.BeginTid("mlog", "evict", 2)
	defer sp.End()
	return l.flushEach(false)
}

func (l *Log) flushEach(top bool) error {
	for iv := range l.count {
		if err := l.flush(iv, top); err != nil {
			return err
		}
	}
	return nil
}

// flush writes interval iv's completed pages — and, with top set, its
// partial top page — to the interval's file as one device write. The pages
// leave the Log under mu; sealing them into the staging buffer and the write
// itself run outside it, the write because one that hits the disk quota calls
// back into ReclaimConsumed.
func (l *Log) flush(iv int, top bool) error {
	l.mu.Lock()
	pages := l.full[iv]
	l.full[iv] = nil
	l.buffered -= int64(len(pages) * l.pageSize)
	if t := &l.top[iv]; top && t.page != nil {
		pages = append(pages, t.page[:t.fill])
		t.page = nil
	}
	l.mu.Unlock()
	if len(pages) == 0 {
		return nil
	}
	buf := l.bufs.takeStage(len(pages) * l.pageSize)
	defer l.bufs.putStage(buf, readBatch*l.pageSize)
	for i, page := range pages {
		sealPage(buf[i*l.pageSize:(i+1)*l.pageSize], page)
	}
	l.bufs.putPages(pages...)
	f, err := l.file(iv)
	if err != nil {
		return err
	}
	return f.AppendPages(buf)
}

// file returns interval iv's log file, creating it on first use — under mu,
// so two flushes cannot both find a surviving file and truncate each other's
// pages. Neither OpenOrCreate nor Truncate reserves space, so neither
// re-enters the reclaimer.
func (l *Log) file(iv int) (*ssd.File, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.files[iv] == nil {
		f, err := l.dev.OpenOrCreate(fmt.Sprintf("%s.%d", l.prefix, iv))
		if err != nil {
			return nil, err
		}
		f.SetReadOnce() // every page is read by one sort-and-group load, then truncated
		// A fresh Log generation must start empty even when the device
		// file survives from an earlier run.
		if f.NumPages() > 0 {
			if err := f.Truncate(); err != nil {
				return nil, err
			}
		}
		l.files[iv] = f
	}
	return l.files[iv], nil
}

// FlushAll evicts every completed page and the partial top pages so the
// whole generation is readable from the device. Called at the end of a
// superstep, before the generation swap.
func (l *Log) FlushAll() error {
	sp := l.tr.BeginTid("mlog", "flush-all", 2)
	sp.Arg("records", int64(l.Total()))
	defer sp.End()
	if err := l.evictFull(); err != nil {
		return err
	}
	return l.flushEach(true)
}

// sealPage writes page — a header's room plus the records logged so far —
// to dst, one device page long, as it goes to the device: the record count in
// the header, the records, and zeroes after them.
func sealPage(dst, page []byte) {
	clear(dst[copy(dst, page):])
	binary.LittleEndian.PutUint32(dst, uint32((len(page)-pageHeader)/RecordBytes))
}

// Count returns the number of records logged to interval's log this
// generation — the counter the runtime uses to estimate log sizes for
// interval fusing (§V-A2).
func (l *Log) Count(interval int) uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.count[interval]
}

// Total returns the number of records logged across all intervals.
func (l *Log) Total() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total uint64
	for _, c := range l.count {
		total += c
	}
	return total
}

// Read streams interval's log from the device in record order, flushing
// the interval's in-memory buffers first so mid-superstep reads (the
// asynchronous model) see every appended record. Pages are read in batches,
// so a log dispersed over the channels loads at full bandwidth (§V-A3). Each
// page's record count comes from its header.
func (l *Log) Read(interval int, fn func(dst, src, data uint32)) error {
	return l.readPages(interval, func(enc []byte) {
		for ; len(enc) >= RecordBytes; enc = enc[RecordBytes:] {
			r := extsort.GetRecord(enc)
			fn(r.Dst, r.Src, r.Data)
		}
	})
}

// ReadRecs is Read for a caller that wants the records side by side: it
// appends interval's records to recs, in log order, and returns the extended
// slice. It issues the same device reads as Read.
func (l *Log) ReadRecs(interval int, recs []vc.Msg) ([]vc.Msg, error) {
	err := l.readPages(interval, func(enc []byte) { recs = appendRecords(recs, enc) })
	return recs, err
}

// readPages flushes interval's buffers, then reads its log file readBatch
// pages at a time and hands visit each page's record bytes, in log order.
func (l *Log) readPages(interval int, visit func(recs []byte)) error {
	if err := l.flush(interval, true); err != nil {
		return err
	}
	l.mu.Lock()
	remaining := l.count[interval]
	f := l.files[interval]
	l.mu.Unlock()
	if remaining == 0 || f == nil {
		return nil
	}
	ps, total := l.pageSize, f.DataPages()
	buf := l.bufs.takeStage(min(readBatch, total) * ps)
	defer l.bufs.putStage(buf, readBatch*ps)
	for start := 0; remaining > 0; {
		n := min(readBatch, total-start)
		if n <= 0 {
			return fmt.Errorf("mlog: read interval %d: %d records missing: %w", interval, remaining, io.ErrUnexpectedEOF)
		}
		if err := f.ReadPageRange(start, n, buf[:n*ps]); err != nil {
			return fmt.Errorf("mlog: read interval %d: %w", interval, err)
		}
		start += n
		for page := buf[:n*ps]; len(page) > 0 && remaining > 0; page = page[ps:] {
			recs, err := pageRecords(page[:ps], remaining)
			if err != nil {
				return fmt.Errorf("mlog: interval %d: %w", interval, err)
			}
			visit(recs)
			remaining -= uint64(len(recs) / RecordBytes)
		}
	}
	return nil
}

// pageRecords returns the record bytes of one sealed log page. The header's
// record count is validated against both the page's record capacity and the
// remaining record budget before any record is touched, so a corrupt or
// truncated page surfaces as an error — never an out-of-range panic.
func pageRecords(page []byte, remaining uint64) ([]byte, error) {
	if len(page) < pageHeader+RecordBytes {
		return nil, fmt.Errorf("page of %d bytes is shorter than header plus one record", len(page))
	}
	capacity := uint64((len(page) - pageHeader) / RecordBytes)
	inPage := uint64(binary.LittleEndian.Uint32(page))
	if inPage > capacity {
		return nil, fmt.Errorf("page header claims %d records, page holds at most %d", inPage, capacity)
	}
	if inPage > remaining {
		return nil, fmt.Errorf("page holds %d records, %d expected", inPage, remaining)
	}
	return page[pageHeader : pageHeader+int(inPage)*RecordBytes], nil
}

// appendRecords decodes a whole number of encoded records onto recs.
func appendRecords(recs []vc.Msg, enc []byte) []vc.Msg {
	for ; len(enc) >= RecordBytes; enc = enc[RecordBytes:] {
		recs = append(recs, extsort.GetRecord(enc))
	}
	return recs
}

// Buffers recycles what a record crosses on its way through a Log: written-
// out pages become top pages again, one staging buffer carries pages to and
// from the device, and the record buffers of closed sort batches wait for the
// next one. The two generations of a run share one (NewGeneration), and a
// host that runs one run after another may hand them to the next (NewWith).
// What they hold is bounded by the Logs drawing on them: the pages buffered
// at once (a generation takes appends up to the budget, one more page and a
// top page per interval; only the asynchronous model appends to both), at
// most readBatch pages of staging, and maxFreeRecs record buffers of one sort
// batch each. mu is a leaf: it is taken under Log.mu, never the other way
// round.
type Buffers struct {
	mu    sync.Mutex
	pages [][]byte   // log pages whose content reached the device
	stage []byte     // while neither flush nor Read holds it; at most readBatch pages
	recs  [][]vc.Msg // at most maxFreeRecs
}

// maxFreeRecs bounds the record buffers kept: a sort batch holds two at a
// time, its records and the sort's scratch.
const maxFreeRecs = 2

// page returns a log page of size bytes, recycled if there is one.
func (b *Buffers) page(size int) []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	if n := len(b.pages); n > 0 && cap(b.pages[n-1]) >= size {
		page := b.pages[n-1][:size]
		b.pages = b.pages[:n-1]
		return page
	}
	return make([]byte, size)
}

func (b *Buffers) putPages(pages ...[]byte) {
	b.mu.Lock()
	b.pages = append(b.pages, pages...)
	b.mu.Unlock()
}

// takeStage takes the staging buffer, n bytes long, out of b; putStage gives
// it back, unless it is longer than keep — an outsized flush allocates its
// own. Two flushes can overlap — Append is goroutine-safe — and then the
// second allocates too.
func (b *Buffers) takeStage(n int) []byte {
	b.mu.Lock()
	buf := b.stage
	b.stage = nil
	b.mu.Unlock()
	if cap(buf) < n {
		buf = make([]byte, n)
	}
	return buf[:n]
}

func (b *Buffers) putStage(buf []byte, keep int) {
	b.mu.Lock()
	if cap(buf) <= keep && cap(buf) > cap(b.stage) {
		b.stage = buf
	}
	b.mu.Unlock()
}

// Bytes returns the memory the buffers hold for the next Log to draw on.
func (b *Buffers) Bytes() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	n := cap(b.stage)
	for _, p := range b.pages {
		n += cap(p)
	}
	for _, r := range b.recs {
		n += RecordBytes * cap(r)
	}
	return n
}

// GetRecs returns an empty record buffer with room for n records: one that
// PutRecs returned if it is large enough, a new one otherwise. The buffer is
// the caller's alone until PutRecs.
func (l *Log) GetRecs(n int) []vc.Msg {
	b := l.bufs
	b.mu.Lock()
	var buf []vc.Msg
	if k := len(b.recs); k > 0 {
		buf, b.recs = b.recs[k-1], b.recs[:k-1]
	}
	b.mu.Unlock()
	if cap(buf) < n {
		buf = make([]vc.Msg, 0, n)
	}
	return buf[:0]
}

// PutRecs hands a buffer from GetRecs — possibly regrown since — back for
// reuse; the caller must not touch it afterwards.
func (l *Log) PutRecs(buf []vc.Msg) {
	b := l.bufs
	b.mu.Lock()
	if len(b.recs) < maxFreeRecs && cap(buf) > 0 {
		b.recs = append(b.recs, buf)
	}
	b.mu.Unlock()
}

// MarkConsumed records that intervals [first, last] have been fully
// processed this superstep: their records were delivered and will never be
// re-read from this generation (the next read happens after ResetAll).
// ReclaimConsumed may truncate their logs to free device space.
func (l *Log) MarkConsumed(first, last int) {
	l.mu.Lock()
	for iv := max(first, 0); iv <= last && iv < len(l.consumed); iv++ {
		l.consumed[iv] = true
	}
	l.mu.Unlock()
}

// ReclaimConsumed truncates the log files of every consumed interval and
// drops their buffers and counters, freeing device pages. It is the
// multi-log's space-reclamation hook (ssd.Device.AddReclaimer): safe to
// call from any goroutine, including mid-write on another file, and
// idempotent — each consumed interval is reclaimed once. It must not run
// concurrently with Append, Read or Flush of the same intervals; the engine
// only marks intervals consumed after it is done reading them.
func (l *Log) ReclaimConsumed() error {
	return l.reset(func(iv int) bool { return l.consumed[iv] })
}

// ResetAll truncates every interval log and zeroes the counters, readying
// the generation for reuse.
func (l *Log) ResetAll() error {
	return l.reset(func(int) bool { return true })
}

// reset empties every interval pick selects — buffers, record count, consumed
// mark and log file — all under mu. The file too: a reclaimer runs on
// whichever goroutine's write hit the quota, in a daemon another query's, and
// a truncation left for after the unlock could land once the owner's ResetAll
// had returned and the reused generation had flushed new pages to that file.
// Truncate reserves no space, so it does not re-enter the reclaimer (see file).
func (l *Log) reset(pick func(iv int) bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	for iv := range l.count {
		if !pick(iv) {
			continue
		}
		l.buffered -= int64(len(l.full[iv]) * l.pageSize)
		l.bufs.putPages(l.full[iv]...)
		if page := l.top[iv].page; page != nil {
			l.bufs.putPages(page)
		}
		l.top[iv].page, l.full[iv], l.count[iv], l.consumed[iv] = nil, nil, 0, false
		if f := l.files[iv]; f != nil && f.NumPages() > 0 {
			if err := f.Truncate(); err != nil {
				return err
			}
		}
	}
	return nil
}
