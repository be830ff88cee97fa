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
	"sync"

	"multilogvc/internal/obsv"
	"multilogvc/internal/ssd"
)

// RecordBytes is the on-device size of one logged update.
const RecordBytes = 12

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
type Log struct {
	dev      *ssd.Device
	prefix   string
	pageSize int
	budget   int64 // multi-log memory buffer size (paper's A%)

	mu       sync.Mutex
	files    []*ssd.File // created lazily
	top      [][]byte    // top (partial) page per interval; its len is its fill
	full     [][][]byte  // completed pages awaiting eviction
	count    []uint64    // records per interval
	buffered int64       // bytes held in completed (evictable) pages
	// consumed marks intervals whose records were fully processed this
	// superstep; ReclaimConsumed (the device's space-reclamation hook)
	// truncates their logs early instead of waiting for the generation
	// swap.
	consumed []bool

	scope *ssd.IOScope // nil = device-global attribution
	tr    *obsv.Trace  // nil = tracing disabled
}

// Device returns the device hosting the log files; Prefix the file-name
// prefix. The spill path (internal/sortgroup) externally sorts an
// oversized interval onto the same device under a derived prefix.
func (l *Log) Device() *ssd.Device { return l.dev }

// Prefix returns the log's device file-name prefix.
func (l *Log) Prefix() string { return l.prefix }

// SetTracer attaches a span tracer; evictions and flushes emit spans on
// it. A nil tracer (the default) disables tracing.
func (l *Log) SetTracer(tr *obsv.Trace) { l.tr = tr }

// SetScope attributes the log's device IO to a per-run ssd.IOScope.
// Must be set before the first Append or Read — interval files are
// created lazily and adopt the scope at creation.
func (l *Log) SetScope(sc *ssd.IOScope) { l.scope = sc }

// Scope returns the log's IO attribution scope (nil = device-global).
func (l *Log) Scope() *ssd.IOScope { return l.scope }

// Tagger returns where readers of this log should set the ambient IO
// stage: the log's scope when one is attached, else the device.
func (l *Log) Tagger() ssd.Tagger {
	if l.scope != nil {
		return l.scope
	}
	return l.dev
}

// New creates a Log with one interval log per interval. prefix names the
// device files ("<prefix>.<interval>"). budget is the in-memory buffer
// size in bytes before completed pages are evicted to the device; it is
// floored at one page per interval, matching the paper's requirement that
// at least one log buffer page exists per interval.
func New(dev *ssd.Device, prefix string, numIntervals int, budget int64) (*Log, error) {
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
		top:      make([][]byte, numIntervals),
		full:     make([][][]byte, numIntervals),
		count:    make([]uint64, numIntervals),
		consumed: make([]bool, numIntervals),
	}, nil
}

// NumIntervals returns the number of interval logs.
func (l *Log) NumIntervals() int { return len(l.count) }

// Budget returns the in-memory buffer size in bytes, after New's floor.
func (l *Log) Budget() int64 { return l.budget }

// Append logs the update <dst, src, data> to interval's log. Once the
// completed pages outgrow the budget it evicts them all, so the order of
// Appends alone decides which one evicts, and what.
func (l *Log) Append(interval int, dst, src, data uint32) error {
	l.mu.Lock()
	page := l.top[interval]
	if page == nil {
		page = make([]byte, pageHeader, l.pageSize)
	}
	page = binary.LittleEndian.AppendUint32(page, dst)
	page = binary.LittleEndian.AppendUint32(page, src)
	page = binary.LittleEndian.AppendUint32(page, data)
	l.count[interval]++
	over := false
	if len(page)+RecordBytes > l.pageSize {
		sealPage(page, len(page))
		l.full[interval] = append(l.full[interval], page[:l.pageSize])
		page = nil
		l.buffered += int64(l.pageSize)
		over = l.buffered > l.budget
	}
	l.top[interval] = page
	l.mu.Unlock()
	if over {
		return l.evictFull()
	}
	return nil
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
// partial top page, sealed — to the interval's file as one device write.
// The pages leave the Log under mu; the write itself runs outside it,
// because a write that hits the disk quota calls back into ReclaimConsumed.
func (l *Log) flush(iv int, top bool) error {
	l.mu.Lock()
	pages := l.full[iv]
	l.full[iv] = nil
	l.buffered -= int64(len(pages) * l.pageSize)
	if page := l.top[iv]; top && page != nil {
		sealPage(page, len(page))
		pages = append(pages, page[:l.pageSize])
		l.top[iv] = nil
	}
	l.mu.Unlock()
	if len(pages) == 0 {
		return nil
	}
	f, err := l.file(iv)
	if err != nil {
		return err
	}
	buf := make([]byte, 0, len(pages)*l.pageSize)
	for _, p := range pages {
		buf = append(buf, p...)
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
		f = f.Scoped(l.scope)
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

// sealPage records the page's byte fill in its header.
func sealPage(page []byte, fill int) {
	binary.LittleEndian.PutUint32(page, uint32((fill-pageHeader)/RecordBytes))
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
// asynchronous model) see every appended record. Pages are read with the
// device's batched reader, so a log dispersed over the channels loads at
// full bandwidth (§V-A3). Each page's record count comes from its header.
func (l *Log) Read(interval int, fn func(dst, src, data uint32)) error {
	if err := l.flush(interval, true); err != nil {
		return err
	}
	l.mu.Lock()
	n := l.count[interval]
	f := l.files[interval]
	l.mu.Unlock()
	if n == 0 || f == nil {
		return nil
	}
	r := ssd.NewReader(f, 64)
	remaining := n
	var buf []byte
	for remaining > 0 {
		need := l.pageSize
		if cap(buf) < need {
			buf = make([]byte, need)
		}
		if err := r.ReadFull(buf[:need]); err != nil {
			return fmt.Errorf("mlog: read interval %d: %w", interval, err)
		}
		inPage, err := decodePage(buf[:need], remaining, fn)
		if err != nil {
			return fmt.Errorf("mlog: interval %d: %w", interval, err)
		}
		remaining -= inPage
	}
	return nil
}

// decodePage decodes one sealed log page, invoking fn per record, and
// returns the number of records consumed. The header's record count is
// validated against both the page's record capacity and the remaining
// record budget before any record is touched, so a corrupt or truncated
// page surfaces as an error — never an out-of-range panic.
func decodePage(page []byte, remaining uint64, fn func(dst, src, data uint32)) (uint64, error) {
	if len(page) < pageHeader+RecordBytes {
		return 0, fmt.Errorf("page of %d bytes is shorter than header plus one record", len(page))
	}
	capacity := uint64((len(page) - pageHeader) / RecordBytes)
	inPage := uint64(binary.LittleEndian.Uint32(page))
	if inPage > capacity {
		return 0, fmt.Errorf("page header claims %d records, page holds at most %d", inPage, capacity)
	}
	if inPage > remaining {
		return 0, fmt.Errorf("page holds %d records, %d expected", inPage, remaining)
	}
	for i := uint64(0); i < inPage; i++ {
		off := pageHeader + int(i)*RecordBytes
		fn(binary.LittleEndian.Uint32(page[off:]),
			binary.LittleEndian.Uint32(page[off+4:]),
			binary.LittleEndian.Uint32(page[off+8:]))
	}
	return inPage, nil
}

// FilePages returns interval iv's device-resident log file and its data
// page indices. The engine's prefetcher warms these while the previous
// batch computes; only pages already evicted to the device count, since
// in-memory buffers need no warming. Returns (nil, nil) when the interval
// has nothing on the device.
func (l *Log) FilePages(iv int) (*ssd.File, []int) {
	l.mu.Lock()
	f := l.files[iv]
	l.mu.Unlock()
	if f == nil {
		return nil, nil
	}
	n := f.DataPages()
	if n == 0 {
		return nil, nil
	}
	pages := make([]int, n)
	for i := range pages {
		pages[i] = i
	}
	return f, pages
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

// reset empties every interval pick (called under mu) selects: buffers,
// record count and consumed mark under the lock, then the log file outside
// it.
func (l *Log) reset(pick func(iv int) bool) error {
	l.mu.Lock()
	var files []*ssd.File
	for iv := range l.count {
		if !pick(iv) {
			continue
		}
		l.buffered -= int64(len(l.full[iv]) * l.pageSize)
		l.top[iv], l.full[iv], l.count[iv], l.consumed[iv] = nil, nil, 0, false
		if f := l.files[iv]; f != nil {
			files = append(files, f)
		}
	}
	l.mu.Unlock()
	for _, f := range files {
		if f.NumPages() > 0 {
			if err := f.Truncate(); err != nil {
				return err
			}
		}
	}
	return nil
}
