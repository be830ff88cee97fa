package ssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// File is a named extent of pages on a Device.
//
// A File has two size notions: NumPages, the number of allocated pages, and
// Size, the logical byte length written through Append/Writer. Page-level
// methods (ReadPage, WritePage) address whole pages; byte-level helpers
// (ReadAt, Append) translate to covering page operations and charge the
// device accordingly.
//
// Files are safe for concurrent use.
//
// A *File is a cheap handle: the mutable state (pages, size, counters)
// lives in a shared fileState, so Scoped can mint per-run views that
// differ only in IO attribution while every handle sees the same data.
type File struct {
	dev      *Device
	id       uint32 // device-assigned, identifies this file's pages in the cache
	name     string
	chanBase uint32
	scope    *IOScope // attribution scope; nil = device-global tag

	s *fileState
}

// fileState is the shared mutable state behind every handle of one file.
type fileState struct {
	mu    sync.Mutex
	store store
	size  int64 // logical bytes (append stream length)

	pagesRead    atomic.Uint64
	pagesWritten atomic.Uint64
	corrupt      atomic.Uint64 // checksum failures detected on this file
	readOnce     atomic.Bool   // see File.SetReadOnce
}

// SetReadOnce declares the file a stream: written, read once and truncated,
// as message-log generations and sort spill runs are. No page of it ever
// takes a cache frame — reads, write-through and Truncate go straight to the
// store and charge the device as they would with no cache attached. Call it
// where the file is created, before its first IO; the property is the file's,
// so every Scoped handle agrees.
func (f *File) SetReadOnce() { f.s.readOnce.Store(true) }

// cache returns the page cache this file's IO goes through, nil for none.
func (f *File) cache() PageCache {
	if f.s.readOnce.Load() {
		return nil
	}
	return f.dev.cache
}

// ErrShortBuffer is returned when a destination buffer is not page-sized.
var ErrShortBuffer = errors.New("ssd: buffer is not a whole page")

// ErrOutOfRange is returned for page indices outside the file.
var ErrOutOfRange = errors.New("ssd: page index out of range")

// Name returns the file's name on the device.
func (f *File) Name() string { return f.name }

// ID returns the device-assigned file ID used as the cache namespace.
func (f *File) ID() uint32 { return f.id }

// PageSize returns the page size of the device the file lives on.
func (f *File) PageSize() int { return f.dev.cfg.PageSize }

// NumPages returns the number of allocated pages.
func (f *File) NumPages() int {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return f.s.store.numPages()
}

// Size returns the logical byte length of the append stream.
func (f *File) Size() int64 {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return f.s.size
}

// SetSize overrides the logical byte length. It is used when re-opening
// files whose length is recorded in external metadata.
func (f *File) SetSize(n int64) {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	f.s.size = n
}

// ReadPage reads page idx into buf, which must be exactly one page long.
// It charges one page read to the device.
func (f *File) ReadPage(idx int, buf []byte) error {
	if len(buf) != f.dev.cfg.PageSize {
		return ErrShortBuffer
	}
	c := f.cache()
	if c != nil {
		if c.Get(f.id, idx, buf) {
			f.dev.noteCache(1, 0, f.scope)
			return nil
		}
		f.dev.noteCache(0, 1, f.scope)
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	if idx < 0 || idx >= f.s.store.numPages() {
		f.s.mu.Unlock()
		return fmt.Errorf("%w: page %d of %q (%d pages)", ErrOutOfRange, idx, f.name, f.s.store.numPages())
	}
	err := f.readPageLocked(idx, buf)
	f.s.mu.Unlock()
	if err != nil {
		return err
	}
	f.s.pagesRead.Add(1)
	f.dev.chargeRead(1, 1, f.scope)
	if c != nil {
		c.Put(f.id, idx, buf, false)
	}
	return nil
}

// ReadPages reads the listed pages into dst, which must be
// len(pages)×PageSize bytes. The pages are submitted as one batch: the
// virtual clock advances by the busiest channel's queue depth, modelling
// asynchronous kernel IO over multiple flash channels.
func (f *File) ReadPages(pages []int, dst []byte) error {
	ps := f.dev.cfg.PageSize
	if len(dst) != len(pages)*ps {
		return ErrShortBuffer
	}
	if len(pages) == 0 {
		return nil
	}
	if f.cache() != nil {
		return f.readPagesCached(pages, dst)
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	for i, p := range pages {
		if p < 0 || p >= np {
			f.s.mu.Unlock()
			return fmt.Errorf("%w: page %d of %q (%d pages)", ErrOutOfRange, p, f.name, np)
		}
		if err := f.readPageLocked(p, dst[i*ps:(i+1)*ps]); err != nil {
			f.s.mu.Unlock()
			return err
		}
	}
	f.s.mu.Unlock()
	f.s.pagesRead.Add(uint64(len(pages)))
	f.dev.chargeRead(len(pages), maxPerChannel(f.chanBase, f.dev.cfg.Channels, pages), f.scope)
	return nil
}

// ReadPageRange reads the contiguous pages [start, start+n) into dst as a
// single batch.
func (f *File) ReadPageRange(start, n int, dst []byte) error {
	ps := f.dev.cfg.PageSize
	if len(dst) != n*ps {
		return ErrShortBuffer
	}
	if n == 0 {
		return nil
	}
	if f.cache() != nil {
		pages := make([]int, n)
		for i := range pages {
			pages[i] = start + i
		}
		return f.readPagesCached(pages, dst)
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	if start < 0 || start+n > np {
		f.s.mu.Unlock()
		return fmt.Errorf("%w: pages [%d,%d) of %q (%d pages)", ErrOutOfRange, start, start+n, f.name, np)
	}
	for i := 0; i < n; i++ {
		if err := f.readPageLocked(start+i, dst[i*ps:(i+1)*ps]); err != nil {
			f.s.mu.Unlock()
			return err
		}
	}
	f.s.mu.Unlock()
	f.s.pagesRead.Add(uint64(n))
	f.dev.chargeRead(n, maxPerChannelRange(n, f.dev.cfg.Channels), f.scope)
	return nil
}

// WritePage writes one page at idx. idx may be at most NumPages, in which
// case the file grows by one page. data must be exactly one page.
func (f *File) WritePage(idx int, data []byte) error {
	if len(data) != f.dev.cfg.PageSize {
		return ErrShortBuffer
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	if idx < 0 || idx > np {
		f.s.mu.Unlock()
		return fmt.Errorf("%w: write page %d of %q (%d pages)", ErrOutOfRange, idx, f.name, np)
	}
	grow := 0
	if idx == np {
		grow = 1
	}
	if err := f.dev.reserveGrow(grow); err != nil {
		f.s.mu.Unlock()
		return err
	}
	err := f.writePageLocked(idx, data)
	if err != nil {
		unused := grow - (f.s.store.numPages() - np)
		f.s.mu.Unlock()
		f.dev.freePages(unused)
		return err
	}
	f.s.mu.Unlock()
	f.s.pagesWritten.Add(1)
	f.dev.chargeWrite(1, 1, f.scope)
	if c := f.cache(); c != nil {
		c.Write(f.id, idx, data)
	}
	return nil
}

// WritePageRange writes contiguous pages starting at start as one batch.
// The range may extend the file.
func (f *File) WritePageRange(start int, data []byte) error {
	ps := f.dev.cfg.PageSize
	if len(data)%ps != 0 {
		return ErrShortBuffer
	}
	n := len(data) / ps
	if n == 0 {
		return nil
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	if start < 0 || start > np {
		f.s.mu.Unlock()
		return fmt.Errorf("%w: write pages at %d of %q (%d pages)", ErrOutOfRange, start, f.name, np)
	}
	grow := start + n - np
	if err := f.dev.reserveGrow(grow); err != nil {
		f.s.mu.Unlock()
		return err
	}
	for i := 0; i < n; i++ {
		if err := f.writePageLocked(start+i, data[i*ps:(i+1)*ps]); err != nil {
			unused := grow - (f.s.store.numPages() - np)
			f.s.mu.Unlock()
			f.dev.freePages(unused)
			return err
		}
	}
	f.s.mu.Unlock()
	f.s.pagesWritten.Add(uint64(n))
	f.dev.chargeWrite(n, maxPerChannelRange(n, f.dev.cfg.Channels), f.scope)
	if c := f.cache(); c != nil {
		for i := 0; i < n; i++ {
			c.Write(f.id, start+i, data[i*ps:(i+1)*ps])
		}
	}
	return nil
}

// AppendPage appends one page to the file and returns its index.
func (f *File) AppendPage(data []byte) (int, error) {
	if len(data) != f.dev.cfg.PageSize {
		return 0, ErrShortBuffer
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return 0, err
	}
	f.s.mu.Lock()
	idx := f.s.store.numPages()
	if err := f.dev.reserveGrow(1); err != nil {
		f.s.mu.Unlock()
		return 0, err
	}
	err := f.writePageLocked(idx, data)
	if err == nil {
		f.s.size = int64(idx+1) * int64(f.dev.cfg.PageSize)
	}
	if err != nil {
		unused := 1 - (f.s.store.numPages() - idx)
		f.s.mu.Unlock()
		f.dev.freePages(unused)
		return 0, err
	}
	f.s.mu.Unlock()
	f.s.pagesWritten.Add(1)
	f.dev.chargeWrite(1, 1, f.scope)
	if c := f.cache(); c != nil {
		c.Write(f.id, idx, data)
	}
	return idx, nil
}

// AppendPages appends len(data)/PageSize pages as one batch and updates
// the logical size. data must be a whole number of pages.
func (f *File) AppendPages(data []byte) error {
	ps := f.dev.cfg.PageSize
	if len(data)%ps != 0 {
		return ErrShortBuffer
	}
	n := len(data) / ps
	if n == 0 {
		return nil
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	start := f.s.store.numPages()
	if err := f.dev.reserveGrow(n); err != nil {
		f.s.mu.Unlock()
		return err
	}
	for i := 0; i < n; i++ {
		if err := f.writePageLocked(start+i, data[i*ps:(i+1)*ps]); err != nil {
			unused := n - (f.s.store.numPages() - start)
			f.s.mu.Unlock()
			f.dev.freePages(unused)
			return err
		}
	}
	f.s.size = int64(start+n) * int64(ps)
	f.s.mu.Unlock()
	f.s.pagesWritten.Add(uint64(n))
	f.dev.chargeWrite(n, maxPerChannelRange(n, f.dev.cfg.Channels), f.scope)
	if c := f.cache(); c != nil {
		for i := 0; i < n; i++ {
			c.Write(f.id, start+i, data[i*ps:(i+1)*ps])
		}
	}
	return nil
}

// Truncate discards all pages and resets the logical size to zero. Used to
// recycle log files between supersteps.
func (f *File) Truncate() error {
	f.s.mu.Lock()
	np := f.s.store.numPages()
	err := f.s.store.truncate(0)
	f.s.size = 0
	f.s.mu.Unlock()
	if err == nil {
		f.dev.freePages(np)
	}
	if c := f.cache(); c != nil {
		c.InvalidateFile(f.id, np)
	}
	if err != nil {
		return err
	}
	f.dev.mu.Lock()
	f.dev.stats.FileTruncates++
	f.dev.mu.Unlock()
	return nil
}

// ReadAt reads len(buf) bytes starting at byte offset off, reading the
// covering pages as one batch. Bytes past the last allocated page are an
// error; bytes past Size but within allocated pages read as written.
func (f *File) ReadAt(buf []byte, off int64) error {
	if len(buf) == 0 {
		return nil
	}
	ps := int64(f.dev.cfg.PageSize)
	start := int(off / ps)
	end := int((off + int64(len(buf)) - 1) / ps)
	n := end - start + 1
	tmp := make([]byte, n*int(ps))
	if err := f.ReadPageRange(start, n, tmp); err != nil {
		return err
	}
	copy(buf, tmp[off-int64(start)*ps:])
	return nil
}

// pageCount returns the number of pages covering n logical bytes.
func pageCount(n int64, pageSize int) int {
	return int((n + int64(pageSize) - 1) / int64(pageSize))
}

// DataPages returns the number of pages covering the logical size.
func (f *File) DataPages() int {
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	return pageCount(f.s.size, f.dev.cfg.PageSize)
}
