package ssd

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"multilogvc/internal/pagecache"
)

// File is a named extent of pages on a Device.
//
// A File has two size notions: NumPages, the number of allocated pages, and
// Size, the logical byte length written through AppendPage(s) or a Writer.
// Every page read (ReadPage, ReadPages, ReadPageRange, ReadAt) is a call into
// one read body and every page write (WritePageRange, AppendPage,
// AppendPages) into one write body, so the fault gate, the range check, the
// checksums, the charge to the virtual clock and the cache step are each
// written once.
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
	scope    *IOScope // attribution scope; nil = device totals only

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
func (f *File) cache() *pagecache.Cache {
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
func (f *File) ReadPage(idx int, buf []byte) error {
	return f.read(batch{start: idx, n: 1}, buf)
}

// ReadPages reads the listed pages into dst, which must be
// len(pages)×PageSize bytes. The pages are submitted as one batch: the
// virtual clock advances by the busiest channel's queue depth, modelling
// asynchronous kernel IO over multiple flash channels.
func (f *File) ReadPages(pages []int, dst []byte) error {
	return f.read(batch{pages: pages, n: len(pages)}, dst)
}

// ReadPageRange reads the contiguous pages [start, start+n) into dst as a
// single batch.
func (f *File) ReadPageRange(start, n int, dst []byte) error {
	return f.read(batch{start: start, n: n}, dst)
}

// WritePageRange writes contiguous pages starting at start as one batch.
// The range may extend the file.
func (f *File) WritePageRange(start int, data []byte) error {
	_, err := f.write(start, data, false)
	return err
}

// AppendPage appends one page to the file and returns its index.
func (f *File) AppendPage(data []byte) (int, error) {
	if len(data) != f.dev.cfg.PageSize {
		return 0, ErrShortBuffer
	}
	return f.write(0, data, true)
}

// AppendPages appends len(data)/PageSize pages as one batch and updates
// the logical size. data must be a whole number of pages.
func (f *File) AppendPages(data []byte) error {
	_, err := f.write(0, data, true)
	return err
}

// batch is the pages of one read: the list pages or, when pages is nil, the
// contiguous range [start, start+n), which needs no list.
type batch struct {
	pages    []int
	start, n int
}

func (b batch) page(i int) int {
	if b.pages != nil {
		return b.pages[i]
	}
	return b.start + i
}

// depth is the queue depth of the batch's busiest channel on a file whose
// stripe base is chanBase. Contiguous pages stripe round-robin, so a range's
// busiest channel holds ceil(n/channels) pages, as maxPerChannel would find.
func (b batch) depth(chanBase uint32, channels int) int {
	if b.pages == nil {
		return idealDepth(b.n, channels)
	}
	return maxPerChannel(chanBase, channels, b.pages)
}

// missInline is how many missed pages of one cached read fit the stack-backed
// lists; a vertex batch reads a handful of pages per file.
const missInline = 32

// read is the one read body: page i of b lands in dst[i*ps:(i+1)*ps]. A
// cached file serves what the cache holds for free; the rest, the misses, pass
// the fault gate once, are range checked before any physical read, are read
// and verified from the store, are charged as one batch on their busiest
// channel, and enter the cache. A batch the cache serves entirely costs no
// device time, which is the win a buffer pool buys. Without a cache every
// page misses, which is the paper's device model byte for byte.
func (f *File) read(b batch, dst []byte) error {
	ps := f.dev.cfg.PageSize
	if len(dst) != b.n*ps {
		return ErrShortBuffer
	}
	if b.n == 0 {
		return nil
	}
	// The misses are all of b on an uncached file; on a cached one they are
	// the pages the cache did not hold, listed with their slots in dst (on
	// the stack up to missInline misses).
	miss, at := b, []int(nil)
	var missBuf, atBuf [missInline]int
	c := f.cache()
	if c != nil {
		pages := missBuf[:0]
		at = atBuf[:0]
		for i := 0; i < b.n; i++ {
			if p := b.page(i); !c.Get(f.id, p, dst[i*ps:(i+1)*ps]) {
				pages = append(pages, p)
				at = append(at, i)
			}
		}
		f.dev.noteCache(b.n-len(pages), len(pages), f.scope)
		if len(pages) == 0 {
			return nil
		}
		miss = batch{pages: pages, n: len(pages)}
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	for k := 0; k < miss.n; k++ {
		if p := miss.page(k); p < 0 || p >= np {
			f.s.mu.Unlock()
			return fmt.Errorf("%w: page %d of %q (%d pages)", ErrOutOfRange, p, f.name, np)
		}
	}
	for k := 0; k < miss.n; k++ {
		i := k
		if at != nil {
			i = at[k]
		}
		if err := f.readPageLocked(miss.page(k), dst[i*ps:(i+1)*ps]); err != nil {
			f.s.mu.Unlock()
			return err
		}
	}
	f.s.mu.Unlock()
	f.s.pagesRead.Add(uint64(miss.n))
	f.dev.chargeRead(miss.n, miss.depth(f.chanBase, f.dev.cfg.Channels), f.scope)
	for k, i := range at {
		c.Put(f.id, miss.pages[k], dst[i*ps:(i+1)*ps], false)
	}
	return nil
}

// write is the one write body: it programs data, a whole number of pages, at
// start, or past the last page when appending, and returns the first page's
// index. The file may grow, and every page it grows by is reserved against the
// device quota first. Appending also sets the logical size to the new end.
// Resident cached copies of the written pages are updated in place: a read's
// Put can land after a Truncate, past the page count InvalidateFile was given,
// so every page that grows a file must overwrite any such frame.
func (f *File) write(start int, data []byte, appending bool) (int, error) {
	ps := f.dev.cfg.PageSize
	if len(data)%ps != 0 {
		return 0, ErrShortBuffer
	}
	n := len(data) / ps
	if n == 0 {
		return 0, nil
	}
	if err := f.dev.opCheck(f.scope); err != nil {
		return 0, err
	}
	f.s.mu.Lock()
	np := f.s.store.numPages()
	if appending {
		start = np
	} else if start < 0 || start > np {
		f.s.mu.Unlock()
		return 0, fmt.Errorf("%w: write pages at %d of %q (%d pages)", ErrOutOfRange, start, f.name, np)
	}
	grow := start + n - np
	if err := f.dev.reserveGrow(grow, f.scope); err != nil {
		f.s.mu.Unlock()
		return 0, err
	}
	for i := 0; i < n; i++ {
		if err := f.writePageLocked(start+i, data[i*ps:(i+1)*ps]); err != nil {
			unused := grow - (f.s.store.numPages() - np)
			f.s.mu.Unlock()
			f.dev.freePages(unused)
			return 0, err
		}
	}
	if appending {
		f.s.size = int64(start+n) * int64(ps)
	}
	f.s.mu.Unlock()
	f.s.pagesWritten.Add(uint64(n))
	f.dev.chargeWrite(n, idealDepth(n, f.dev.cfg.Channels), f.scope)
	if c := f.cache(); c != nil {
		for i := 0; i < n; i++ {
			c.Write(f.id, start+i, data[i*ps:(i+1)*ps])
		}
	}
	return start, nil
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
