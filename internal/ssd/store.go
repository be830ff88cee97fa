package ssd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
)

// store is the backing for a file's pages. Implementations are not
// concurrency-safe; File serializes access.
//
// Alongside page data every store keeps a per-page CRC32C sidecar region,
// written by setCRC on each page program and consulted by getCRC on each
// read. The sidecar is separate from the page payload so page geometry and
// existing offsets are unchanged; pages adopted from files written before
// checksumming existed simply have no recorded CRC and read unverified.
type store interface {
	readPage(idx int, buf []byte) error
	writePage(idx int, data []byte) error // idx == numPages() extends
	setCRC(idx int, crc uint32) error
	getCRC(idx int) (uint32, bool)
	numPages() int
	truncate(pages int) error
	// remove releases the store for good: RAM pages go back to the pool,
	// a disk file and its sidecar are closed and unlinked.
	remove() error
}

// crcSidecarSuffix names the on-disk checksum region of a disk-backed
// file. Sidecar files are store metadata, not device files: adoptDir
// skips them and they are invisible to ListFiles.
const crcSidecarSuffix = ".mlvc-crc"

// crcEntrySize is the sidecar record: little-endian uint32 CRC32C plus a
// uint32 valid marker (1 = recorded), so a zero CRC is distinguishable
// from a never-written slot in a sparse or pre-extended sidecar.
const crcEntrySize = 8

// pagePool is a RAM device's free list of pages: truncated and removed files
// feed it, growing files draw from it, so a run that recycles its log files
// every superstep allocates each page once instead of once per superstep. It
// only ever holds pages the device's files gave back, so the pages of a
// device, live plus free, never exceed the high-water its files reached — and
// at most poolMaxBytes of them: what a large removed file (a build's temporary
// files) gives back beyond that is left to the GC rather than kept for the
// device's whole life.
type pagePool struct {
	mu   sync.Mutex
	max  int // pages; set by the device from poolMaxBytes
	free [][]byte
}

// poolMaxBytes bounds a device's free list. It is several supersteps' worth
// of message-log pages at the sizes this repository runs, so the recycling the
// list exists for is unaffected.
const poolMaxBytes = 32 << 20

// get returns a free page — with its previous contents — or nil.
func (p *pagePool) get() []byte {
	p.mu.Lock()
	defer p.mu.Unlock()
	n := len(p.free)
	if n == 0 {
		return nil
	}
	page := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	return page
}

func (p *pagePool) put(pages [][]byte) {
	p.mu.Lock()
	if room := max(p.max-len(p.free), 0); len(pages) > room {
		pages = pages[:room]
	}
	p.free = append(p.free, pages...)
	p.mu.Unlock()
}

// memStore keeps pages in RAM, drawn from and returned to its device's pool.
type memStore struct {
	pageSize int
	pool     *pagePool
	pages    [][]byte
	crcs     []uint32
	known    []bool
}

func newMemStore(pageSize int, pool *pagePool) *memStore {
	return &memStore{pageSize: pageSize, pool: pool}
}

func (m *memStore) readPage(idx int, buf []byte) error {
	copy(buf, m.pages[idx])
	return nil
}

func (m *memStore) writePage(idx int, data []byte) error {
	if idx == len(m.pages) {
		p := m.pool.get()
		if p == nil {
			p = make([]byte, m.pageSize)
		}
		// A recycled page still holds another file's bytes: zero what a
		// short write leaves uncovered.
		clear(p[copy(p, data):])
		m.pages = append(m.pages, p)
		return nil
	}
	copy(m.pages[idx], data)
	return nil
}

func (m *memStore) setCRC(idx int, crc uint32) error {
	for len(m.crcs) <= idx {
		m.crcs = append(m.crcs, 0)
		m.known = append(m.known, false)
	}
	m.crcs[idx] = crc
	m.known[idx] = true
	return nil
}

func (m *memStore) getCRC(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(m.crcs) || !m.known[idx] {
		return 0, false
	}
	return m.crcs[idx], true
}

func (m *memStore) numPages() int { return len(m.pages) }

func (m *memStore) truncate(pages int) error {
	if pages < len(m.pages) {
		m.pool.put(m.pages[pages:])
		// Drop the pointers too: the pages now belong to the pool, and the
		// array behind the slice would otherwise keep handing them out.
		clear(m.pages[pages:])
		m.pages = m.pages[:pages]
	}
	if pages < len(m.crcs) {
		m.crcs = m.crcs[:pages]
		m.known = m.known[:pages]
	}
	return nil
}

func (m *memStore) remove() error {
	m.pool.put(m.pages)
	m.pages = nil
	m.crcs = nil
	m.known = nil
	return nil
}

// diskStore keeps pages in a real file, for the CLI tools. Checksums
// persist in a sidecar file next to the backing file so a later process
// (resume, scrub) can verify pages it did not write.
type diskStore struct {
	pageSize int
	path     string
	f        *os.File
	sc       *os.File // checksum sidecar
	npages   int
	crcs     []uint32
	known    []bool
}

func newDiskStore(dir, name string, pageSize int) (*diskStore, error) {
	path := filepath.Join(dir, sanitize(name))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, fmt.Errorf("ssd: mkdir for %q: %w", name, err)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ssd: open backing for %q: %w", name, err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, err
	}
	sc, err := os.OpenFile(path+crcSidecarSuffix, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ssd: open checksum sidecar for %q: %w", name, err)
	}
	d := &diskStore{pageSize: pageSize, path: path, f: f, sc: sc, npages: int(st.Size()) / pageSize}
	if err := d.loadSidecar(); err != nil {
		f.Close()
		sc.Close()
		return nil, fmt.Errorf("ssd: load checksum sidecar for %q: %w", name, err)
	}
	return d, nil
}

// loadSidecar reads the whole sidecar into memory. A short or missing
// sidecar (older process, partial write) leaves the tail unverified
// rather than failing the open.
func (d *diskStore) loadSidecar() error {
	st, err := d.sc.Stat()
	if err != nil {
		return err
	}
	n := int(st.Size()) / crcEntrySize
	if n == 0 {
		return nil
	}
	raw := make([]byte, n*crcEntrySize)
	if _, err := d.sc.ReadAt(raw, 0); err != nil {
		return err
	}
	d.crcs = make([]uint32, n)
	d.known = make([]bool, n)
	for i := 0; i < n; i++ {
		d.crcs[i] = binary.LittleEndian.Uint32(raw[i*crcEntrySize:])
		d.known[i] = binary.LittleEndian.Uint32(raw[i*crcEntrySize+4:]) == 1
	}
	return nil
}

func (d *diskStore) readPage(idx int, buf []byte) error {
	_, err := d.f.ReadAt(buf, int64(idx)*int64(d.pageSize))
	return err
}

func (d *diskStore) writePage(idx int, data []byte) error {
	if _, err := d.f.WriteAt(data, int64(idx)*int64(d.pageSize)); err != nil {
		return err
	}
	if idx >= d.npages {
		d.npages = idx + 1
	}
	return nil
}

func (d *diskStore) setCRC(idx int, crc uint32) error {
	for len(d.crcs) <= idx {
		d.crcs = append(d.crcs, 0)
		d.known = append(d.known, false)
	}
	d.crcs[idx] = crc
	d.known[idx] = true
	var rec [crcEntrySize]byte
	binary.LittleEndian.PutUint32(rec[:], crc)
	binary.LittleEndian.PutUint32(rec[4:], 1)
	_, err := d.sc.WriteAt(rec[:], int64(idx)*crcEntrySize)
	return err
}

func (d *diskStore) getCRC(idx int) (uint32, bool) {
	if idx < 0 || idx >= len(d.crcs) || !d.known[idx] {
		return 0, false
	}
	return d.crcs[idx], true
}

func (d *diskStore) numPages() int { return d.npages }

func (d *diskStore) truncate(pages int) error {
	if err := d.f.Truncate(int64(pages) * int64(d.pageSize)); err != nil {
		return err
	}
	if pages < d.npages {
		d.npages = pages
	}
	if pages < len(d.crcs) {
		d.crcs = d.crcs[:pages]
		d.known = d.known[:pages]
		if err := d.sc.Truncate(int64(pages) * crcEntrySize); err != nil {
			return err
		}
	}
	return nil
}

func (d *diskStore) remove() error {
	return errors.Join(d.f.Close(), d.sc.Close(),
		os.Remove(d.path), os.Remove(d.path+crcSidecarSuffix))
}

// sanitize maps a device file name to a filesystem-safe relative path.
func sanitize(name string) string {
	r := strings.NewReplacer("..", "_", ":", "_", "\\", "_")
	return r.Replace(name)
}

// isSidecar reports whether a directory entry is store metadata rather
// than a device file.
func isSidecar(name string) bool {
	return strings.HasSuffix(name, crcSidecarSuffix)
}
