package ssd

import (
	"errors"
	"fmt"
	"hash/crc32"
	"strings"
)

// This file is the data-plane integrity layer: every page programmed
// through File records a CRC32C in the store's sidecar region, and every
// page that comes back from the store — demand reads and cache miss fills —
// is verified against it before any caller sees the bytes. A mismatch surfaces as ErrCorruptPage and the page never enters
// the page cache, so a corrupt page cannot be laundered into a clean hit.
//
// Corruption injection models silent flash corruption: a hit flips a bit
// in the *stored* page (sticky, like a failed cell) while leaving the
// recorded checksum stale, so the damage is detected on this read and on
// every later read until the page is rewritten.

// ErrCorruptPage is returned when a page's content does not match its
// recorded CRC32C. It models silent data corruption: retrying does not
// help (the stored bytes are wrong), so it is classified separately from
// ErrTransient/ErrRetriesExhausted — consumers decide whether the page is
// redundant (rebuild it) or vital (roll back or fail).
var ErrCorruptPage = errors.New("ssd: page checksum mismatch")

// castagnoli is the CRC32C polynomial table, the same checksum real
// storage stacks (iSCSI, ext4 metadata, Btrfs) use for data integrity.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// CorruptOps returns the number of physical page reads of files matching
// the armed plan's CorruptOnly filter since SetFaults armed it.
func (d *Device) CorruptOps() int64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.corrupt.ops
}

// corruptHit consumes one read credit for a physical page read of the
// named file and reports whether this read should come back corrupted.
func (d *Device) corruptHit(name string) bool {
	if !d.corruptArmed.Load() {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Contains(name, d.corruptOnly) && d.corrupt.hit()
}

// readPageLocked is the integrity-checked physical read: store read,
// corruption injection, then CRC verification. Every physical page read
// of File.read funnels through here. Caller holds f.s.mu.
func (f *File) readPageLocked(idx int, buf []byte) error {
	if err := f.s.store.readPage(idx, buf); err != nil {
		return err
	}
	d := f.dev
	if d.corruptHit(f.name) {
		// Sticky: flip a stored bit, leave the recorded CRC stale. The
		// damage survives cache invalidation and process restarts (on
		// disk-backed devices) until the page is rewritten.
		buf[len(buf)/2] ^= 0x40
		if err := f.s.store.writePage(idx, buf); err != nil {
			return err
		}
		d.account(f.scope, 0, func(s *Stats, _ *StageStats) { s.CorruptionsInjected++ })
	}
	want, ok := f.s.store.getCRC(idx)
	if !ok {
		return nil // adopted page with no recorded checksum: pass unverified
	}
	if crc32.Checksum(buf, castagnoli) != want {
		f.s.corrupt.Add(1)
		d.account(f.scope, 0, func(s *Stats, _ *StageStats) { s.CorruptPages++ })
		return fmt.Errorf("%w: page %d of %q", ErrCorruptPage, idx, f.name)
	}
	return nil
}

// writePageLocked is the integrity-maintaining physical write: store
// write plus sidecar CRC update. Caller holds f.s.mu.
func (f *File) writePageLocked(idx int, data []byte) error {
	if err := f.s.store.writePage(idx, data); err != nil {
		return err
	}
	return f.s.store.setCRC(idx, crc32.Checksum(data, castagnoli))
}

// CorruptStoredPage flips one bit in the stored copy of the named file's
// page, leaving the recorded checksum stale — a direct way for tests and
// the cross-process CI smoke to plant corruption without arming the
// injection machinery. No stats are charged and the page cache is not
// touched (a cached copy still serves clean data until evicted, exactly
// like a DRAM-resident page outliving its flash cell).
func (d *Device) CorruptStoredPage(name string, page int) error {
	d.mu.Lock()
	f, ok := d.files[name]
	d.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %q", ErrNotExist, name)
	}
	f.s.mu.Lock()
	defer f.s.mu.Unlock()
	if page < 0 || page >= f.s.store.numPages() {
		return fmt.Errorf("%w: page %d of %q (%d pages)", ErrOutOfRange, page, name, f.s.store.numPages())
	}
	buf := make([]byte, d.cfg.PageSize)
	if err := f.s.store.readPage(page, buf); err != nil {
		return err
	}
	buf[len(buf)/2] ^= 0x40
	return f.s.store.writePage(page, buf)
}
