package wal

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"multilogvc/internal/ssd"
)

func testDev(t *testing.T) *ssd.Device {
	t.Helper()
	return ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2})
}

func mustOpen(t *testing.T, dev *ssd.Device, name string, opts Options) (*Log, []Record) {
	t.Helper()
	l, recs, err := Open(dev, name, opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l, recs
}

func addRec(src, dst uint32) Record { return Record{Op: OpAdd, Src: src, Dst: dst, W: 1} }

// TestAppendReplayRoundtrip pins the core durability loop: appended
// records come back from replay in order, with the sequence numbers
// Append reported, across several append batches and a reopen.
func TestAppendReplayRoundtrip(t *testing.T) {
	dev := testDev(t)
	l, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != 0 {
		t.Fatalf("fresh log replayed %d records", len(recs))
	}
	var want []Record
	for b := 0; b < 5; b++ {
		batch := make([]Record, b+1)
		for i := range batch {
			batch[i] = addRec(uint32(b), uint32(i))
		}
		first, last, err := l.Append(batch)
		if err != nil {
			t.Fatalf("append: %v", err)
		}
		if int(last-first)+1 != len(batch) {
			t.Fatalf("batch %d: seq span [%d,%d] for %d records", b, first, last, len(batch))
		}
		want = append(want, batch...)
	}
	// Abandon without Close — a kill -9 analogue; everything Append
	// acknowledged must already be durable.
	l2, got := mustOpen(t, dev, "g.wal", Options{})
	defer l2.Close()
	if len(got) != len(want) {
		t.Fatalf("replayed %d of %d records", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("record %d: got %+v want %+v", i, got[i], want[i])
		}
		if got[i].Seq != uint64(i+1) {
			t.Fatalf("record %d: seq %d", i, got[i].Seq)
		}
	}
	// New appends continue the sequence.
	first, _, err := l2.Append([]Record{addRec(9, 9)})
	if err != nil || first != uint64(len(want))+1 {
		t.Fatalf("post-replay append: first=%d err=%v", first, err)
	}
}

// TestGroupCommitCoalesces drives concurrent appends through one flush
// window and checks they share device writes: far fewer flushes than
// appends, and every record durable afterwards.
func TestGroupCommitCoalesces(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{FlushEvery: 2 * time.Millisecond})
	const n = 16
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, _, errs[i] = l.Append([]Record{addRec(uint32(i), 1)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	st := l.Stats()
	if st.Appends != n {
		t.Fatalf("appends=%d want %d", st.Appends, n)
	}
	if st.Flushes >= n {
		t.Fatalf("group commit did not coalesce: %d flushes for %d appends", st.Flushes, n)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	_, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != n {
		t.Fatalf("replayed %d of %d", len(recs), n)
	}
}

// TestTornTailTruncated simulates a crash mid group-commit: garbage
// bytes after the valid prefix. Replay must accept exactly the prefix,
// report the tear, and physically truncate it so a second replay is
// clean.
func TestTornTailTruncated(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{})
	for i := 0; i < 3; i++ {
		if _, _, err := l.Append([]Record{addRec(uint32(i), 2)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	// Scribble a half-written frame past the durable end.
	f, err := dev.OpenFile("g.wal")
	if err != nil {
		t.Fatal(err)
	}
	sz := f.Size()
	ps := dev.PageSize()
	page := make([]byte, ps)
	if f.NumPages() > 0 {
		if err := f.ReadPageRange(f.NumPages()-1, 1, page); err != nil {
			t.Fatal(err)
		}
	}
	off := int(sz) % ps
	copy(page[off:], []byte{0xE7, OpAdd, 0xDE, 0xAD}) // torn frame start
	if err := f.WritePageRange(f.NumPages()-1, page); err != nil {
		t.Fatal(err)
	}
	f.SetSize(sz + 4)

	l2, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if st := l2.Stats(); st.TornTails != 1 {
		t.Fatalf("torn tails=%d want 1", st.TornTails)
	}
	// The tear is gone from the device: a third open sees a clean log.
	l3, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != 3 {
		t.Fatalf("second replay: %d records", len(recs))
	}
	if st := l3.Stats(); st.TornTails != 0 {
		t.Fatalf("tear persisted: torn tails=%d", st.TornTails)
	}
}

// TestReplayCorruptPage pins that a frame sitting on a page the device
// reports corrupt surfaces as an open error (classified, never silently
// skipped mid-stream).
func TestReplayCorruptPage(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{})
	recs := make([]Record, 40) // spans several 128-byte pages
	for i := range recs {
		recs[i] = addRec(uint32(i), 3)
	}
	if _, _, err := l.Append(recs); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := dev.CorruptStoredPage("g.wal", 0); err != nil {
		t.Fatal(err)
	}
	_, _, err := Open(dev, "g.wal", Options{})
	if !errors.Is(err, ssd.ErrCorruptPage) {
		t.Fatalf("open over corrupt page: %v", err)
	}
}

// TestTruncateThrough checkpoints a prefix and verifies the survivors
// are compacted in place and replay intact.
func TestTruncateThrough(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{})
	for i := 0; i < 10; i++ {
		if _, _, err := l.Append([]Record{addRec(uint32(i), 4)}); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	if err := l.TruncateThrough(7); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if st := l.Stats(); st.Truncates != 1 {
		t.Fatalf("truncates=%d", st.Truncates)
	}
	// Idempotent: nothing at or below 7 remains.
	if err := l.TruncateThrough(7); err != nil {
		t.Fatalf("re-truncate: %v", err)
	}
	_, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	for i, r := range recs {
		if r.Seq != uint64(8+i) {
			t.Fatalf("survivor %d: seq %d", i, r.Seq)
		}
	}
}

// TestFlushFailureIsSticky pins the no-gaps rule: once a group commit
// fails, the log acknowledges nothing further until reopened — a later
// flush succeeding would otherwise make an unacknowledged hole durable.
func TestFlushFailureIsSticky(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{})
	if _, _, err := l.Append([]Record{addRec(1, 1)}); err != nil {
		t.Fatalf("append: %v", err)
	}
	dev.SetFaults(ssd.FaultPlan{Crash: true})
	if _, _, err := l.Append([]Record{addRec(2, 2)}); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("append over failing device: %v", err)
	}
	dev.SetFaults(ssd.FaultPlan{}) // heal the device; the log must stay down
	if _, _, err := l.Append([]Record{addRec(3, 3)}); !errors.Is(err, ssd.ErrInjected) {
		t.Fatalf("sticky failure not sticky: %v", err)
	}
	if l.Err() == nil {
		t.Fatal("Err() nil after failed flush")
	}
	// Reopen recovers: the acknowledged prefix is there, appends resume.
	l2, recs := mustOpen(t, dev, "g.wal", Options{})
	if len(recs) != 1 {
		t.Fatalf("replayed %d records, want 1", len(recs))
	}
	if _, _, err := l2.Append([]Record{addRec(4, 4)}); err != nil {
		t.Fatalf("post-reopen append: %v", err)
	}
}

// TestAppendAfterClose pins ErrClosed.
func TestAppendAfterClose(t *testing.T) {
	dev := testDev(t)
	l, _ := mustOpen(t, dev, "g.wal", Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := l.Append([]Record{addRec(1, 1)}); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close: %v", err)
	}
}

// TestDecodeFramesSeqDiscontinuity pins that replay stops at a sequence
// gap even when the frames themselves checksum clean (a stale frame
// surviving from a previous log generation).
func TestDecodeFramesSeqDiscontinuity(t *testing.T) {
	var b []byte
	b = appendFrame(b, Record{Op: OpAdd, Src: 1, Dst: 2, Seq: 5})
	b = appendFrame(b, Record{Op: OpAdd, Src: 3, Dst: 4, Seq: 6})
	b = appendFrame(b, Record{Op: OpAdd, Src: 5, Dst: 6, Seq: 9}) // gap
	recs, consumed, torn := DecodeFrames(b)
	if len(recs) != 2 || consumed != 2*FrameSize || !torn {
		t.Fatalf("recs=%d consumed=%d torn=%v", len(recs), consumed, torn)
	}
}

// FuzzWALDecode throws arbitrary byte streams at the frame decoder. The
// invariants: never panic, consumed <= len(buf) and a multiple of the
// frame size, every accepted record re-encodes to exactly the consumed
// prefix (so replay-then-rewrite is lossless), and sequence numbers are
// contiguous.
func FuzzWALDecode(f *testing.F) {
	var good []byte
	for i := uint64(1); i <= 3; i++ {
		good = appendFrame(good, Record{Op: OpAdd, Src: uint32(i), Dst: uint32(i + 1), W: 7, Seq: i})
	}
	f.Add(good)
	f.Add(append(append([]byte{}, good...), 0xE7, 0x01, 0xFF)) // torn tail
	f.Add(make([]byte, 256))                                   // zero padding only
	f.Add([]byte{frameMagic})
	f.Fuzz(func(t *testing.T, buf []byte) {
		recs, consumed, torn := DecodeFrames(buf)
		if consumed > len(buf) || consumed%FrameSize != 0 {
			t.Fatalf("consumed=%d len=%d", consumed, len(buf))
		}
		if len(recs)*FrameSize != consumed {
			t.Fatalf("%d records but %d bytes consumed", len(recs), consumed)
		}
		var re []byte
		for i, r := range recs {
			if r.Op != OpAdd && r.Op != OpDel {
				t.Fatalf("record %d: invalid op %d", i, r.Op)
			}
			if i > 0 && r.Seq != recs[i-1].Seq+1 {
				t.Fatalf("record %d: seq %d after %d", i, r.Seq, recs[i-1].Seq)
			}
			re = appendFrame(re, r)
		}
		if string(re) != string(buf[:consumed]) {
			t.Fatal("accepted prefix does not re-encode identically")
		}
		if !torn {
			for _, b := range buf[consumed:] {
				if b != 0 {
					t.Fatal("nonzero tail not reported torn")
				}
			}
		}
		_ = fmt.Sprintf("%v", recs) // records must be printable garbage-free
	})
}
