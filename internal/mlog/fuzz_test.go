package mlog

import (
	"encoding/binary"
	"testing"
)

// TestPageRecordsRejectsCorruptHeader pins the corrupt-header bounds: a
// header claiming more records than the page holds (the pre-fix panic),
// more than the log says remain, or a page too short for any record must
// all come back as errors, never touch a record, and never panic.
func TestPageRecordsRejectsCorruptHeader(t *testing.T) {
	const ps = 4 * RecordBytes // capacity after the header: 3 records
	mk := func(count uint32) []byte {
		page := make([]byte, ps)
		binary.LittleEndian.PutUint32(page, count)
		return page
	}
	if recs, err := pageRecords(mk(4), 100); err == nil || recs != nil {
		t.Fatalf("over-capacity header: err=%v recs=%d bytes", err, len(recs))
	}
	if recs, err := pageRecords(mk(1<<31), 100); err == nil || recs != nil {
		t.Fatalf("huge header: err=%v recs=%d bytes", err, len(recs))
	}
	if recs, err := pageRecords(mk(3), 2); err == nil || recs != nil {
		t.Fatalf("over-remaining header: err=%v recs=%d bytes", err, len(recs))
	}
	if _, err := pageRecords(make([]byte, pageHeader), 1); err == nil {
		t.Fatalf("short page accepted")
	}
	recs, err := pageRecords(mk(2), 2)
	if err != nil || len(recs) != 2*RecordBytes {
		t.Fatalf("valid page: %d record bytes, err=%v", len(recs), err)
	}
}

// FuzzPageDecode throws arbitrary bytes — and arbitrary remaining-record
// budgets — at the page decoder. The invariant under fuzz is that a corrupt
// page can never panic the reader, that the records pageRecords hands out
// fit both the page capacity and the budget, and that the bulk decode
// (ReadRecs' appendRecords) yields exactly those records, field for field,
// after whatever the caller's slice already held.
func FuzzPageDecode(f *testing.F) {
	// Seeds: a well-formed sealed page, an empty page, a lying header,
	// and a short buffer.
	good := make([]byte, 256)
	sealPage(good, make([]byte, pageHeader+5*RecordBytes))
	f.Add(good, uint64(100))
	f.Add(make([]byte, 256), uint64(0))
	bad := make([]byte, 256)
	binary.LittleEndian.PutUint32(bad, 0xFFFFFFFF)
	f.Add(bad, uint64(1))
	f.Add([]byte{1, 0}, uint64(1))

	f.Fuzz(func(t *testing.T, page []byte, remaining uint64) {
		enc, err := pageRecords(page, remaining)
		if err != nil {
			if enc != nil {
				t.Fatalf("error alongside %d record bytes", len(enc))
			}
			return
		}
		if len(enc)%RecordBytes != 0 {
			t.Fatalf("%d record bytes is not a whole number of records", len(enc))
		}
		n := uint64(len(enc) / RecordBytes)
		if n > remaining {
			t.Fatalf("consumed %d records with only %d remaining", n, remaining)
		}
		if cap := uint64((len(page) - pageHeader) / RecordBytes); n > cap {
			t.Fatalf("consumed %d records from a page holding %d", n, cap)
		}
		held := Record{Dst: 1, Src: 2, Data: 3}
		recs := appendRecords([]Record{held}, enc)
		if uint64(len(recs)) != n+1 || recs[0] != held {
			t.Fatalf("bulk decode of %d records left %d after the one held, first %+v", n, len(recs)-1, recs[0])
		}
		for i, r := range recs[1:] {
			off := pageHeader + i*RecordBytes
			want := Record{
				Dst:  binary.LittleEndian.Uint32(page[off:]),
				Src:  binary.LittleEndian.Uint32(page[off+4:]),
				Data: binary.LittleEndian.Uint32(page[off+8:]),
			}
			if r != want {
				t.Fatalf("record %d decoded as %+v, page holds %+v", i, r, want)
			}
		}
	})
}
