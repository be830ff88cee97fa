package ssd

import (
	"bytes"
	"errors"
	"io"
	"math/rand"
	"os"
	"testing"
	"testing/quick"
	"time"
)

func testDev(t *testing.T) *Device {
	t.Helper()
	d, err := Open(Config{PageSize: 256, Channels: 4})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestDefaults(t *testing.T) {
	d := MustOpen(Config{})
	if d.PageSize() != DefaultPageSize {
		t.Fatalf("PageSize = %d, want %d", d.PageSize(), DefaultPageSize)
	}
	if d.Channels() != 8 {
		t.Fatalf("Channels = %d, want 8", d.Channels())
	}
}

func TestCreateOpenRemove(t *testing.T) {
	d := testDev(t)
	f, err := d.Create("a/b")
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "a/b" {
		t.Fatalf("Name = %q", f.Name())
	}
	if _, err := d.Create("a/b"); !errors.Is(err, ErrExist) {
		t.Fatalf("duplicate Create err = %v, want ErrExist", err)
	}
	if _, err := d.OpenFile("missing"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("OpenFile missing err = %v, want ErrNotExist", err)
	}
	g, err := d.OpenFile("a/b")
	if err != nil || g != f {
		t.Fatalf("OpenFile returned %v, %v", g, err)
	}
	if !d.Exists("a/b") || d.Exists("zzz") {
		t.Fatal("Exists gave wrong answers")
	}
	if err := d.Remove("a/b"); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("a/b"); !errors.Is(err, ErrNotExist) {
		t.Fatalf("double Remove err = %v, want ErrNotExist", err)
	}
}

func TestOpenOrCreate(t *testing.T) {
	d := testDev(t)
	f1, err := d.OpenOrCreate("x")
	if err != nil {
		t.Fatal(err)
	}
	f2, err := d.OpenOrCreate("x")
	if err != nil || f1 != f2 {
		t.Fatalf("OpenOrCreate returned different files: %v %v err=%v", f1, f2, err)
	}
}

func TestListFiles(t *testing.T) {
	d := testDev(t)
	for _, n := range []string{"c", "a", "b"} {
		if _, err := d.Create(n); err != nil {
			t.Fatal(err)
		}
	}
	got := d.ListFiles()
	want := []string{"a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("ListFiles = %v, want %v", got, want)
		}
	}
}

func TestPageReadWrite(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	ps := d.PageSize()
	p0 := bytes.Repeat([]byte{1}, ps)
	p1 := bytes.Repeat([]byte{2}, ps)
	if err := f.WritePageRange(0, p0); err != nil {
		t.Fatal(err)
	}
	if err := f.WritePageRange(1, p1); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", f.NumPages())
	}
	buf := make([]byte, ps)
	if err := f.ReadPage(1, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Fatal("page 1 contents wrong")
	}
	// Overwrite in place.
	if err := f.WritePageRange(0, p1); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, p1) {
		t.Fatal("overwritten page 0 contents wrong")
	}
}

func TestPageErrors(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	ps := d.PageSize()
	page := make([]byte, ps)
	if err := f.ReadPage(0, page); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("read empty file err = %v", err)
	}
	if err := f.WritePageRange(5, page); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("sparse write err = %v", err)
	}
	if err := f.ReadPage(0, page[:1]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short buffer err = %v", err)
	}
	if err := f.WritePageRange(0, page[:1]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short write err = %v", err)
	}
	if _, err := f.AppendPage(page[:1]); !errors.Is(err, ErrShortBuffer) {
		t.Fatalf("short append err = %v", err)
	}
}

func TestAppendPage(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	ps := d.PageSize()
	for i := 0; i < 5; i++ {
		idx, err := f.AppendPage(bytes.Repeat([]byte{byte(i)}, ps))
		if err != nil {
			t.Fatal(err)
		}
		if idx != i {
			t.Fatalf("AppendPage idx = %d, want %d", idx, i)
		}
	}
	if f.Size() != int64(5*ps) {
		t.Fatalf("Size = %d, want %d", f.Size(), 5*ps)
	}
}

func TestBatchReads(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	ps := d.PageSize()
	for i := 0; i < 10; i++ {
		f.AppendPage(bytes.Repeat([]byte{byte(i)}, ps))
	}
	d.ResetStats()

	dst := make([]byte, 3*ps)
	if err := f.ReadPages([]int{2, 5, 9}, dst); err != nil {
		t.Fatal(err)
	}
	for i, want := range []byte{2, 5, 9} {
		if dst[i*ps] != want {
			t.Fatalf("batch read page %d got byte %d", want, dst[i*ps])
		}
	}
	st := d.Stats()
	if st.PagesRead != 3 || st.BatchReads != 1 {
		t.Fatalf("stats = %+v, want 3 pages in 1 batch", st)
	}

	if err := f.ReadPageRange(4, 4, make([]byte, 4*ps)); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.PagesRead != 7 || st.BatchReads != 2 {
		t.Fatalf("stats after range = %+v", st)
	}
	if err := f.ReadPageRange(8, 3, make([]byte, 3*ps)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range range read err = %v", err)
	}
	if err := f.ReadPages([]int{0, 99}, make([]byte, 2*ps)); !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("out-of-range batch read err = %v", err)
	}
}

func TestVirtualClockChannelParallelism(t *testing.T) {
	lat := 100 * time.Microsecond
	d := MustOpen(Config{PageSize: 64, Channels: 4, PageReadLatency: lat, PageWriteLatency: lat})
	f, _ := d.Create("f")
	page := make([]byte, 64)
	for i := 0; i < 8; i++ {
		f.AppendPage(page)
	}
	d.ResetStats()

	// 8 contiguous pages over 4 channels: busiest channel has 2 pages.
	if err := f.ReadPageRange(0, 8, make([]byte, 8*64)); err != nil {
		t.Fatal(err)
	}
	if got, want := d.Stats().ReadTime, 2*lat; got != want {
		t.Fatalf("batched ReadTime = %v, want %v", got, want)
	}

	// The same 8 pages read one at a time cost 8 serial latencies.
	d.ResetStats()
	buf := make([]byte, 64)
	for i := 0; i < 8; i++ {
		f.ReadPage(i, buf)
	}
	if got, want := d.Stats().ReadTime, 8*lat; got != want {
		t.Fatalf("serial ReadTime = %v, want %v", got, want)
	}
}

func TestVirtualClockWrites(t *testing.T) {
	lat := 10 * time.Microsecond
	d := MustOpen(Config{PageSize: 64, Channels: 2, PageReadLatency: lat, PageWriteLatency: lat})
	f, _ := d.Create("f")
	d.ResetStats()
	if err := f.WritePageRange(0, make([]byte, 6*64)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.PagesWritten != 6 || st.WriteTime != 3*lat {
		t.Fatalf("stats = %+v, want 6 pages over 2 channels = 3 lat", st)
	}
}

func TestStatsSub(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	page := make([]byte, d.PageSize())
	f.AppendPage(page)
	before := d.Stats()
	f.AppendPage(page)
	f.ReadPage(0, page)
	delta := d.Stats().Sub(before)
	if delta.PagesWritten != 1 || delta.PagesRead != 1 {
		t.Fatalf("delta = %+v", delta)
	}
	if delta.StorageTime() <= 0 {
		t.Fatal("delta storage time should be positive")
	}
}

func TestTruncate(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	page := make([]byte, d.PageSize())
	f.AppendPage(page)
	f.AppendPage(page)
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 0 || f.Size() != 0 {
		t.Fatalf("after truncate: pages=%d size=%d", f.NumPages(), f.Size())
	}
	// File is reusable after truncate.
	if _, err := f.AppendPage(page); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("pages after reuse = %d", f.NumPages())
	}
}

func TestReadAt(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	ps := d.PageSize()
	data := make([]byte, 3*ps)
	for i := range data {
		data[i] = byte(i % 251)
	}
	w := NewWriter(f)
	w.Write(data)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	// Cross-page unaligned read.
	buf := make([]byte, ps+10)
	if err := f.ReadAt(buf, int64(ps)-5); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf, data[ps-5:ps-5+len(buf)]) {
		t.Fatal("ReadAt contents wrong")
	}
	if err := f.ReadAt(nil, 0); err != nil {
		t.Fatal("empty ReadAt should succeed")
	}
}

func TestWriterReaderRoundTrip(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	w := NewWriter(f)
	var want []byte
	for i := 0; i < 1000; i++ {
		w.WriteU32(uint32(i * 7))
		var b [4]byte
		b[0], b[1], b[2], b[3] = byte(i*7), byte(i*7>>8), byte(i*7>>16), byte(i*7>>24)
		want = append(want, b[:]...)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if f.Size() != int64(len(want)) {
		t.Fatalf("Size = %d, want %d", f.Size(), len(want))
	}

	r := NewReader(f, 2)
	for i := 0; i < 1000; i++ {
		v, err := r.U32()
		if err != nil {
			t.Fatal(err)
		}
		if v != uint32(i*7) {
			t.Fatalf("U32 #%d = %d, want %d", i, v, i*7)
		}
	}
	var b [1]byte
	if _, err := r.Read(b[:]); err != io.EOF {
		t.Fatalf("read past end err = %v, want EOF", err)
	}
}

func TestReaderN(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	w := NewWriter(f)
	w.Write(bytes.Repeat([]byte{7}, 100))
	w.Close()
	r := NewReaderN(f, 10, 1)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 10 {
		t.Fatalf("ReadAll got %d bytes, want 10", len(got))
	}
}

func TestWriterPartialPageZeroPadded(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	w := NewWriter(f)
	w.Write([]byte{1, 2, 3})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 1 {
		t.Fatalf("NumPages = %d, want 1", f.NumPages())
	}
	page := make([]byte, d.PageSize())
	f.ReadPage(0, page)
	if page[0] != 1 || page[3] != 0 || page[d.PageSize()-1] != 0 {
		t.Fatal("partial page not zero padded")
	}
	if f.Size() != 3 {
		t.Fatalf("Size = %d, want 3", f.Size())
	}
}

// A RAM page recycled from a truncated or removed file never shows its old
// bytes in the file that takes it over — not past a short last page, not past
// a short store write — and its checksum is the new owner's.
func TestRecycledPageLeaksNothing(t *testing.T) {
	d := testDev(t)
	ps := d.PageSize()
	old, _ := d.Create("old")
	gone, _ := d.Create("gone")
	dirty := bytes.Repeat([]byte{0xEE}, 3*ps)
	if err := old.AppendPages(dirty); err != nil {
		t.Fatal(err)
	}
	if err := gone.AppendPages(dirty[:2*ps]); err != nil {
		t.Fatal(err)
	}
	if err := old.Truncate(); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("gone"); err != nil {
		t.Fatal(err)
	}
	if free := len(d.pool.free); free != 5 {
		t.Fatalf("the pool holds %d pages after 3 were truncated and 2 removed", free)
	}

	f, _ := d.Create("new")
	w := NewWriter(f)
	w.Write(bytes.Repeat([]byte{7}, ps+3)) // one full page, one three-byte page
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if free := len(d.pool.free); free != 3 {
		t.Fatalf("the pool holds %d pages after a two-page file drew on it, want 3", free)
	}
	got := make([]byte, 2*ps)
	if err := f.ReadPageRange(0, 2, got); err != nil { // verifies both CRCs
		t.Fatal(err)
	}
	want := append(bytes.Repeat([]byte{7}, ps+3), make([]byte, ps-3)...)
	if !bytes.Equal(got, want) {
		t.Fatalf("a recycled page leaked: last page reads % x ...", got[ps:ps+8])
	}
	if st := d.Stats(); st.CorruptPages != 0 {
		t.Fatalf("%d checksum failures on recycled pages", st.CorruptPages)
	}

	// The store itself zero-fills past a short write into a recycled page.
	m := newMemStore(ps, &d.pool)
	if err := m.writePage(0, []byte{1, 2}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(m.pages[0], append([]byte{1, 2}, make([]byte, ps-2)...)) {
		t.Fatalf("short write into a recycled page: % x ...", m.pages[0][:8])
	}
	// The pool never holds more than was freed: draining it allocates afresh.
	for i := 1; i < 4; i++ {
		if err := m.writePage(i, nil); err != nil {
			t.Fatal(err)
		}
	}
	if free := len(d.pool.free); free != 0 {
		t.Fatalf("the pool holds %d pages after more were drawn than freed", free)
	}
}

// The free list stops at its cap: what one large removed file gives back
// beyond it goes to the GC, not into the device for good.
func TestPagePoolIsCapped(t *testing.T) {
	d := testDev(t)
	ps := d.PageSize()
	if want := poolMaxBytes / ps; d.pool.max != want {
		t.Fatalf("pool cap %d pages, want %d", d.pool.max, want)
	}
	d.pool.max = 4
	big, _ := d.Create("big")
	if err := big.AppendPages(make([]byte, 7*ps)); err != nil {
		t.Fatal(err)
	}
	if err := d.Remove("big"); err != nil {
		t.Fatal(err)
	}
	if free := len(d.pool.free); free != 4 {
		t.Fatalf("the pool holds %d pages after a 7-page file was removed under a cap of 4", free)
	}
	small, _ := d.Create("small")
	if err := small.AppendPages(make([]byte, 2*ps)); err != nil {
		t.Fatal(err)
	}
	if err := small.Truncate(); err != nil {
		t.Fatal(err)
	}
	if free := len(d.pool.free); free != 4 {
		t.Fatalf("the pool holds %d pages after drawing 2 and freeing 2 under a cap of 4", free)
	}
}

func TestDiskBacking(t *testing.T) {
	dir := t.TempDir()
	d := MustOpen(Config{PageSize: 128, Channels: 2, Dir: dir})
	f, err := d.Create("sub/data.bin")
	if err != nil {
		t.Fatal(err)
	}
	w := NewWriter(f)
	payload := bytes.Repeat([]byte{0xAB}, 300)
	w.Write(payload)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(f, 4)
	got, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("disk round trip mismatch")
	}
	if err := f.Truncate(); err != nil {
		t.Fatal(err)
	}
	if f.NumPages() != 0 {
		t.Fatal("disk truncate failed")
	}
	if err := d.Remove("sub/data.bin"); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveUnlinksOnDisk: a removed file leaves nothing behind in the
// backing directory, so a device reopened over it adopts no removed file
// and charges none of its pages.
func TestRemoveUnlinksOnDisk(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PageSize: 128, Channels: 2, Dir: dir}
	d := MustOpen(cfg)
	for _, name := range []string{"a", "b.q1.x", "b.q1.y"} {
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AppendPages(make([]byte, 3*128)); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Remove("a"); err != nil {
		t.Fatal(err)
	}
	if n, err := d.RemovePrefix("b.q1."); n != 2 || err != nil {
		t.Fatalf("RemovePrefix removed %d: %v", n, err)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 0 {
		t.Fatalf("directory after removing every file: %v (%v)", ents, err)
	}
	re := MustOpen(cfg)
	if got := re.ListFiles(); len(got) != 0 || re.usedPages != 0 {
		t.Fatalf("reopened device adopted %v and charges %d pages", got, re.usedPages)
	}
}

// TestCloseLeavesFilesForReopen: Close releases every store descriptor
// and keeps the data, so a device reopened over the directory reads what
// the closed one wrote, while the closed one refuses IO.
func TestCloseLeavesFilesForReopen(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{PageSize: 128, Channels: 2, Dir: dir}
	d := MustOpen(cfg)
	page := bytes.Repeat([]byte{0x5A}, 128)
	for _, name := range []string{"a", "sub/b"} {
		f, err := d.Create(name)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.AppendPages(page); err != nil {
			t.Fatal(err)
		}
	}
	// A truncated file takes new pages; a reopen must read them, checksums
	// included, and an emptied file must come back empty.
	rewritten, err := d.Create("rewritten")
	if err != nil {
		t.Fatal(err)
	}
	emptied, err := d.Create("emptied")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range []*File{rewritten, emptied} {
		if err := f.AppendPages(bytes.Repeat([]byte{0x11}, 2*128)); err != nil {
			t.Fatal(err)
		}
		if err := f.Truncate(); err != nil {
			t.Fatal(err)
		}
	}
	if err := rewritten.AppendPages(page); err != nil {
		t.Fatal(err)
	}
	f, err := d.OpenFile("a")
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.ReadPage(0, make([]byte, 128)); err == nil {
		t.Fatal("a closed device still reads")
	}
	re := MustOpen(cfg)
	for _, name := range []string{"a", "sub/b", "rewritten"} {
		f, err := re.OpenFile(name)
		if err != nil {
			t.Fatal(err)
		}
		got := make([]byte, 128)
		if err := f.ReadPage(0, got); err != nil || !bytes.Equal(got, page) || f.NumPages() != 1 {
			t.Fatalf("%s after reopen: %d pages: %v", name, f.NumPages(), err)
		}
	}
	if f, err := re.OpenFile("emptied"); err != nil || f.NumPages() != 0 {
		t.Fatalf("a truncated file adopts with pages: %v", err)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}
	if err := MustOpen(Config{PageSize: 128}).Close(); err != nil {
		t.Fatalf("closing a RAM device: %v", err)
	}
}

func TestMaxPerChannel(t *testing.T) {
	if got := maxPerChannel(0, 4, nil); got != 0 {
		t.Fatalf("empty = %d", got)
	}
	if got := maxPerChannel(0, 4, []int{7}); got != 1 {
		t.Fatalf("single = %d", got)
	}
	// Pages 0,4,8 all land on channel 0 (base 0, 4 channels).
	if got := maxPerChannel(0, 4, []int{0, 4, 8}); got != 3 {
		t.Fatalf("conflicting pages = %d, want 3", got)
	}
	// Pages 0,1,2,3 spread across all channels.
	if got := maxPerChannel(0, 4, []int{0, 1, 2, 3}); got != 1 {
		t.Fatalf("spread pages = %d, want 1", got)
	}
	// A contiguous range needs no list, and its depth is the one
	// maxPerChannel finds on the listed range, for any stripe base.
	for _, n := range []int{0, 1, 4, 9, 33} {
		list := make([]int, n)
		for i := range list {
			list[i] = 5 + i
		}
		if got, want := (batch{start: 5, n: n}).depth(3, 4), maxPerChannel(3, 4, list); got != want {
			t.Fatalf("range of %d = %d, listed = %d", n, got, want)
		}
	}
}

// Property: Writer then Reader round-trips arbitrary byte strings.
func TestQuickStreamRoundTrip(t *testing.T) {
	cnt := 0
	f := func(data []byte) bool {
		cnt++
		d := MustOpen(Config{PageSize: 64, Channels: 2})
		file, _ := d.Create("f")
		w := NewWriter(file)
		w.Write(data)
		if err := w.Close(); err != nil {
			return false
		}
		got, err := io.ReadAll(NewReader(file, 3))
		if err != nil {
			return false
		}
		return bytes.Equal(got, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: ReadAt agrees with the written stream at random offsets.
func TestQuickReadAt(t *testing.T) {
	d := MustOpen(Config{PageSize: 128, Channels: 4})
	file, _ := d.Create("f")
	data := make([]byte, 4096)
	rng := rand.New(rand.NewSource(42))
	rng.Read(data)
	w := NewWriter(file)
	w.Write(data)
	w.Close()

	f := func(offRaw, lenRaw uint16) bool {
		off := int(offRaw) % len(data)
		l := int(lenRaw) % (len(data) - off)
		buf := make([]byte, l)
		if err := file.ReadAt(buf, int64(off)); err != nil {
			return false
		}
		return bytes.Equal(buf, data[off:off+l])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAppendPage(b *testing.B) {
	d := MustOpen(Config{PageSize: 16384, Channels: 8})
	f, _ := d.Create("bench")
	page := make([]byte, 16384)
	b.SetBytes(16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.AppendPage(page)
	}
}

// BenchmarkLogRecycle: fill a 64-page file and truncate it, over and over —
// a message log's life across supersteps. B/op says whether the RAM device
// allocates the pages once or once per fill.
func BenchmarkLogRecycle(b *testing.B) {
	d := MustOpen(Config{PageSize: 4096, Channels: 8})
	f, _ := d.Create("log")
	pages := make([]byte, 64*4096)
	b.SetBytes(int64(len(pages)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.AppendPages(pages); err != nil {
			b.Fatal(err)
		}
		if err := f.Truncate(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadPageRange(b *testing.B) {
	d := MustOpen(Config{PageSize: 16384, Channels: 8})
	f, _ := d.Create("bench")
	page := make([]byte, 16384)
	for i := 0; i < 256; i++ {
		f.AppendPage(page)
	}
	dst := make([]byte, 64*16384)
	b.SetBytes(64 * 16384)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.ReadPageRange((i%4)*64, 64, dst)
	}
}

func TestStatsByFile(t *testing.T) {
	d := testDev(t)
	a, _ := d.Create("graph.colidx")
	b, _ := d.Create("log.0")
	page := make([]byte, d.PageSize())
	a.AppendPage(page)
	a.ReadPage(0, page)
	a.ReadPage(0, page)
	b.AppendPage(page)
	st := d.StatsByFile()
	if st["graph.colidx"].PagesRead != 2 || st["graph.colidx"].PagesWritten != 1 {
		t.Fatalf("graph stats = %+v", st["graph.colidx"])
	}
	if st["log.0"].PagesWritten != 1 || st["log.0"].PagesRead != 0 {
		t.Fatalf("log stats = %+v", st["log.0"])
	}
}

func TestFaultInjectionBasics(t *testing.T) {
	d := testDev(t)
	f, _ := d.Create("f")
	page := make([]byte, d.PageSize())
	d.SetFaults(FaultPlan{Crash: true, CrashAfter: 2})
	if _, err := f.AppendPage(page); err != nil {
		t.Fatalf("op 1 failed early: %v", err)
	}
	if _, err := f.AppendPage(page); err != nil {
		t.Fatalf("op 2 failed early: %v", err)
	}
	if _, err := f.AppendPage(page); !errors.Is(err, ErrInjected) {
		t.Fatalf("op 3 err = %v, want ErrInjected", err)
	}
	if err := f.ReadPage(0, page); !errors.Is(err, ErrInjected) {
		t.Fatalf("read err = %v, want ErrInjected", err)
	}
	d.SetFaults(FaultPlan{})
	if err := f.ReadPage(0, page); err != nil {
		t.Fatalf("disarmed read failed: %v", err)
	}
}

func TestStatsHistograms(t *testing.T) {
	lat := 100 * time.Microsecond
	d := MustOpen(Config{PageSize: 64, Channels: 4, PageReadLatency: lat, PageWriteLatency: lat})
	f, _ := d.Create("f")
	for i := 0; i < 8; i++ {
		f.AppendPage(make([]byte, 64))
	}
	d.ResetStats()

	// One batch of 8 pages over 4 channels: perfectly balanced, 2 serial
	// latencies on the busiest channel.
	if err := f.ReadPageRange(0, 8, make([]byte, 8*64)); err != nil {
		t.Fatal(err)
	}
	st := d.Stats()
	if st.ReadBatchPages.N != 1 || st.ReadBatchPages.Sum != 8 {
		t.Fatalf("ReadBatchPages = %s", st.ReadBatchPages)
	}
	if st.ReadImbalance.N != 1 || st.ReadImbalance.Sum != 0 {
		t.Fatalf("balanced batch should observe imbalance 0, got %s", st.ReadImbalance)
	}
	if st.ReadLatencyUS.N != 1 || st.ReadLatencyUS.Sum != 200 {
		t.Fatalf("ReadLatencyUS = %s, want one 200us observation", st.ReadLatencyUS)
	}

	// Single-page reads: each batch is 1 page, 1 latency, imbalance 0.
	before := st
	buf := make([]byte, 64)
	for i := 0; i < 3; i++ {
		f.ReadPage(i, buf)
	}
	delta := d.Stats().Sub(before)
	if delta.ReadBatchPages.N != 3 || delta.ReadBatchPages.Sum != 3 {
		t.Fatalf("delta ReadBatchPages = %s", delta.ReadBatchPages)
	}
	if delta.ReadLatencyUS.Sum != 300 {
		t.Fatalf("delta ReadLatencyUS = %s", delta.ReadLatencyUS)
	}

	// Writes populate the write-side histograms.
	if err := f.WritePageRange(0, make([]byte, 6*64)); err != nil {
		t.Fatal(err)
	}
	st = d.Stats()
	if st.WriteBatchPages.N != 1 || st.WriteBatchPages.Sum != 6 {
		t.Fatalf("WriteBatchPages = %s", st.WriteBatchPages)
	}
	// 6 pages over 4 channels: busiest has 2, ideal is ceil(6/4)=2 -> 0 skew.
	if st.WriteImbalance.Sum != 0 {
		t.Fatalf("WriteImbalance = %s", st.WriteImbalance)
	}
	if st.WriteLatencyUS.Sum != 200 {
		t.Fatalf("WriteLatencyUS = %s", st.WriteLatencyUS)
	}
}
