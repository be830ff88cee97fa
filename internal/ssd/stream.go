package ssd

import (
	"encoding/binary"
	"io"
)

// Writer buffers byte writes into whole pages and appends them to a File.
// Close flushes any partial final page (zero-padded) and fixes the file's
// logical Size to the number of bytes written.
type Writer struct {
	f    *File
	page []byte
	fill int
	off  int64 // bytes flushed + buffered
	err  error
}

// NewWriter creates a Writer for f. It is typically used on empty or
// truncated files; bytes already present are not re-read.
func NewWriter(f *File) *Writer {
	return &Writer{f: f, page: make([]byte, f.dev.cfg.PageSize)}
}

// Write appends p to the stream.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n := len(p)
	for len(p) > 0 {
		c := copy(w.page[w.fill:], p)
		w.fill += c
		p = p[c:]
		if w.fill == len(w.page) {
			if _, err := w.f.AppendPage(w.page); err != nil {
				w.err = err
				return n - len(p), err
			}
			w.fill = 0
		}
	}
	w.off += int64(n)
	return n, nil
}

// WriteU32 appends a little-endian uint32.
func (w *Writer) WriteU32(v uint32) error {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], v)
	_, err := w.Write(b[:])
	return err
}

// Offset returns the number of bytes written so far.
func (w *Writer) Offset() int64 { return w.off }

// Close flushes the final partial page and records the logical size.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.fill > 0 {
		for i := w.fill; i < len(w.page); i++ {
			w.page[i] = 0
		}
		if _, err := w.f.AppendPage(w.page); err != nil {
			w.err = err
			return err
		}
		w.fill = 0
	}
	w.f.SetSize(w.off)
	return nil
}

// Reader streams a File's logical contents with page-batched readahead.
// It implements io.Reader over [0, Size).
type Reader struct {
	f         *File
	buf       []byte
	bufStart  int64 // byte offset of buf[0]
	bufLen    int
	pos       int64
	size      int64
	readahead int // pages per batch
	err       error
}

// NewReader creates a Reader over f's logical contents with the given
// readahead (pages per batch; <=0 means 64).
func NewReader(f *File, readahead int) *Reader {
	if readahead <= 0 {
		readahead = 64
	}
	return &Reader{f: f, size: f.Size(), readahead: readahead}
}

// NewReaderN is NewReader limited to the first n logical bytes.
func NewReaderN(f *File, n int64, readahead int) *Reader {
	r := NewReader(f, readahead)
	if n < r.size {
		r.size = n
	}
	return r
}

// Read implements io.Reader.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	if r.pos >= r.size {
		return 0, io.EOF
	}
	if r.pos < r.bufStart || r.pos >= r.bufStart+int64(r.bufLen) {
		if err := r.fill(); err != nil {
			r.err = err
			return 0, err
		}
	}
	off := int(r.pos - r.bufStart)
	n := copy(p, r.buf[off:r.bufLen])
	if rem := r.size - r.pos; int64(n) > rem {
		n = int(rem)
	}
	r.pos += int64(n)
	return n, nil
}

func (r *Reader) fill() error {
	ps := int64(r.f.dev.cfg.PageSize)
	startPage := int(r.pos / ps)
	total := pageCount(r.size, int(ps))
	n := r.readahead
	if startPage+n > total {
		n = total - startPage
	}
	need := n * int(ps)
	if cap(r.buf) < need {
		r.buf = make([]byte, need)
	}
	r.buf = r.buf[:need]
	if err := r.f.ReadPageRange(startPage, n, r.buf); err != nil {
		return err
	}
	r.bufStart = int64(startPage) * ps
	r.bufLen = need
	return nil
}

// ReadFull reads exactly len(p) bytes or returns an error.
func (r *Reader) ReadFull(p []byte) error {
	_, err := io.ReadFull(r, p)
	return err
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() (uint32, error) {
	var b [4]byte
	if err := r.ReadFull(b[:]); err != nil {
		return 0, err
	}
	return binary.LittleEndian.Uint32(b[:]), nil
}
