package ckpt

import (
	"encoding/binary"
	"runtime"
	"testing"
)

// TestDecodeChecksLengthsBeforeAllocating: a CRC-valid slot can still carry
// a length prefix its payload cannot back (a bug in the writer, or a
// collision). Decode must read it as corrupt without first allocating what
// the prefix claims.
func TestDecodeChecksLengthsBeforeAllocating(t *testing.T) {
	st := emptyOptionalState()
	payload, err := encode(st)
	if err != nil {
		t.Fatal(err)
	}
	if len(payload) >= 1<<10 {
		t.Fatalf("payload is %d bytes, want under 1 KiB", len(payload))
	}
	// The carry length follows the two strings, NumVertices and CumProcessed.
	at := 4 + len(st.App) + 4 + len(st.Graph) + 4 + 8
	if got := binary.LittleEndian.Uint32(payload[at:]); got != uint32(len(st.Carry)) {
		t.Fatalf("carry length at offset %d reads %d, want %d", at, got, len(st.Carry))
	}
	binary.LittleEndian.PutUint32(payload[at:], 1<<22) // 32 MiB of carry words

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = decode(payload)
	runtime.ReadMemStats(&after)
	if err == nil {
		t.Fatal("decode accepted a carry length the payload cannot hold")
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
		t.Fatalf("decode allocated %d bytes for a %d-byte payload", alloc, len(payload))
	}
}

// FuzzCheckpointDecode: decode of any payload returns a state or an error,
// never a panic.
func FuzzCheckpointDecode(f *testing.F) {
	for _, st := range []*State{sampleState(3, 7), emptyOptionalState()} {
		payload, err := encode(st)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		if st, err := decode(payload); (st == nil) == (err == nil) {
			t.Fatalf("decode = %v, %v: want exactly one of a state and an error", st, err)
		}
	})
}
