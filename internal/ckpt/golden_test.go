package ckpt

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"
)

// emptyOptionalState is a one-interval state with no pending message, no
// edge log, no predictor history, no aux state and no superstep stats.
func emptyOptionalState() *State {
	st := sampleState(0, 1)
	st.Msgs = st.Msgs[1:2] // the sample's empty interval
	st.Elog, st.PredActive, st.PredIneff, st.Aux, st.Supersteps = nil, nil, nil, nil, nil
	return st
}

// TestCheckpointBytesGolden pins the checkpoint format byte for byte: the
// payload of a state with every section filled, the payload of one whose
// optional sections are empty, and the manifest page Save commits. A
// checkpoint written before a change to the codec must still load after it.
func TestCheckpointBytesGolden(t *testing.T) {
	sum := func(b []byte) string { h := sha256.Sum256(b); return hex.EncodeToString(h[:]) }
	for _, tc := range []struct {
		name string
		st   *State
		size int
		hash string
	}{
		{"full", sampleState(3, 7), 1253, "35a424331cbfbd8db14d2793cf0d4307c64464f1ebf5ff412446280010052dfa"},
		{"empty optional sections", emptyOptionalState(), 105, "935a172d88849024f1461ecc4f80433787259b571bc5d5e8466c08e91a78da16"},
	} {
		payload, err := encode(tc.st)
		if err != nil {
			t.Fatal(err)
		}
		if len(payload) != tc.size || sum(payload) != tc.hash {
			t.Errorf("%s: payload is %d bytes, sha256 %s; pinned %d bytes, %s", tc.name, len(payload), sum(payload), tc.size, tc.hash)
		}
	}

	dev := testDev(t)
	if err := Save(dev, "g", sampleState(3, 7)); err != nil {
		t.Fatal(err)
	}
	meta, err := dev.OpenFile("g.ckpt.1.meta")
	if err != nil {
		t.Fatal(err)
	}
	page := make([]byte, meta.NumPages()*dev.PageSize())
	if err := meta.ReadAt(page, 0); err != nil {
		t.Fatal(err)
	}
	const manifest = "b0b05b828d298b1cece0ce77cd11fe80cfa2739e36e35646e16787adf67c45d5"
	if got := sum(page); got != manifest {
		t.Errorf("manifest file is %d bytes, sha256 %s; pinned %s", len(page), got, manifest)
	}
}
