package ckpt

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"multilogvc/internal/csr"
	"multilogvc/internal/metrics"
	"multilogvc/internal/ssd"
)

func testDev(t *testing.T) *ssd.Device {
	t.Helper()
	dev, err := ssd.Open(ssd.Config{PageSize: 512, Channels: 2})
	if err != nil {
		t.Fatal(err)
	}
	return dev
}

func sampleState(seq uint64, step int) *State {
	return &State{
		App:          "pagerank",
		Graph:        "g",
		Seq:          seq,
		Step:         step,
		NumVertices:  100,
		CumProcessed: 4242,
		Carry:        []uint64{0xdeadbeef, 0, 0xffffffffffffffff},
		Values:       []uint32{1, 2, 3, 0xffffffff},
		Msgs: [][]MsgRec{
			{{Dst: 1, Src: 2, Data: 3}, {Dst: 4, Src: 5, Data: 6}},
			{},
			{{Dst: 7, Src: 8, Data: 9}},
		},
		Elog: []ElogEntry{
			{V: 10, Nbrs: []uint32{11, 12}},
			{V: 13, Nbrs: []uint32{14}, Weights: []uint32{7}},
		},
		PredActive: []uint64{5, 6},
		PredIneff: []csr.PageKey{
			{Side: 0, Interval: 1, Page: 2},
			{Side: 1, Interval: 0, Page: 9},
		},
		Aux: [][]uint32{{1, 2, 3}, {}},
		Supersteps: []metrics.SuperstepStats{
			{Superstep: 0, Counters: metrics.Counters{Active: 100}},
			{Superstep: 1, Counters: metrics.Counters{Active: 42}},
		},
	}
}

func statesEqual(t *testing.T, got, want *State) {
	t.Helper()
	if got.App != want.App || got.Graph != want.Graph || got.Seq != want.Seq ||
		got.Step != want.Step || got.NumVertices != want.NumVertices ||
		got.CumProcessed != want.CumProcessed {
		t.Fatalf("header mismatch: got %+v want %+v", got, want)
	}
	if len(got.Carry) != len(want.Carry) {
		t.Fatalf("carry len %d != %d", len(got.Carry), len(want.Carry))
	}
	for i := range want.Carry {
		if got.Carry[i] != want.Carry[i] {
			t.Fatalf("carry[%d] %x != %x", i, got.Carry[i], want.Carry[i])
		}
	}
	if len(got.Values) != len(want.Values) {
		t.Fatalf("values len %d != %d", len(got.Values), len(want.Values))
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("values[%d] %d != %d", i, got.Values[i], want.Values[i])
		}
	}
	if len(got.Msgs) != len(want.Msgs) {
		t.Fatalf("msgs intervals %d != %d", len(got.Msgs), len(want.Msgs))
	}
	for i := range want.Msgs {
		if len(got.Msgs[i]) != len(want.Msgs[i]) {
			t.Fatalf("msgs[%d] len %d != %d", i, len(got.Msgs[i]), len(want.Msgs[i]))
		}
		for j := range want.Msgs[i] {
			if got.Msgs[i][j] != want.Msgs[i][j] {
				t.Fatalf("msgs[%d][%d] %+v != %+v", i, j, got.Msgs[i][j], want.Msgs[i][j])
			}
		}
	}
	if len(got.Elog) != len(want.Elog) {
		t.Fatalf("elog len %d != %d", len(got.Elog), len(want.Elog))
	}
	for i := range want.Elog {
		g, w := got.Elog[i], want.Elog[i]
		if g.V != w.V || len(g.Nbrs) != len(w.Nbrs) || (g.Weights == nil) != (w.Weights == nil) {
			t.Fatalf("elog[%d] %+v != %+v", i, g, w)
		}
		for j := range w.Nbrs {
			if g.Nbrs[j] != w.Nbrs[j] {
				t.Fatalf("elog[%d].Nbrs[%d] %d != %d", i, j, g.Nbrs[j], w.Nbrs[j])
			}
		}
		for j := range w.Weights {
			if g.Weights[j] != w.Weights[j] {
				t.Fatalf("elog[%d].Weights[%d] %d != %d", i, j, g.Weights[j], w.Weights[j])
			}
		}
	}
	if len(got.PredActive) != len(want.PredActive) || len(got.PredIneff) != len(want.PredIneff) {
		t.Fatalf("predictor sizes differ: %d/%d vs %d/%d",
			len(got.PredActive), len(got.PredIneff), len(want.PredActive), len(want.PredIneff))
	}
	for i := range want.PredActive {
		if got.PredActive[i] != want.PredActive[i] {
			t.Fatalf("predActive[%d] %x != %x", i, got.PredActive[i], want.PredActive[i])
		}
	}
	for i := range want.PredIneff {
		if got.PredIneff[i] != want.PredIneff[i] {
			t.Fatalf("predIneff[%d] %+v != %+v", i, got.PredIneff[i], want.PredIneff[i])
		}
	}
	if len(got.Aux) != len(want.Aux) {
		t.Fatalf("aux intervals %d != %d", len(got.Aux), len(want.Aux))
	}
	for i := range want.Aux {
		if len(got.Aux[i]) != len(want.Aux[i]) {
			t.Fatalf("aux[%d] len %d != %d", i, len(got.Aux[i]), len(want.Aux[i]))
		}
		for j := range want.Aux[i] {
			if got.Aux[i][j] != want.Aux[i][j] {
				t.Fatalf("aux[%d][%d] %d != %d", i, j, got.Aux[i][j], want.Aux[i][j])
			}
		}
	}
	if len(got.Supersteps) != len(want.Supersteps) {
		t.Fatalf("supersteps %d != %d", len(got.Supersteps), len(want.Supersteps))
	}
	for i := range want.Supersteps {
		if got.Supersteps[i].Superstep != want.Supersteps[i].Superstep ||
			got.Supersteps[i].Active != want.Supersteps[i].Active {
			t.Fatalf("supersteps[%d] %+v != %+v", i, got.Supersteps[i], want.Supersteps[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	dev := testDev(t)
	want := sampleState(0, 3)
	if err := Save(dev, "g.pagerank", want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dev, "g.pagerank")
	if err != nil {
		t.Fatal(err)
	}
	statesEqual(t, got, want)
}

func TestNoCheckpoint(t *testing.T) {
	dev := testDev(t)
	_, err := Load(dev, "g.pagerank")
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestNewestSlotWins(t *testing.T) {
	dev := testDev(t)
	for seq := uint64(0); seq < 3; seq++ {
		st := sampleState(seq, int(seq)*2)
		st.Values[0] = uint32(seq + 100)
		if err := Save(dev, "p", st); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Load(dev, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 2 || got.Step != 4 || got.Values[0] != 102 {
		t.Fatalf("got seq=%d step=%d v0=%d, want 2/4/102", got.Seq, got.Step, got.Values[0])
	}
}

// TestTornManifestFallsBack simulates a crash between the manifest
// truncation and the manifest rewrite of the newer slot: Load must fall
// back to the older committed checkpoint.
func TestTornManifestFallsBack(t *testing.T) {
	dev := testDev(t)
	if err := Save(dev, "p", sampleState(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Save(dev, "p", sampleState(1, 2)); err != nil {
		t.Fatal(err)
	}
	// Tear slot 1 (seq 1) the way Save's step 1 does.
	meta, err := dev.OpenFile("p.ckpt.1.meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Truncate(); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dev, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 || got.Step != 1 {
		t.Fatalf("want fallback to seq 0 step 1, got seq=%d step=%d", got.Seq, got.Step)
	}
}

// TestCorruptPayloadFallsBack flips a payload bit in the newer slot; the
// CRC must reject it and Load must return the older slot.
func TestCorruptPayloadFallsBack(t *testing.T) {
	dev := testDev(t)
	if err := Save(dev, "p", sampleState(0, 1)); err != nil {
		t.Fatal(err)
	}
	if err := Save(dev, "p", sampleState(1, 2)); err != nil {
		t.Fatal(err)
	}
	data, err := dev.OpenFile("p.ckpt.1")
	if err != nil {
		t.Fatal(err)
	}
	ps := dev.PageSize()
	buf := make([]byte, ps)
	if err := data.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[10] ^= 0xff
	if err := data.WritePageRange(0, buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dev, "p")
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 0 {
		t.Fatalf("want fallback to seq 0, got seq=%d", got.Seq)
	}
}

// TestAllSlotsCorruptIsErrCorrupt: a committed manifest whose payload
// fails the CRC is corruption evidence; with no other valid slot, Load
// must return ErrCorrupt.
func TestAllSlotsCorruptIsErrCorrupt(t *testing.T) {
	dev := testDev(t)
	if err := Save(dev, "p", sampleState(0, 1)); err != nil {
		t.Fatal(err)
	}
	data, err := dev.OpenFile("p.ckpt.0")
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, dev.PageSize())
	if err := data.ReadPage(0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] ^= 0xff
	if err := data.WritePageRange(0, buf); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dev, "p")
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("want ErrCorrupt, got %v", err)
	}
}

// TestLoadClassifiesUnreadableSlots: what Load reports when no slot
// validates depends on why. A device that dies under the read (at the
// manifest, depth 0, or at the payload behind a good manifest, depth 1)
// says nothing about the checkpoint, so its own error comes back — not
// ErrCorrupt, which would send a resumable run down the wrong exit. Payload
// pages that fail the device checksum in both slots are corruption.
func TestLoadClassifiesUnreadableSlots(t *testing.T) {
	for _, tc := range []struct {
		name   string
		damage func(t *testing.T, dev *ssd.Device)
		want   error
		never  []error
	}{
		{"device dies at the manifest", func(t *testing.T, dev *ssd.Device) {
			dev.SetFaults(ssd.FaultPlan{Crash: true})
		}, ssd.ErrInjected, []error{ErrCorrupt, ErrNoCheckpoint}},
		{"device dies at the payload", func(t *testing.T, dev *ssd.Device) {
			dev.SetFaults(ssd.FaultPlan{Crash: true, CrashAfter: 1})
		}, ssd.ErrInjected, []error{ErrCorrupt, ErrNoCheckpoint}},
		{"payload page fails its CRC in both slots", func(t *testing.T, dev *ssd.Device) {
			for _, name := range []string{"p.ckpt.0", "p.ckpt.1"} {
				if err := dev.CorruptStoredPage(name, 0); err != nil {
					t.Fatal(err)
				}
			}
		}, ErrCorrupt, []error{ssd.ErrInjected}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dev := testDev(t)
			for seq := uint64(0); seq < 2; seq++ {
				if err := Save(dev, "p", sampleState(seq, int(seq)+1)); err != nil {
					t.Fatal(err)
				}
			}
			tc.damage(t, dev)
			_, err := Load(dev, "p")
			if !errors.Is(err, tc.want) {
				t.Fatalf("Load = %v, want %v", err, tc.want)
			}
			for _, e := range tc.never {
				if errors.Is(err, e) {
					t.Fatalf("Load = %v, must not read as %v", err, e)
				}
			}
		})
	}
}

// TestTornOnlySlotIsNoCheckpoint: a crash during the very first commit
// leaves payload data but a truncated manifest — that is an interrupted
// commit, not corruption, and must read as "no checkpoint".
func TestTornOnlySlotIsNoCheckpoint(t *testing.T) {
	dev := testDev(t)
	if err := Save(dev, "p", sampleState(0, 1)); err != nil {
		t.Fatal(err)
	}
	meta, err := dev.OpenFile("p.ckpt.0.meta")
	if err != nil {
		t.Fatal(err)
	}
	if err := meta.Truncate(); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dev, "p")
	if !errors.Is(err, ErrNoCheckpoint) {
		t.Fatalf("want ErrNoCheckpoint, got %v", err)
	}
}

func TestEmptyOptionalSections(t *testing.T) {
	dev := testDev(t)
	want := &State{
		App: "bfs", Graph: "g", Seq: 0, Step: 1,
		NumVertices: 4,
		Carry:       []uint64{0},
		Values:      []uint32{0, 1, 2, 3},
		Msgs:        [][]MsgRec{{}},
	}
	if err := Save(dev, "g.bfs", want); err != nil {
		t.Fatal(err)
	}
	got, err := Load(dev, "g.bfs")
	if err != nil {
		t.Fatal(err)
	}
	if got.Elog != nil && len(got.Elog) != 0 {
		t.Fatalf("want empty elog, got %d", len(got.Elog))
	}
	if got.PredActive != nil {
		t.Fatalf("want nil predictor history, got %v", got.PredActive)
	}
	if got.Aux != nil {
		t.Fatalf("want nil aux, got %v", got.Aux)
	}
	statesEqual(t, got, want)
}

// pr19Stats is a checkpoint's stats section as PR 19 wrote it, when
// SuperstepStats declared its counters inline instead of embedding
// metrics.Counters. A run checkpointed before the upgrade must resume.
const pr19Stats = `[{"superstep":4,"active":42,"msgs_sent":90,"msgs_delivered":88,"pages_read":17,"pages_written":5,"storage_ns":1300000,"compute_ns":250000,"colidx_pages_read":6,"edgelog_pages_read":2,"cache_hits":11,"cache_misses":3,"retries":1,"retry_backoff_ns":100000,"checkpoints":1,"checkpoint_pages":4,"checkpoint_ns":400000,"spills":2,"spill_bytes":8192,"msg_skew":1.5,"stages":[{"stage":"vertex","pages_read":17,"pages_written":5,"time_ns":1300000,"cache_misses":3}],"io_skew":1.25,"interval_pages":{"n":0,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0},"read_batch_pages":{"n":2,"sum":17,"mean":8.5,"p50":15,"p90":15,"p99":15,"max":15,"buckets":{"8-15":2}},"write_batch_pages":{"n":0,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0},"read_latency_us":{"n":0,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0},"write_latency_us":{"n":0,"sum":0,"mean":0,"p50":0,"p90":0,"p99":0,"max":0}}]`

func TestDecodePR19StatsPayload(t *testing.T) {
	st := sampleState(0, 5)
	st.Supersteps = nil
	payload, err := encode(st)
	if err != nil {
		t.Fatal(err)
	}
	// The stats section is the payload's tail: a u32 length and the JSON.
	// With no supersteps that JSON is "null"; swap in the old-format text.
	var tail bytes.Buffer
	putU32(&tail, uint32(len(pr19Stats)))
	tail.WriteString(pr19Stats)
	payload = append(payload[:len(payload)-len("null")-4], tail.Bytes()...)

	got, err := decode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Supersteps) != 1 {
		t.Fatalf("decoded %d supersteps, want 1", len(got.Supersteps))
	}
	ss := got.Supersteps[0]
	want := metrics.Counters{Active: 42, MsgsSent: 90, MsgsDelivered: 88,
		PagesRead: 17, PagesWritten: 5, StorageTime: 1300 * time.Microsecond, ComputeTime: 250 * time.Microsecond,
		ColIdxPagesRead: 6, EdgeLogPagesRead: 2, CacheHits: 11, CacheMisses: 3,
		Retries: 1, RetryBackoff: 100 * time.Microsecond,
		Checkpoints: 1, CheckpointPages: 4, CheckpointTime: 400 * time.Microsecond,
		Spills: 2, SpillBytes: 8192}
	if ss.Superstep != 4 || ss.Counters != want {
		t.Fatalf("superstep %d counters:\n got %+v\nwant %+v", ss.Superstep, ss.Counters, want)
	}
	if ss.MsgSkew != 1.5 || ss.IOSkew != 1.25 || len(ss.Stages) != 1 || ss.Stages[0].PagesRead != 17 {
		t.Fatalf("non-counter fields lost: %+v", ss)
	}
	if ss.ReadBatchPages.N != 2 || ss.ReadBatchPages.Sum != 17 {
		t.Fatalf("read-batch histogram = %+v", ss.ReadBatchPages)
	}
}
