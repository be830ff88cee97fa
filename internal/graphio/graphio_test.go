package graphio

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestReadText(t *testing.T) {
	input := `# comment
% also comment
0 1
1 2

2 0
`
	edges, err := ReadText(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	want := []Edge{{0, 1}, {1, 2}, {2, 0}}
	if len(edges) != len(want) {
		t.Fatalf("got %v, want %v", edges, want)
	}
	for i := range want {
		if edges[i] != want[i] {
			t.Fatalf("got %v, want %v", edges, want)
		}
	}
}

func TestReadTextTabsAndExtraFields(t *testing.T) {
	edges, err := ReadText(strings.NewReader("3\t4\t1.5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(edges) != 1 || edges[0] != (Edge{3, 4}) {
		t.Fatalf("got %v", edges)
	}
}

func TestReadTextErrors(t *testing.T) {
	for _, bad := range []string{"5\n", "a b\n", "1 x\n", "-1 2\n"} {
		if _, err := ReadText(strings.NewReader(bad)); !errors.Is(err, ErrBadFormat) {
			t.Errorf("input %q: err = %v, want ErrBadFormat", bad, err)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	in := []Edge{{0, 5}, {5, 0}, {100000, 3}}
	var buf bytes.Buffer
	if err := WriteText(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip %v != %v", out, in)
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip %v != %v", out, in)
		}
	}
}

func TestBinaryRoundTrip(t *testing.T) {
	in := []Edge{{1, 2}, {4294967295, 0}, {7, 7}}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("round trip len %d != %d", len(out), len(in))
	}
	for i := range in {
		if out[i] != in[i] {
			t.Fatalf("round trip %v != %v", out, in)
		}
	}
}

func TestBinaryBadMagic(t *testing.T) {
	if _, err := ReadBinary(bytes.NewReader(make([]byte, 16))); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("err = %v, want ErrBadFormat", err)
	}
	if _, err := ReadBinary(bytes.NewReader([]byte{1, 2})); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("short err = %v, want ErrBadFormat", err)
	}
}

func TestBinaryTruncated(t *testing.T) {
	var buf bytes.Buffer
	WriteBinary(&buf, []Edge{{1, 2}, {3, 4}})
	trunc := buf.Bytes()[:buf.Len()-4]
	if _, err := ReadBinary(bytes.NewReader(trunc)); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("truncated err = %v, want ErrBadFormat", err)
	}
}

func TestNumVertices(t *testing.T) {
	if NumVertices(nil) != 0 {
		t.Fatal("empty should be 0")
	}
	if got := NumVertices([]Edge{{0, 0}}); got != 1 {
		t.Fatalf("single self loop = %d, want 1", got)
	}
	if got := NumVertices([]Edge{{3, 9}, {1, 2}}); got != 10 {
		t.Fatalf("got %d, want 10", got)
	}
}

func TestDegrees(t *testing.T) {
	edges := []Edge{{0, 1}, {0, 2}, {1, 2}, {2, 0}}
	out := OutDegrees(edges, 3)
	wantOut := []uint32{2, 1, 1}
	for i := range wantOut {
		if out[i] != wantOut[i] {
			t.Fatalf("OutDegrees = %v, want %v", out, wantOut)
		}
	}
}

func TestMakeUndirected(t *testing.T) {
	edges := []Edge{{0, 1}, {1, 0}, {2, 2}, {0, 1}}
	und := MakeUndirected(edges)
	want := []Edge{{0, 1}, {1, 0}}
	if len(und) != len(want) {
		t.Fatalf("got %v, want %v", und, want)
	}
	for i := range want {
		if und[i] != want[i] {
			t.Fatalf("got %v, want %v", und, want)
		}
	}
}

func TestDedup(t *testing.T) {
	edges := []Edge{{5, 1}, {0, 1}, {5, 1}, {0, 1}, {0, 0}}
	d := Dedup(edges)
	want := []Edge{{0, 0}, {0, 1}, {5, 1}}
	if len(d) != len(want) {
		t.Fatalf("got %v, want %v", d, want)
	}
	for i := range want {
		if d[i] != want[i] {
			t.Fatalf("got %v, want %v", d, want)
		}
	}
	if got := Dedup(nil); len(got) != 0 {
		t.Fatal("Dedup(nil) should be empty")
	}
}

// Property: MakeUndirected output is symmetric, loop-free, and deduplicated.
func TestQuickUndirectedSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		edges := make([]Edge, 0, 50)
		for i := 0; i < 50; i++ {
			edges = append(edges, Edge{uint32(rng.Intn(20)), uint32(rng.Intn(20))})
		}
		und := MakeUndirected(edges)
		set := make(map[Edge]bool, len(und))
		for _, e := range und {
			if e.Src == e.Dst || set[e] {
				return false
			}
			set[e] = true
		}
		for e := range set {
			if !set[Edge{e.Dst, e.Src}] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: binary round trip is the identity for random edge lists.
func TestQuickBinaryRoundTrip(t *testing.T) {
	f := func(pairs []uint32) bool {
		edges := make([]Edge, 0, len(pairs)/2)
		for i := 0; i+1 < len(pairs); i += 2 {
			edges = append(edges, Edge{pairs[i], pairs[i+1]})
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, edges); err != nil {
			return false
		}
		out, err := ReadBinary(&buf)
		if err != nil || len(out) != len(edges) {
			return false
		}
		for i := range edges {
			if out[i] != edges[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestWeightedHelpers(t *testing.T) {
	edges := []Edge{{Src: 0, Dst: 1}, {Src: 1, Dst: 0}}
	w := AttachWeights(edges, func(s, d uint32) uint32 { return s + d + 1 })
	if w[0].Weight != 2 || w[1].Weight != 2 {
		t.Fatalf("AttachWeights = %v", w)
	}
	stripped := Strip(w)
	for i := range edges {
		if stripped[i] != edges[i] {
			t.Fatalf("Strip = %v", stripped)
		}
	}
}

func TestSortWeighted(t *testing.T) {
	w := []WeightedEdge{{2, 0, 9}, {0, 5, 7}, {0, 2, 3}}
	SortWeighted(w)
	if w[0] != (WeightedEdge{0, 2, 3}) || w[2] != (WeightedEdge{2, 0, 9}) {
		t.Fatalf("SortWeighted = %v", w)
	}
}

func TestDedupWeightedKeepsFirstWeight(t *testing.T) {
	w := []WeightedEdge{{0, 1, 5}, {0, 1, 9}, {1, 0, 3}}
	d := DedupWeighted(w)
	if len(d) != 2 {
		t.Fatalf("DedupWeighted = %v", d)
	}
	if d[0] != (WeightedEdge{0, 1, 5}) {
		t.Fatalf("first weight not kept: %v", d[0])
	}
	if got := DedupWeighted(nil); len(got) != 0 {
		t.Fatal("DedupWeighted(nil) should be empty")
	}

	// Past a dozen edges an unstable sort reorders duplicates: weight the
	// edges by input index, so the first of each duplicate has the least.
	rng := rand.New(rand.NewSource(1))
	w = make([]WeightedEdge, 5000)
	first := map[[2]uint32]uint32{}
	for i := range w {
		e := WeightedEdge{uint32(rng.Intn(50)), uint32(rng.Intn(50)), uint32(i)}
		w[i] = e
		if _, ok := first[[2]uint32{e.Src, e.Dst}]; !ok {
			first[[2]uint32{e.Src, e.Dst}] = e.Weight
		}
	}
	d = DedupWeighted(w)
	later := 0
	for _, e := range d {
		if e.Weight != first[[2]uint32{e.Src, e.Dst}] {
			later++
		}
	}
	if later != 0 || len(d) != len(first) {
		t.Fatalf("%d of %d kept edges carry a later duplicate's weight (%d distinct)", later, len(d), len(first))
	}
}

func TestMakeUndirectedWeighted(t *testing.T) {
	w := []WeightedEdge{{0, 1, 7}, {2, 2, 1}}
	und := MakeUndirectedWeighted(w)
	if len(und) != 2 {
		t.Fatalf("MakeUndirectedWeighted = %v", und)
	}
	for _, e := range und {
		if e.Weight != 7 {
			t.Fatalf("weight lost: %v", und)
		}
	}
	if und[0].Src == und[1].Src {
		t.Fatalf("reverse edge missing: %v", und)
	}
}
