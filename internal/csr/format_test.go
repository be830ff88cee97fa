package csr

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"multilogvc/internal/graphio"
	"multilogvc/internal/ssd"
)

// dirDigest hashes every file of a device directory, name and contents, in
// name order, and returns the digest with the per-file hashes behind it.
func dirDigest(t *testing.T, dir string) (string, []string) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	slices.Sort(names)
	all := sha256.New()
	var files []string
	for _, n := range names {
		b, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		files = append(files, n+" "+hex.EncodeToString(sum[:8]))
		all.Write([]byte(n))
		all.Write(sum[:])
	}
	return hex.EncodeToString(all.Sum(nil)), files
}

// TestCSRFormatPinned pins the on-disk CSR format: the bytes of every file a
// fixed graph leaves on a directory-backed device after Build and after one
// delta merge, and the pages that merge moves. A change to how the files are
// laid out or written shows up here as a digest mismatch.
func TestCSRFormatPinned(t *testing.T) {
	const n = 16
	var base []graphio.WeightedEdge
	for v := uint32(0); v < n; v++ {
		base = append(base,
			graphio.WeightedEdge{Src: v, Dst: (3*v + 1) % n, Weight: 7*v + 1},
			graphio.WeightedEdge{Src: v, Dst: (5*v + 2) % n, Weight: 7*v + 2})
	}
	muts := []Mutation{
		{Src: 0, Dst: 9, Weight: 90},
		{Src: 14, Dst: 2, Weight: 142},
		{Del: true, Src: 3, Dst: 10},    // a base edge
		{Src: 0, Dst: 9, Weight: 91},    // a second instance, another weight
		{Del: true, Src: 14, Dst: 2},    // cancels the add above
		{Del: true, Src: 11, Dst: 2},    // a base edge in another interval
		{Src: 15, Dst: 15, Weight: 150}, // a self-loop
		{Del: true, Src: 6, Dst: 6},     // no such edge
	}
	for _, tc := range []struct {
		name                    string
		weighted                bool
		build, merged           string
		pagesRead, pagesWritten uint64
	}{
		{name: "unweighted",
			build:     "65119bc2a1a1a25072bb5222540e6fb12110db96cf697afc4ebced6881822f2e",
			merged:    "676c76e5bb7e3768401bd4520136db38787de791ef57983b06b496e2982ef826",
			pagesRead: 25, pagesWritten: 28},
		{name: "weighted", weighted: true,
			build:     "b2e60666fc610b36248831a49e6105b1c0a668471de6ee9362039919ccb083ce",
			merged:    "beb0834a96d2045f3ca8a0f16b904ceaf4c56b5290664bbc2fdb2dafecff4536",
			pagesRead: 36, pagesWritten: 39},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			dev := ssd.MustOpen(ssd.Config{PageSize: 128, Channels: 2, Dir: dir})
			opts := BuildOptions{IntervalBudget: 5 * 2 * MsgBytes}
			var g *Graph
			var err error
			if tc.weighted {
				g, err = BuildWeighted(dev, "g", base, opts)
			} else {
				g, err = Build(dev, "g", graphio.Strip(base), opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			if len(g.Intervals()) < 2 {
				t.Fatalf("%d intervals, want at least 2", len(g.Intervals()))
			}
			if got, files := dirDigest(t, dir); got != tc.build {
				t.Errorf("after Build: digest %s, want %s\n%v", got, tc.build, files)
			}

			g, err = OpenIngest(dev, "g", IngestOptions{WAL: true, MergeThreshold: 1 << 30})
			if err != nil {
				t.Fatal(err)
			}
			if err := g.ApplyMutations(muts, 1<<30); err != nil {
				t.Fatal(err)
			}
			before := dev.Stats()
			if err := g.MergeInterval(0); err != nil {
				t.Fatal(err)
			}
			d := dev.Stats().Sub(before)
			if d.PagesRead != tc.pagesRead || d.PagesWritten != tc.pagesWritten {
				t.Errorf("merge moved %d pages read, %d written; want %d, %d",
					d.PagesRead, d.PagesWritten, tc.pagesRead, tc.pagesWritten)
			}
			if err := g.CloseIngest(); err != nil {
				t.Fatal(err)
			}
			if got, files := dirDigest(t, dir); got != tc.merged {
				t.Errorf("after merge: digest %s, want %s\n%v", got, tc.merged, files)
			}
		})
	}
}
