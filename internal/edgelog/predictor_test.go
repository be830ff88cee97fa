package edgelog

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"multilogvc/internal/bitset"
	"multilogvc/internal/csr"
)

// refPredictor is the map-based predictor this package had before the
// bitmaps (commit 0b35599), kept as the reference the property test compares
// against.
type refPredictor struct {
	threshold            float64
	pageSize             int
	prevActive           *bitset.Set
	prevIneff, currIneff map[csr.PageKey]bool
	currSeen             map[csr.PageKey]bool
	correct              int
}

func (p *refPredictor) notePageUtils(utils []csr.PageUtil) {
	for _, u := range utils {
		if p.currSeen[u.Key] {
			continue
		}
		p.currSeen[u.Key] = true
		if u.UsedBytes > 0 && float64(u.UsedBytes)/float64(p.pageSize) < p.threshold {
			p.currIneff[u.Key] = true
			if p.prevIneff[u.Key] {
				p.correct++
			}
		}
	}
}

func (p *refPredictor) endSuperstep(currActive *bitset.Set) StepStats {
	st := StepStats{uint64(len(p.currIneff)), uint64(len(p.prevIneff)), uint64(p.correct), uint64(len(p.currSeen))}
	p.prevActive = currActive
	p.prevIneff, p.currIneff, p.currSeen, p.correct = p.currIneff, map[csr.PageKey]bool{}, map[csr.PageKey]bool{}, 0
	return st
}

func (p *refPredictor) history() ([]uint64, []csr.PageKey) {
	keys := make([]csr.PageKey, 0, len(p.prevIneff))
	for k := range p.prevIneff {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		a, b := keys[i], keys[j]
		if a.Side != b.Side {
			return a.Side < b.Side
		}
		if a.Interval != b.Interval {
			return a.Interval < b.Interval
		}
		return a.Page < b.Page
	})
	return p.prevActive.Words(), keys
}

// TestPredictorMatchesMapReference drives the bitmap predictor and the map
// reference through the same random supersteps — pages repeated within a
// superstep, pages past every earlier maximum, page sizes that are no power of
// two — and compares every answer after every step, then once more on a
// predictor restored from the History of the first.
func TestPredictorMatchesMapReference(t *testing.T) {
	const n = 500
	for _, pageSize := range []int{120, 1000, 4096} {
		rng := rand.New(rand.NewSource(int64(pageSize)))
		p := NewPredictor(n, pageSize, 0)
		ref := &refPredictor{
			threshold: DefaultThreshold, pageSize: pageSize, prevActive: bitset.New(n),
			prevIneff: map[csr.PageKey]bool{}, currIneff: map[csr.PageKey]bool{}, currSeen: map[csr.PageKey]bool{},
		}
		maxPage := 4
		randKey := func() csr.PageKey {
			return csr.PageKey{Side: uint8(rng.Intn(2)), Interval: int32(rng.Intn(7)), Page: int32(rng.Intn(maxPage))}
		}
		check := func(p *Predictor, step int) {
			t.Helper()
			for i := 0; i < 200; i++ {
				k := randKey()
				k.Page += int32(rng.Intn(3) * maxPage / 2) // past the end of any bitmap, too
				if got, want := p.PageIneff(k), ref.prevIneff[k]; got != want {
					t.Fatalf("page size %d, step %d: PageIneff(%+v) = %v, want %v", pageSize, step, k, got, want)
				}
				if got, want := p.PageIneffNow(k), ref.currIneff[k]; got != want {
					t.Fatalf("page size %d, step %d: PageIneffNow(%+v) = %v, want %v", pageSize, step, k, got, want)
				}
			}
		}
		for step := 0; step < 40; step++ {
			maxPage += rng.Intn(40) // files grow: later steps reach pages no earlier one did
			currActive := bitset.New(n)
			for i := rng.Intn(60); i > 0; i-- {
				v := uint32(rng.Intn(n))
				p.NoteActive(v)
				currActive.Set(int(v))
			}
			for batch := rng.Intn(5); batch > 0; batch-- {
				utils := make([]csr.PageUtil, rng.Intn(30))
				for i := range utils {
					utils[i] = csr.PageUtil{Key: randKey(), UsedBytes: int32(rng.Intn(pageSize / 4))}
				}
				p.NotePageUtils(utils)
				ref.notePageUtils(utils)
				check(p, step)
			}
			if got, want := p.EndSuperstep(), ref.endSuperstep(currActive); got != want {
				t.Fatalf("page size %d, step %d: StepStats = %+v, want %+v", pageSize, step, got, want)
			}
			check(p, step)
			gotActive, gotIneff := p.History()
			wantActive, wantIneff := ref.history()
			if !reflect.DeepEqual(gotActive, wantActive) || !reflect.DeepEqual(gotIneff, wantIneff) {
				t.Fatalf("page size %d, step %d: History differs from the reference:\n got %v\nwant %v", pageSize, step, gotIneff, wantIneff)
			}
			// A predictor restored from that history — one that had measured
			// something else before — answers as the original does.
			q := NewPredictor(n, pageSize, 0)
			q.NotePageUtils([]csr.PageUtil{{Key: randKey(), UsedBytes: 1}})
			q.EndSuperstep()
			q.NotePageUtils([]csr.PageUtil{{Key: randKey(), UsedBytes: 1}})
			q.RestoreHistory(gotActive, gotIneff)
			check(q, step)
			if a, i := q.History(); !reflect.DeepEqual(a, wantActive) || !reflect.DeepEqual(i, wantIneff) {
				t.Fatalf("page size %d, step %d: History after RestoreHistory differs", pageSize, step)
			}
		}
	}
}
