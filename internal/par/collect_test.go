package par

import (
	"cmp"
	"math/rand"
	"testing"
)

type collectCand struct {
	id   int
	gain float64
}

// The refiners' candidate order: gain descending, id ascending — a strict
// total order because ids are distinct.
func candCmp(a, b collectCand) int {
	if a.gain != b.gain {
		return cmp.Compare(b.gain, a.gain)
	}
	return cmp.Compare(a.id, b.id)
}

func TestMergerCollectWidthsIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 20; trial++ {
		n := rng.Intn(300)
		// Pure per-index candidate function: a hash-derived gain with heavy
		// ties (gains drawn from just 5 values) and ~1/3 dropped indices.
		gains := make([]float64, n)
		kept := make([]bool, n)
		for i := range gains {
			gains[i] = float64(rng.Intn(5))
			kept[i] = rng.Intn(3) != 0
		}
		gen := func(i int) (collectCand, bool) {
			return collectCand{id: i, gain: gains[i]}, kept[i]
		}
		var ref Merger[collectCand]
		want := append([]collectCand(nil), ref.Collect(1, n, gen, candCmp)...)
		for _, workers := range []int{2, 3, 4, 8, 0} {
			var m Merger[collectCand]
			got := m.Collect(workers, n, gen, candCmp)
			if len(got) != len(want) {
				t.Fatalf("workers=%d n=%d: %d candidates, want %d", workers, n, len(got), len(want))
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("workers=%d n=%d: candidate %d = %+v, want %+v", workers, n, i, got[i], want[i])
				}
			}
		}
	}
}

func TestMergerCollectSortsTotalOrder(t *testing.T) {
	var m Merger[collectCand]
	gains := []float64{3, 1, 3, 2, 3, 1}
	out := m.Collect(2, len(gains), func(i int) (collectCand, bool) {
		return collectCand{id: i, gain: gains[i]}, true
	}, candCmp)
	want := []collectCand{{0, 3}, {2, 3}, {4, 3}, {3, 2}, {1, 1}, {5, 1}}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("position %d: %+v, want %+v", i, out[i], want[i])
		}
	}
}

func TestMergerCollectReuse(t *testing.T) {
	// A shrinking second collection must not see stale kept slots from the
	// first.
	var m Merger[collectCand]
	m.Collect(2, 100, func(i int) (collectCand, bool) {
		return collectCand{id: i, gain: 1}, true
	}, candCmp)
	out := m.Collect(2, 4, func(i int) (collectCand, bool) {
		return collectCand{id: i, gain: float64(i)}, i%2 == 0
	}, candCmp)
	want := []collectCand{{2, 2}, {0, 0}}
	if len(out) != len(want) {
		t.Fatalf("got %d candidates, want %d", len(out), len(want))
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("position %d: %+v, want %+v", i, out[i], want[i])
		}
	}
}
