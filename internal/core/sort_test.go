package core

// Parity suite for the parallel multiway merge behind SortEntries.

import (
	"math/rand"
	"testing"
)

// TestSortEntriesMultiwayBitIdentical pins the parallel multiway merge
// against the sequential sort for workers 1/2/4/8 on feeds above the
// parallel threshold, with heavily duplicated LB values so the (I, J)
// tiebreak is what actually orders large runs.
func TestSortEntriesMultiwayBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	sizes := []int{1 << 14, 1<<14 + 1, 1<<16 + 777}
	for _, n := range sizes {
		base := make([]Entry, n)
		seen := make(map[[2]int32]bool, n)
		for i := range base {
			var ij [2]int32
			for {
				ij = [2]int32{int32(rng.Intn(1 << 12)), int32(rng.Intn(1 << 12))}
				if !seen[ij] {
					seen[ij] = true
					break
				}
			}
			// Only 17 distinct LBs: long runs of ties.
			base[i] = Entry{LB: float64(rng.Intn(17)), I: ij[0], J: ij[1]}
		}
		want := append([]Entry(nil), base...)
		SortEntries(want, 1)
		for i := 1; i < len(want); i++ {
			if !entryLess(want[i-1], want[i]) {
				t.Fatalf("n=%d: sequential reference not strictly increasing at %d", n, i)
			}
		}
		for _, workers := range []int{2, 4, 8} {
			got := append([]Entry(nil), base...)
			SortEntries(got, workers)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("n=%d workers=%d: entry %d = %+v, want %+v", n, workers, i, got[i], want[i])
				}
			}
		}
	}
}

// TestSortEntriesSmallAndDegenerate keeps the below-threshold path and
// empty/single-entry feeds honest.
func TestSortEntriesSmallAndDegenerate(t *testing.T) {
	for _, n := range []int{0, 1, 2, 100} {
		list := make([]Entry, n)
		for i := range list {
			list[i] = Entry{LB: float64(n - i), I: int32(i), J: int32(i)}
		}
		SortEntries(list, 8)
		for i := 1; i < len(list); i++ {
			if entryLess(list[i], list[i-1]) {
				t.Fatalf("n=%d: out of order at %d", n, i)
			}
		}
	}
}
