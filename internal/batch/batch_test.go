package batch

import (
	"math"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/group"
	"trajmotif/internal/traj"
)

func fleet(n, points int) []*traj.Trajectory {
	var out []*traj.Trajectory
	for seed := int64(1); seed <= int64(n); seed++ {
		t, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: seed, N: points})
		if err != nil {
			panic(err)
		}
		out = append(out, t)
	}
	return out
}

// TestDiscoverMatchesSequential verifies the parallel batch returns
// exactly the sequential per-trajectory results, in input order, across
// worker counts.
func TestDiscoverMatchesSequential(t *testing.T) {
	ts := fleet(6, 150)
	xi := 8
	want := make([]float64, len(ts))
	for k, tr := range ts {
		res, err := group.GTM(tr, xi, 32, nil)
		if err != nil {
			t.Fatal(err)
		}
		want[k] = res.Distance
	}
	for _, workers := range []int{1, 2, 8} {
		items, err := Discover(ts, xi, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(ts) {
			t.Fatalf("workers=%d: %d items", workers, len(items))
		}
		for k, it := range items {
			if it.Err != nil {
				t.Fatalf("workers=%d item %d: %v", workers, k, it.Err)
			}
			if it.Index != k {
				t.Fatalf("workers=%d: item %d has index %d", workers, k, it.Index)
			}
			if math.Abs(it.Result.Distance-want[k]) > 1e-9 {
				t.Fatalf("workers=%d item %d: %g != sequential %g",
					workers, k, it.Result.Distance, want[k])
			}
		}
	}
}

func TestDiscoverPerItemErrors(t *testing.T) {
	ts := fleet(2, 150)
	short, _ := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: 9, N: 10})
	ts = append(ts, short, nil)
	items, err := Discover(ts, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if items[0].Err != nil || items[1].Err != nil {
		t.Error("healthy items errored")
	}
	if items[2].Err != core.ErrTooShort {
		t.Errorf("short trajectory: want ErrTooShort, got %v", items[2].Err)
	}
	if items[3].Err == nil {
		t.Error("nil trajectory should carry an error")
	}
	if _, err := Discover(ts, -1, nil); err == nil {
		t.Error("negative xi should fail the whole batch")
	}
}

func TestDiscoverAllPairs(t *testing.T) {
	ts := fleet(4, 120)
	xi := 8
	items, err := DiscoverAllPairs(ts, xi, &Options{Workers: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(items) != 6 { // C(4,2)
		t.Fatalf("%d pairs, want 6", len(items))
	}
	// Lexicographic order and sequential agreement.
	slot := 0
	for i := 0; i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			it := items[slot]
			slot++
			if it.I != i || it.J != j {
				t.Fatalf("slot %d: pair (%d,%d), want (%d,%d)", slot-1, it.I, it.J, i, j)
			}
			if it.Err != nil {
				t.Fatal(it.Err)
			}
			seq, err := group.GTMCross(ts[i], ts[j], xi, 32, nil)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(it.Result.Distance-seq.Distance) > 1e-9 {
				t.Fatalf("pair (%d,%d): %g != %g", i, j, it.Result.Distance, seq.Distance)
			}
		}
	}

	if _, err := DiscoverAllPairs([]*traj.Trajectory{nil}, xi, nil); err == nil {
		t.Error("nil input should fail pair batch upfront")
	}
	if _, err := DiscoverAllPairs(ts, -2, nil); err == nil {
		t.Error("negative xi should fail")
	}
}

func TestOptionDefaults(t *testing.T) {
	var o *Options
	if o.tau() != 32 {
		t.Errorf("nil options tau = %d", o.tau())
	}
	if o.workers() < 1 {
		t.Errorf("nil options workers = %d", o.workers())
	}
	if s := o.search(); s == nil || s.Workers != 1 {
		t.Errorf("nil options search = %+v, want within-search workers pinned to 1", s)
	}
	o = &Options{Tau: 8, Workers: 3}
	if o.tau() != 8 || o.workers() != 3 {
		t.Error("explicit options ignored")
	}
	o = &Options{Search: &core.Options{}}
	if s := o.search(); s.Workers != 1 {
		t.Errorf("zero Search.Workers = %d, want within-search workers pinned to 1", s.Workers)
	}
	search := &core.Options{Workers: 5}
	o = &Options{Search: search}
	if s := o.search(); s.Workers != 5 || s == search {
		t.Errorf("Search.Workers not threaded into a private copy: got %d (same pointer %v)", s.Workers, s == search)
	}
}
