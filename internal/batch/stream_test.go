package batch

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"trajmotif/internal/datagen"
	"trajmotif/internal/traj"
	"trajmotif/internal/trajio"
)

// corpusDir is the shared streaming testdata corpus.
var corpusDir = filepath.Join("..", "trajio", "testdata", "corpus")

// scrubItems zeroes the wall-clock timing fields so reflect.DeepEqual
// compares only deterministic content (spans, distance bits, effort
// counters) — the same convention as the parallel-determinism suites.
func scrubItems(items []Item) []Item {
	for _, it := range items {
		if it.Result != nil {
			it.Result.Stats.Precompute, it.Result.Stats.Search = 0, 0
			it.Result.Group.Stats.Precompute, it.Result.Group.Stats.Search = 0, 0
		}
	}
	return items
}

func scrubPairs(items []PairItem) []PairItem {
	for _, it := range items {
		if it.Result != nil {
			it.Result.Stats.Precompute, it.Result.Stats.Search = 0, 0
			it.Result.Group.Stats.Precompute, it.Result.Group.Stats.Search = 0, 0
		}
	}
	return items
}

// slurpCorpus loads every corpus file in DirSource's sorted order.
func slurpCorpus(t *testing.T) []*traj.Trajectory {
	t.Helper()
	var paths []string
	err := filepath.WalkDir(corpusDir, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			paths = append(paths, p)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(paths)
	ts := make([]*traj.Trajectory, len(paths))
	for k, p := range paths {
		if ts[k], err = trajio.ReadFile(p); err != nil {
			t.Fatalf("%s: %v", p, err)
		}
	}
	return ts
}

// TestDiscoverStreamCorpusParity is the PR's acceptance criterion:
// streaming the testdata corpus through DiscoverStream returns results
// byte-identical to slurping every file and calling Discover, for
// worker counts 1 and 4.
func TestDiscoverStreamCorpusParity(t *testing.T) {
	ts := slurpCorpus(t)
	const xi = 2
	for _, workers := range []int{1, 4} {
		opt := &Options{Workers: workers}
		want, err := Discover(ts, xi, opt)
		if err != nil {
			t.Fatal(err)
		}
		for _, it := range want {
			if it.Err != nil {
				t.Fatalf("corpus trajectory %d infeasible (fix the corpus): %v", it.Index, it.Err)
			}
		}

		ds, err := trajio.OpenDir(corpusDir, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, err := DiscoverStream(ds, xi, opt)
		if err != nil {
			t.Fatal(err)
		}
		if errs := ds.Errs(); len(errs) != 0 {
			t.Fatalf("workers=%d: corpus errors: %v", workers, errs)
		}
		if !reflect.DeepEqual(scrubItems(got), scrubItems(want)) {
			t.Errorf("workers=%d: DiscoverStream differs from Discover over the slurped corpus", workers)
		}
	}
}

// TestDiscoverStreamItemErrors pins the per-item error convention under
// a serial and a parallel pool: a nil member yields an error item at its
// own index, and its neighbours still get results in input order.
func TestDiscoverStreamItemErrors(t *testing.T) {
	ts := []*traj.Trajectory{
		datagen.GeoLife(datagen.Config{Seed: 1, N: 80}),
		nil,
		datagen.Truck(datagen.Config{Seed: 2, N: 80}),
		datagen.Baboon(datagen.Config{Seed: 3, N: 80}),
	}
	for _, workers := range []int{1, 4} {
		items, err := DiscoverStream(SliceSource(ts), 4, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		if len(items) != len(ts) {
			t.Fatalf("workers=%d: %d items for %d inputs", workers, len(items), len(ts))
		}
		for k, it := range items {
			if it.Index != k || (it.Err != nil) != (k == 1) || (it.Result == nil) != (k == 1) {
				t.Errorf("workers=%d: item %d = {Index %d, Err %v, Result nil %v}", workers, k, it.Index, it.Err, it.Result == nil)
			}
		}
	}

	if _, err := DiscoverStream(SliceSource(nil), -1, nil); err == nil {
		t.Error("negative xi should error")
	}
}

// errSource yields n trajectories then fails.
type errSource struct {
	ts  []*traj.Trajectory
	idx int
}

func (s *errSource) Next() (*traj.Trajectory, error) {
	if s.idx >= len(s.ts) {
		return nil, fmt.Errorf("backing store exploded")
	}
	t := s.ts[s.idx]
	s.idx++
	return t, nil
}

// TestDiscoverStreamSourceError: a mid-stream source failure returns the
// completed items plus the error.
func TestDiscoverStreamSourceError(t *testing.T) {
	ts := []*traj.Trajectory{
		datagen.GeoLife(datagen.Config{Seed: 1, N: 60}),
		datagen.Truck(datagen.Config{Seed: 2, N: 60}),
	}
	items, err := DiscoverStream(&errSource{ts: ts}, 4, &Options{Workers: 2})
	if err == nil || errors.Is(err, io.EOF) {
		t.Fatalf("want the source error, got %v", err)
	}
	if len(items) != 2 {
		t.Fatalf("got %d items before the failure, want 2", len(items))
	}
	for _, it := range items {
		if it.Err != nil || it.Result == nil {
			t.Errorf("item %d incomplete despite being dispatched before the failure", it.Index)
		}
	}
}

// TestDiscoverAllPairsStreamParity: a window holding every input
// reproduces DiscoverAllPairs (the unbounded window) exactly; a bounded
// window yields exactly the pairs within it.
func TestDiscoverAllPairsStreamParity(t *testing.T) {
	ts := []*traj.Trajectory{
		datagen.GeoLife(datagen.Config{Seed: 1, N: 60}),
		datagen.Truck(datagen.Config{Seed: 2, N: 60}),
		datagen.Baboon(datagen.Config{Seed: 3, N: 60}),
		datagen.GeoLife(datagen.Config{Seed: 4, N: 60}),
	}
	for _, workers := range []int{1, 4} {
		opt := &Options{Workers: workers}
		want, err := DiscoverAllPairs(ts, 4, opt)
		if err != nil {
			t.Fatal(err)
		}
		scrubPairs(want)
		for _, window := range []int{len(ts), len(ts) + 3} {
			got, err := DiscoverAllPairsStream(SliceSource(ts), 4, window, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scrubPairs(got), want) {
				t.Errorf("workers=%d window=%d: stream pairs differ from DiscoverAllPairs", workers, window)
			}
		}

		// window=2: only consecutive pairs, each identical to the
		// corresponding slurp pair.
		got, err := DiscoverAllPairsStream(SliceSource(ts), 4, 2, opt)
		if err != nil {
			t.Fatal(err)
		}
		scrubPairs(got)
		if len(got) != len(ts)-1 {
			t.Fatalf("window=2 yielded %d pairs, want %d", len(got), len(ts)-1)
		}
		for k, p := range got {
			if p.I != k || p.J != k+1 {
				t.Fatalf("window=2 pair %d is (%d,%d), want (%d,%d)", k, p.I, p.J, k, k+1)
			}
			var ref PairItem
			for _, wp := range want {
				if wp.I == p.I && wp.J == p.J {
					ref = wp
					break
				}
			}
			if !reflect.DeepEqual(p, ref) {
				t.Errorf("window=2 pair (%d,%d) differs from the slurp result", p.I, p.J)
			}
		}

		// window=1 retains nothing and pairs nothing.
		got, err = DiscoverAllPairsStream(SliceSource(ts), 4, 1, opt)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != 0 {
			t.Errorf("window=1 yielded %d pairs, want 0", len(got))
		}
	}

	// A nil trajectory is terminal, mirroring DiscoverAllPairs.
	if _, err := DiscoverAllPairsStream(SliceSource([]*traj.Trajectory{ts[0], nil}), 4, 0, nil); err == nil {
		t.Error("nil trajectory should be a terminal error")
	}
}
