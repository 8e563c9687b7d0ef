package store

import (
	"math"
	"os"
	"reflect"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/join"
	"trajmotif/internal/traj"
)

// TestEndpointDistsMemo pins the pair-distance memo: first touch builds,
// repeats and the swapped orientation hit the same entry, values are the
// exact float64s direct evaluation produces, and eviction purges.
func TestEndpointDistsMemo(t *testing.T) {
	s := New(nil)
	ts := []*traj.Trajectory{fixture(t, 1, 40), fixture(t, 2, 30), fixture(t, 3, 20)}
	ids := make([]ID, len(ts))
	for k, tr := range ts {
		id, _, err := s.Add(tr)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	memo := s.EndpointDists(ts)
	if memo == nil {
		t.Fatal("EndpointDists returned nil with caching enabled")
	}
	check := func(i, j int, wantOK bool) {
		t.Helper()
		a, b := ts[i].Points, ts[j].Points
		d0, dn, ok := memo(i, j)
		if ok != wantOK {
			t.Fatalf("memo(%d,%d) ok=%v, want %v", i, j, ok, wantOK)
		}
		w0 := geo.Haversine(a[0], b[0])
		wn := geo.Haversine(a[len(a)-1], b[len(b)-1])
		if math.Float64bits(d0) != math.Float64bits(w0) || math.Float64bits(dn) != math.Float64bits(wn) {
			t.Fatalf("memo(%d,%d) = (%v, %v), want (%v, %v)", i, j, d0, dn, w0, wn)
		}
	}
	check(0, 1, true)
	check(0, 1, true)
	check(1, 0, true) // symmetric orientation shares the entry
	check(0, 2, true)
	st := s.Stats()
	if st.PairDistsBuilt != 2 || st.PairDistsReused != 2 {
		t.Fatalf("built=%d reused=%d, want 2/2", st.PairDistsBuilt, st.PairDistsReused)
	}

	// The memo plugs into the join without changing results or counters.
	want, wst, err := join.Join(ts, 5e5, &join.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	got, gst, err := join.Join(ts, 5e5, &join.Options{Exact: true, EndpointDists: s.EndpointDists(ts)})
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(got) || wst != gst {
		t.Fatalf("memoized join diverged: %+v %+v vs %+v %+v", want, wst, got, gst)
	}

	// Removing a trajectory purges its pair entries: the next touch
	// rebuilds instead of reusing.
	before := s.Stats().PairDistsBuilt
	s.Remove(ids[0])
	check(0, 1, true)
	if s.Stats().PairDistsBuilt != before+1 {
		t.Fatalf("pair entry survived eviction (built=%d, want %d)", s.Stats().PairDistsBuilt, before+1)
	}

	// Caching disabled: no memo.
	off := New(&Options{CacheBytes: -1})
	if off.EndpointDists(ts) != nil {
		t.Error("EndpointDists should be nil with caching disabled")
	}
}

// TestJoinMemoStaysInRAM: a /join-shaped run over a store with the disk
// tier on fills the endpoint memo in RAM only. Every disk write is a
// grid or bound table (DiskWrites == Built), the join adds no file, and
// the pair entries show up in Artifacts instead.
func TestJoinMemoStaysInRAM(t *testing.T) {
	dir := t.TempDir()
	s := New(&Options{ArtifactDir: dir})
	ts := []*traj.Trajectory{fixture(t, 1, 40), fixture(t, 2, 30), fixture(t, 3, 20), fixture(t, 4, 25)}
	ids := make([]ID, len(ts))
	for k, tr := range ts {
		id, _, err := s.Add(tr)
		if err != nil {
			t.Fatal(err)
		}
		ids[k] = id
	}
	// One discover first, so the tier holds grids the join must leave
	// alone.
	if _, err := core.BTM(ts[0], 5, &core.Options{Workers: 1, Artifacts: s}); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.DiskWrites == 0 || before.DiskWrites != before.Built {
		t.Fatalf("discover did not spill its artifacts: %+v", before)
	}

	want, wst, err := join.Join(ts, 5e5, &join.Options{Exact: true})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		got, gst, err := join.Join(ts, 5e5, &join.Options{
			Exact: true, Index: s.IndexFor(ids, ts), EndpointDists: s.EndpointDists(ts),
		})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || gst.Reported != wst.Reported || gst.EndpointPruned != wst.EndpointPruned {
			t.Fatalf("round %d: memoized join diverged: %+v %+v vs %+v %+v", round, got, gst, want, wst)
		}
	}

	after := s.Stats()
	if after.PairDistsBuilt == 0 || after.PairDistsReused == 0 {
		t.Fatalf("join never used the memo: %+v", after)
	}
	if after.DiskWrites != after.Built || after.DiskWrites != before.DiskWrites {
		t.Fatalf("join wrote to disk: before %+v after %+v", before, after)
	}
	if after.DiskArtifacts != before.DiskArtifacts || after.DiskBytes != before.DiskBytes {
		t.Fatalf("join changed the disk tier: before %+v after %+v", before, after)
	}
	if got := int64(after.Artifacts - before.Artifacts); got != after.PairDistsBuilt {
		t.Fatalf("Artifacts grew by %d, want the %d pair entries", got, after.PairDistsBuilt)
	}
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != before.DiskArtifacts {
		t.Fatalf("%d files on disk, want %d", len(files), before.DiskArtifacts)
	}
}
