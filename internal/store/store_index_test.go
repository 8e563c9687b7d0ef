package store

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

func walkAt(r *rand.Rand, n int, lat, lng float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	for i := range pts {
		lat += (r.Float64()*2 - 1) * 0.01
		lng += (r.Float64()*2 - 1) * 0.01
		pts[i] = geo.Point{Lat: lat, Lng: lng}
	}
	return traj.FromPoints(pts)
}

// TestSpatialMaintenance: the side-index tracks Add/Remove exactly —
// cached MBRs equal the Bound fold, candidates come back in insertion
// order, and removal drops the entry everywhere.
func TestSpatialMaintenance(t *testing.T) {
	r := rand.New(rand.NewSource(131))
	s := New(nil)
	var ids []ID
	for i := 0; i < 8; i++ {
		tr := walkAt(r, 10+i, 40+float64(i), -74+float64(i))
		id, created, err := s.Add(tr)
		if err != nil || !created {
			t.Fatalf("add %d: %v created=%v", i, err, created)
		}
		ids = append(ids, id)
		if got := s.mbrFor(id, tr); got != spatial.Bound(tr.Points) {
			t.Fatalf("mbrFor(%d) = %+v, want the Bound fold", i, got)
		}
	}
	if missing, stale := s.SpatialParity(); len(missing) != 0 || stale != 0 {
		t.Fatalf("parity after adds: missing=%v stale=%d", missing, stale)
	}
	all := s.spatialCandidates(spatial.MBR{MinLat: 40, MaxLat: 40, MinLng: -74, MaxLng: -74}, math.Inf(1))
	want := s.IDs()
	if len(all) != len(want) {
		t.Fatalf("candidates %d of %d", len(all), len(want))
	}
	for k := range all {
		if all[k] != want[k] {
			t.Fatalf("candidates out of insertion order at %d: %s vs %s", k, all[k], want[k])
		}
	}

	if !s.Remove(ids[3]) {
		t.Fatal("remove failed")
	}
	for _, id := range s.spatialCandidates(spatial.MBR{MinLat: 43, MaxLat: 43, MinLng: -71, MaxLng: -71}, math.Inf(1)) {
		if id == ids[3] {
			t.Fatal("removed id still a spatial candidate")
		}
	}
	if missing, stale := s.SpatialParity(); len(missing) != 0 || stale != 0 {
		t.Fatalf("parity after remove: missing=%v stale=%d", missing, stale)
	}

	// IndexFor covers a dataset slice by position, including entries that
	// raced a Remove (pure recompute fallback).
	tr, _ := s.Get(ids[0])
	gone := walkAt(r, 9, 10, 10)
	ix := s.IndexFor([]ID{ids[0], "no-such-id"}, []*traj.Trajectory{tr, gone})
	if ix.Len() != 2 {
		t.Fatalf("IndexFor covered %d of 2", ix.Len())
	}
	if mb, _ := ix.MBROf(1); mb != spatial.Bound(gone.Points) {
		t.Fatalf("IndexFor fallback MBR = %+v", mb)
	}
}

// TestSpatialMaintenanceRace is the churn regression at the store layer:
// concurrent Add/Remove against spatialCandidates, IndexFor and
// SpatialParity under -race. The parity probe must never see a live
// trajectory missing from the index or a dead entry lingering in it.
func TestSpatialMaintenanceRace(t *testing.T) {
	s := New(nil)
	r := rand.New(rand.NewSource(132))
	var seedIDs []ID
	for i := 0; i < 6; i++ {
		id, _, err := s.Add(walkAt(r, 12, 40+float64(i)*2, -74))
		if err != nil {
			t.Fatal(err)
		}
		seedIDs = append(seedIDs, id)
	}

	const churns = 150
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		r := rand.New(rand.NewSource(133))
		for k := 0; k < churns; k++ {
			id, _, err := s.Add(walkAt(r, 10, -30+float64(k%20), 150))
			if err != nil {
				t.Error(err)
				return
			}
			s.Remove(id)
		}
	}()
	go func() {
		defer wg.Done()
		q := spatial.MBR{MinLat: 40, MaxLat: 52, MinLng: -74, MaxLng: -74}
		for k := 0; k < churns; k++ {
			for _, id := range s.spatialCandidates(q, 1e6) {
				if _, ok := s.Get(id); !ok {
					// A raced Remove between Candidates and Get is fine; a
					// seed id vanishing is not (nothing removes them).
					for _, sid := range seedIDs {
						if id == sid {
							t.Errorf("live seed id %s missing from registry", id)
							return
						}
					}
				}
			}
			if missing, stale := s.SpatialParity(); len(missing) != 0 || stale != 0 {
				t.Errorf("churn parity: missing=%v stale=%d", missing, stale)
				return
			}
		}
	}()
	wg.Wait()
	if missing, stale := s.SpatialParity(); len(missing) != 0 || stale != 0 {
		t.Fatalf("final parity: missing=%v stale=%d", missing, stale)
	}
	if s.Len() != len(seedIDs) {
		t.Fatalf("registry holds %d, want the %d seeds", s.Len(), len(seedIDs))
	}
}
