package store

import (
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

// mbrParity cross-checks the MBR cache behind IndexFor against the
// registry under one lock acquisition: missing lists live trajectories
// the cache lacks (or holds under a wrong box), stale counts entries
// whose trajectory is gone.
func mbrParity(s *Store) (missing []ID, stale int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, id := range s.order {
		if mbr, ok := s.mbrs[id]; !ok || mbr != spatial.Bound(s.trajs[id].Points) {
			missing = append(missing, id)
		}
	}
	for id := range s.mbrs {
		if _, ok := s.trajs[id]; !ok {
			stale++
		}
	}
	return missing, stale
}

// indexBox is the box IndexFor serves for one trajectory.
func indexBox(s *Store, id ID, tr *traj.Trajectory) spatial.MBR {
	return s.IndexFor([]ID{id}, []*traj.Trajectory{tr}).Boxes()[0]
}

// TestSpatialMaintenance: the MBR cache tracks Add/Remove exactly —
// IndexFor serves the Bound fold for every live id, and removal drops
// the cache entry.
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
		if got := indexBox(s, id, tr); got != spatial.Bound(tr.Points) {
			t.Fatalf("IndexFor box of %d = %+v, want the Bound fold", i, got)
		}
	}
	if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
		t.Fatalf("parity after adds: missing=%v stale=%d", missing, stale)
	}

	if !s.Remove(ids[3]) {
		t.Fatal("remove failed")
	}
	if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
		t.Fatalf("parity after remove: missing=%v stale=%d", missing, stale)
	}

	// IndexFor covers a dataset slice by position, including entries that
	// raced a Remove (pure recompute fallback).
	tr, _ := s.Get(ids[0])
	gone := walkAt(r, 9, 10, 10)
	ix := s.IndexFor([]ID{ids[0], "no-such-id"}, []*traj.Trajectory{tr, gone})
	if len(ix.Boxes()) != 2 {
		t.Fatalf("IndexFor covered %d of 2", len(ix.Boxes()))
	}
	if mb := ix.Boxes()[1]; mb != spatial.Bound(gone.Points) {
		t.Fatalf("IndexFor fallback MBR = %+v", mb)
	}
}

// TestSpatialMaintenanceRace is the churn regression at the store layer:
// concurrent Add/Remove against IDs, IndexFor and the MBR cache under
// -race. The parity probe must never see a live trajectory missing from
// the cache or a dead entry lingering in it.
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
		for k := 0; k < churns; k++ {
			for _, id := range s.IDs() {
				tr, ok := s.Get(id)
				if !ok {
					// A raced Remove between IDs and Get is fine; a seed
					// id vanishing is not (nothing removes them).
					for _, sid := range seedIDs {
						if id == sid {
							t.Errorf("live seed id %s missing from registry", id)
							return
						}
					}
					continue
				}
				if got := indexBox(s, id, tr); got != spatial.Bound(tr.Points) {
					t.Errorf("IndexFor box of %s = %+v mid-churn, want the Bound fold", id, got)
					return
				}
			}
			if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
				t.Errorf("churn parity: missing=%v stale=%d", missing, stale)
				return
			}
		}
	}()
	wg.Wait()
	if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
		t.Fatalf("final parity: missing=%v stale=%d", missing, stale)
	}
	if s.Len() != len(seedIDs) {
		t.Fatalf("registry holds %d, want the %d seeds", s.Len(), len(seedIDs))
	}
}
