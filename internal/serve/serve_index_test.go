package serve

import (
	"math/rand"
	"net/http"
	"testing"

	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// cityWalk builds a short trajectory around an arbitrary center, for
// corpora with real spatial spread (fixture's GeoLife walks all share
// Beijing, which the index cannot prune).
func cityWalk(t *testing.T, seed int64, n int, lat, lng float64) *traj.Trajectory {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	pts := make([]geo.Point, n)
	for i := range pts {
		lat += (r.Float64()*2 - 1) * 0.01
		lng += (r.Float64()*2 - 1) * 0.01
		pts[i] = geo.Point{Lat: lat, Lng: lng}
	}
	tr, err := traj.New(pts, nil)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// checkIndexBoxes fails the test unless IndexFor serves the Bound fold
// for every trajectory the backend lists as live.
func checkIndexBoxes(t *testing.T, b Backend) {
	t.Helper()
	for _, id := range b.IDs() {
		tr, ok := b.Get(id)
		if !ok {
			continue // evicted between IDs and Get
		}
		box := b.IndexFor([]store.ID{id}, []*traj.Trajectory{tr}).Boxes()[0]
		if box != spatial.Bound(tr.Points) {
			t.Fatalf("IndexFor box of %s = %+v, want the Bound fold", id, box)
		}
	}
}

// TestStatsSurfacesIndexCounters: /knn and /join consult the spatial
// index built from the registry's cached MBRs, their responses carry the
// new Stats fields, and GET /stats accumulates them across requests.
func TestStatsSurfacesIndexCounters(t *testing.T) {
	ts, _ := harness(t)
	query := upload(t, ts, cityWalk(t, 1, 25, 39.9, 116.4))
	upload(t, ts, cityWalk(t, 2, 25, 39.92, 116.42)) // near: the neighbor
	for i := int64(0); i < 6; i++ {                  // far: index fodder
		upload(t, ts, cityWalk(t, 10+i, 25, -33.8+float64(i), 151.2))
	}

	var knnOut knnResponse
	call(t, ts, "POST", "/knn", knnRequest{Query: query, K: 1}, &knnOut, http.StatusOK)
	if knnOut.Stats.IndexConsulted != 1 {
		t.Errorf("knn IndexConsulted = %d, want 1", knnOut.Stats.IndexConsulted)
	}
	if knnOut.Stats.IndexPruned == 0 {
		t.Error("knn never index-pruned the Sydney decoys")
	}

	var joinOut joinResponse
	call(t, ts, "POST", "/join", joinRequest{Eps: 50_000}, &joinOut, http.StatusOK)
	if joinOut.Stats.IndexConsulted == 0 || joinOut.Stats.IndexPruned == 0 {
		t.Errorf("join index counters: %+v", joinOut.Stats)
	}

	var st statsBody
	call(t, ts, "GET", "/stats", nil, &st, http.StatusOK)
	wantConsulted := knnOut.Stats.IndexConsulted + joinOut.Stats.IndexConsulted
	wantPruned := knnOut.Stats.IndexPruned + joinOut.Stats.IndexPruned
	if st.IndexConsulted != wantConsulted || st.IndexPruned != wantPruned {
		t.Errorf("/stats index counters = %d/%d, want %d/%d",
			st.IndexConsulted, st.IndexPruned, wantConsulted, wantPruned)
	}
}

// TestSpatialIndexDuringChurn extends the PR 5 DELETE churn regression
// to the per-request spatial index: while uploads and DELETEs race /knn
// and /join, IndexFor must serve the Bound fold for every live id, a
// deleted id must leave the registry, and the handlers must keep
// answering. The CI race job runs this under -race.
func TestSpatialIndexDuringChurn(t *testing.T) {
	ts, srv := harness(t)
	query := upload(t, ts, cityWalk(t, 51, 20, 39.9, 116.4))
	second := upload(t, ts, cityWalk(t, 52, 20, 39.91, 116.41))

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 30; k++ {
			id := upload(t, ts, cityWalk(t, int64(100+k), 20, -33.8, 151.2))
			req, _ := http.NewRequest("DELETE", ts.URL+"/trajectories/"+string(id), nil)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Error(err)
				return
			}
			resp.Body.Close()
		}
	}()
	for k := 0; k < 30; k++ {
		var knnOut knnResponse
		call(t, ts, "POST", "/knn", knnRequest{Query: query, K: 1}, &knnOut, http.StatusOK)
		if len(knnOut.Neighbors) < 1 {
			t.Fatal("knn lost every neighbor mid-churn")
		}
		var joinOut joinResponse
		call(t, ts, "POST", "/join", joinRequest{Eps: 1e9}, &joinOut, http.StatusOK)
		checkIndexBoxes(t, srv.Backend())
	}
	<-done
	checkIndexBoxes(t, srv.Backend())
	if ids := srv.Backend().IDs(); len(ids) != 2 || ids[0] != query || ids[1] != second {
		t.Fatalf("registry after churn = %v, want only the two seeds", ids)
	}
}
