package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/group"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
	"trajmotif/internal/trajio"
)

// harness spins up an httptest server around a fresh store.
func harness(t *testing.T) (*httptest.Server, *Server) {
	t.Helper()
	srv := New(store.New(nil), &Options{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	return ts, srv
}

// statsBody decodes the GET /stats fields the tests read (JSON keys
// match the field names case-insensitively).
type statsBody struct {
	Trajectories, Built, GridRebuildsAvoided, Removed, EvictedLRU, EvictedTTL int64
	IndexConsulted, IndexPruned, PairDistsBuilt, PairDistsReused, Rejected    int64
}

// call POSTs (or GETs when body is nil) and decodes the JSON response
// into out, failing the test on transport errors or a status mismatch.
func call(t *testing.T, ts *httptest.Server, method, path string, body, out any, wantStatus int) {
	t.Helper()
	var req *http.Request
	var err error
	if body != nil {
		b, merr := json.Marshal(body)
		if merr != nil {
			t.Fatal(merr)
		}
		req, err = http.NewRequest(method, ts.URL+path, bytes.NewReader(b))
	} else {
		req, err = http.NewRequest(method, ts.URL+path, nil)
	}
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("%s %s: status %d (want %d): %s", method, path, resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, path, err)
		}
	}
}

func upload(t *testing.T, ts *httptest.Server, tr *traj.Trajectory) store.ID {
	t.Helper()
	req := trajectoryRequest{Points: make([][2]float64, tr.Len())}
	for k, p := range tr.Points {
		req.Points[k] = [2]float64{p.Lat, p.Lng}
	}
	if tr.Times != nil {
		req.Times = make([]float64, tr.Len())
		for k, ts := range tr.Times {
			req.Times[k] = float64(ts.Unix())
		}
	}
	var resp trajectoryResponse
	call(t, ts, "POST", "/trajectories", req, &resp, http.StatusOK)
	if resp.N != tr.Len() {
		t.Fatalf("upload echoed %d points, sent %d", resp.N, tr.Len())
	}
	return resp.ID
}

func fixture(t *testing.T, seed int64, n int) *traj.Trajectory {
	t.Helper()
	tr, err := datagen.Dataset(datagen.GeoLifeName, datagen.Config{Seed: seed, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestTrajectoryUploadAndDedup(t *testing.T) {
	ts, srv := harness(t)
	tr := fixture(t, 1, 80)
	id := upload(t, ts, tr)
	id2 := upload(t, ts, tr)
	if id != id2 {
		t.Fatalf("re-upload changed id: %s vs %s", id, id2)
	}
	if srv.Backend().Len() != 1 {
		t.Fatalf("store holds %d trajectories, want 1", srv.Backend().Len())
	}

	// CSV body variant.
	var resp trajectoryResponse
	call(t, ts, "POST", "/trajectories",
		trajectoryRequest{CSV: "lat,lng\n39.9,116.4\n39.91,116.41\n"}, &resp, http.StatusOK)
	if resp.N != 2 || resp.Timed {
		t.Fatalf("csv upload: %+v", resp)
	}

	// Bad bodies.
	call(t, ts, "POST", "/trajectories", trajectoryRequest{}, nil, http.StatusBadRequest)
	call(t, ts, "POST", "/trajectories",
		trajectoryRequest{Points: [][2]float64{{91, 0}, {0, 0}}}, nil, http.StatusBadRequest)
}

// TestRepeatDiscoverSkipsGrids is the serve-mode acceptance criterion:
// the second identical /discover computes zero new grids — visible in
// the response's gridRebuildsAvoided and in GET /stats — and returns the
// identical motif.
func TestRepeatDiscoverSkipsGrids(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 2, 200))

	var first, second motifResponse
	req := discoverRequest{ID: id, Xi: 8}
	call(t, ts, "POST", "/discover", req, &first, http.StatusOK)

	var stats1 statsBody
	call(t, ts, "GET", "/stats", nil, &stats1, http.StatusOK)

	call(t, ts, "POST", "/discover", req, &second, http.StatusOK)

	var stats2 statsBody
	call(t, ts, "GET", "/stats", nil, &stats2, http.StatusOK)

	if second.Stats.GridRebuildsAvoided != 2 {
		t.Errorf("second discover gridRebuildsAvoided = %d, want 2", second.Stats.GridRebuildsAvoided)
	}
	if stats2.Built != stats1.Built {
		t.Errorf("second discover built %d new artifacts", stats2.Built-stats1.Built)
	}
	if stats2.GridRebuildsAvoided < 2 {
		t.Errorf("cumulative gridRebuildsAvoided = %d, want >= 2", stats2.GridRebuildsAvoided)
	}
	if first.Distance != second.Distance || first.A != second.A || first.B != second.B ||
		first.Stats.DPCells != second.Stats.DPCells || first.Stats.Subsets != second.Stats.Subsets {
		t.Errorf("cached discover differs: %+v vs %+v", first, second)
	}
}

// TestDiscoverMatchesLibrary: for workers 1 and 4, the served result —
// spans, distance bits, effort counters — equals the direct uncached
// library call.
func TestDiscoverMatchesLibrary(t *testing.T) {
	ts, _ := harness(t)
	tr := fixture(t, 3, 200)
	id := upload(t, ts, tr)

	for _, workers := range []int{1, 4} {
		want, err := group.GTM(tr, 8, 32, &core.Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var got motifResponse
		call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8, Workers: workers}, &got, http.StatusOK)
		if got.Distance != want.Distance ||
			got.A != (spanJSON{want.A.Start, want.A.End}) ||
			got.B != (spanJSON{want.B.Start, want.B.End}) ||
			got.Stats.Subsets != want.Stats.Subsets ||
			got.Stats.SubsetsProcessed != want.Stats.SubsetsProcessed ||
			got.Stats.SubsetsAbandoned != want.Stats.SubsetsAbandoned ||
			got.Stats.DPCells != want.Stats.DPCells {
			t.Errorf("workers=%d: served %+v, library %+v", workers, got, want)
		}
	}
}

func TestDiscoverAlgorithmsAgree(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 4, 160))
	var ref motifResponse
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8, Algo: "gtm"}, &ref, http.StatusOK)
	for _, algo := range []string{"btm", "gtmstar", "brutedp"} {
		var got motifResponse
		call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8, Algo: algo}, &got, http.StatusOK)
		if got.Distance != ref.Distance {
			t.Errorf("%s distance %v != gtm %v", algo, got.Distance, ref.Distance)
		}
	}
}

func TestDiscoverPairsAndCacheSharing(t *testing.T) {
	ts, _ := harness(t)
	a, b, err := datagen.Pair(datagen.TruckName, datagen.Config{Seed: 7, N: 120})
	if err != nil {
		t.Fatal(err)
	}
	c := fixture(t, 5, 120)
	ids := []store.ID{upload(t, ts, a), upload(t, ts, b), upload(t, ts, c)}

	var pairs []pairResponse
	call(t, ts, "POST", "/discover/pairs", discoverPairsRequest{IDs: ids, Xi: 6}, &pairs, http.StatusOK)
	if len(pairs) != 3 {
		t.Fatalf("got %d pairs, want 3", len(pairs))
	}
	for _, p := range pairs {
		if p.Error != "" || p.Motif == nil {
			t.Fatalf("pair (%d,%d) failed: %s", p.I, p.J, p.Error)
		}
	}

	var stats1 statsBody
	call(t, ts, "GET", "/stats", nil, &stats1, http.StatusOK)
	var again []pairResponse
	call(t, ts, "POST", "/discover/pairs", discoverPairsRequest{IDs: ids, Xi: 6}, &again, http.StatusOK)
	var stats2 statsBody
	call(t, ts, "GET", "/stats", nil, &stats2, http.StatusOK)
	if stats2.Built != stats1.Built {
		t.Errorf("repeated all-pairs built %d new artifacts", stats2.Built-stats1.Built)
	}
	for k := range pairs {
		if again[k].Motif.Distance != pairs[k].Motif.Distance || again[k].Motif.A != pairs[k].Motif.A || again[k].Motif.B != pairs[k].Motif.B {
			t.Errorf("pair %d changed on the cached run", k)
		}
	}
}

func TestTopKEndpoint(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 6, 200))
	var results []motifResponse
	call(t, ts, "POST", "/topk", topkRequest{ID: id, Xi: 8, K: 3}, &results, http.StatusOK)
	if len(results) == 0 {
		t.Fatal("no motifs")
	}
	for k := 1; k < len(results); k++ {
		if results[k].Distance < results[k-1].Distance {
			t.Errorf("top-k not ascending at %d", k)
		}
	}
}

func TestKNNJoinCluster(t *testing.T) {
	ts, _ := harness(t)
	var ids []store.ID
	for seed := int64(1); seed <= 4; seed++ {
		tr, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: seed, N: 100})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, upload(t, ts, tr))
	}

	var knnOut knnResponse
	call(t, ts, "POST", "/knn", knnRequest{Query: ids[0], K: 2}, &knnOut, http.StatusOK)
	if len(knnOut.Neighbors) != 2 {
		t.Fatalf("knn returned %d neighbors", len(knnOut.Neighbors))
	}
	for _, nb := range knnOut.Neighbors {
		if nb.ID == ids[0] {
			t.Error("query trajectory returned as its own neighbor")
		}
	}

	var joinOut joinResponse
	call(t, ts, "POST", "/join", joinRequest{Eps: 1e9}, &joinOut, http.StatusOK)
	if len(joinOut.Pairs) != 6 { // C(4,2) under an everything-matches radius
		t.Errorf("join reported %d pairs, want 6", len(joinOut.Pairs))
	}

	var clusterOut []clusterResponse
	call(t, ts, "POST", "/cluster", clusterRequest{ID: ids[0], Window: 20, Eps: 1e9}, &clusterOut, http.StatusOK)
	if len(clusterOut) == 0 {
		t.Error("no clusters under an everything-matches radius")
	}
}

func TestErrorPaths(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 8, 60))

	call(t, ts, "POST", "/discover", discoverRequest{ID: "nope", Xi: 8}, nil, http.StatusNotFound)
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8, Algo: "quantum"}, nil, http.StatusBadRequest)
	// xi too large for the trajectory: infeasible, the client's fault.
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 500}, nil, http.StatusUnprocessableEntity)
	call(t, ts, "POST", "/discover/pairs", discoverPairsRequest{IDs: []store.ID{id}, Xi: 8}, nil, http.StatusBadRequest)
	call(t, ts, "POST", "/knn", knnRequest{Query: id, K: 0}, nil, http.StatusBadRequest)
	// Parameter validation: client mistakes are 4xx, never 500.
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: -1}, nil, http.StatusBadRequest)
	call(t, ts, "POST", "/topk", topkRequest{ID: id, Xi: 8, K: 0}, nil, http.StatusBadRequest)
	call(t, ts, "POST", "/topk", topkRequest{ID: id, Xi: -1, K: 2}, nil, http.StatusBadRequest)

	var health map[string]any
	call(t, ts, "GET", "/healthz", nil, &health, http.StatusOK)
	if health["ok"] != true {
		t.Errorf("healthz: %v", health)
	}

	// Method mismatch on a registered pattern.
	resp, err := http.Get(ts.URL + "/discover")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /discover = %d, want 405", resp.StatusCode)
	}
}

// TestBodyCap: a request body over MaxBodyBytes is rejected with 413
// Request Entity Too Large (it used to surface as a generic 400 "bad
// request body: http: request body too large") instead of being slurped
// into memory.
func TestBodyCap(t *testing.T) {
	srv := New(store.New(nil), &Options{Workers: 1, MaxBodyBytes: 512})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	big := trajectoryRequest{Points: make([][2]float64, 200)} // ~2 KB encoded
	for k := range big.Points {
		big.Points[k] = [2]float64{1, float64(k) / 1000}
	}
	call(t, ts, "POST", "/trajectories", big, nil, http.StatusRequestEntityTooLarge)

	small := trajectoryRequest{Points: [][2]float64{{1, 2}, {1.1, 2.1}}}
	call(t, ts, "POST", "/trajectories", small, nil, http.StatusOK)
}

// TestConcurrentDiscover hammers one trajectory from several goroutines:
// responses must all be identical and the run must be race-clean (the CI
// race job executes this test under -race).
func TestConcurrentDiscover(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 9, 160))

	var ref motifResponse
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8}, &ref, http.StatusOK)

	const parallel = 8
	results := make([]motifResponse, parallel)
	errs := make(chan error, parallel)
	for k := 0; k < parallel; k++ {
		go func(k int) {
			b, _ := json.Marshal(discoverRequest{ID: id, Xi: 8})
			resp, err := http.Post(ts.URL+"/discover", "application/json", bytes.NewReader(b))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs <- fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs <- json.NewDecoder(resp.Body).Decode(&results[k])
		}(k)
	}
	for k := 0; k < parallel; k++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	for k := range results {
		if results[k].Distance != ref.Distance || results[k].A != ref.A || results[k].B != ref.B {
			t.Errorf("concurrent response %d differs: %+v vs %+v", k, results[k], ref)
		}
	}
}

// bulkCall POSTs a raw NDJSON body to /trajectories/bulk.
func bulkCall(t *testing.T, ts *httptest.Server, body string, out *bulkResponse, wantStatus int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/trajectories/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		var e errorResponse
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("bulk: status %d (want %d): %s", resp.StatusCode, wantStatus, e.Error)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("bulk: decode: %v", err)
		}
	}
}

// TestBulkUpload: an NDJSON stream registers record by record, yielding
// the same content IDs as individual uploads, with per-record errors
// reported and skipped.
func TestBulkUpload(t *testing.T) {
	ts, srv := harness(t)
	trs := []*traj.Trajectory{
		fixture(t, 31, 50),
		fixture(t, 32, 60),
		fixture(t, 33, 70),
	}
	// Untimed copies: the upload helper encodes whole seconds while
	// WriteNDJSON keeps nanosecond fractions, so only the geometry (which
	// is what the content hash of an untimed trajectory covers) can be
	// compared across the two upload paths.
	for k, tr := range trs {
		c := tr.Clip(tr.Len())
		c.Times = nil
		trs[k] = c
	}
	var body bytes.Buffer
	if err := trajio.WriteNDJSON(&body, trs...); err != nil {
		t.Fatal(err)
	}

	var out bulkResponse
	bulkCall(t, ts, body.String(), &out, http.StatusOK)
	if out.Stored != 3 || out.Failed != 0 || out.Error != "" || len(out.Records) != 3 {
		t.Fatalf("bulk response: %+v", out)
	}
	for k, rec := range out.Records {
		if rec.Index != k || !rec.Created || rec.N != trs[k].Len() {
			t.Errorf("record %d: %+v", k, rec)
		}
		if _, ok := srv.Backend().Get(rec.ID); !ok {
			t.Errorf("record %d id %s not registered", k, rec.ID)
		}
	}
	if srv.Backend().Len() != 3 {
		t.Fatalf("store holds %d trajectories, want 3", srv.Backend().Len())
	}

	// Bulk IDs match the content hashes of individual uploads.
	for k, tr := range trs {
		if id := upload(t, ts, tr); id != out.Records[k].ID {
			t.Errorf("record %d: bulk id %s != individual id %s", k, out.Records[k].ID, id)
		}
	}

	// A semantically bad record is reported and skipped; the rest lands.
	mixed := `{"points":[[1,2],[1.1,2.1]]}` + "\n" +
		`{"points":[[999,2],[1,2]]}` + "\n" +
		`{"points":[[3,4],[3.1,4.1]],"times":[5,6]}` + "\n"
	out = bulkResponse{}
	bulkCall(t, ts, mixed, &out, http.StatusOK)
	if out.Stored != 2 || out.Failed != 1 {
		t.Fatalf("mixed bulk: %+v", out)
	}
	if out.Records[1].Error == "" || out.Records[1].Index != 1 {
		t.Errorf("bad record not reported at index 1: %+v", out.Records[1])
	}
	if !out.Records[2].Timed {
		t.Error("timed record lost its timestamps")
	}

	// Malformed JSON after valid records: 200 with the stream error set
	// and the earlier registrations standing.
	before := srv.Backend().Len()
	out = bulkResponse{}
	bulkCall(t, ts, `{"points":[[7,8],[7.1,8.1]]}`+"\n{garbage\n", &out, http.StatusOK)
	if out.Stored != 1 || out.Error == "" {
		t.Fatalf("truncated bulk: %+v", out)
	}
	if srv.Backend().Len() != before+1 {
		t.Errorf("truncated bulk registered %d, want 1", srv.Backend().Len()-before)
	}

	// Nothing decodable at all: a plain 400.
	bulkCall(t, ts, "{garbage\n", nil, http.StatusBadRequest)
	bulkCall(t, ts, "", nil, http.StatusBadRequest)
}

// TestBulkEchoCap: per-record outcomes beyond maxBulkEcho are dropped
// from the response echo, while the counts (and the registrations) stay
// exact — the response cannot grow without bound with the upload.
func TestBulkEchoCap(t *testing.T) {
	ts, srv := harness(t)
	n := maxBulkEcho + 5
	var body strings.Builder
	for k := 0; k < n; k++ {
		fmt.Fprintf(&body, `{"points":[[1,%d.001],[1.1,%d.002]]}`+"\n", k%180, k%180)
	}
	var out bulkResponse
	bulkCall(t, ts, body.String(), &out, http.StatusOK)
	if len(out.Records) != maxBulkEcho {
		t.Fatalf("echoed %d records, want the %d cap", len(out.Records), maxBulkEcho)
	}
	if out.RecordsOmitted != n-maxBulkEcho {
		t.Errorf("RecordsOmitted = %d, want %d", out.RecordsOmitted, n-maxBulkEcho)
	}
	if out.Stored+out.Failed != n {
		t.Errorf("counts cover %d records, want %d", out.Stored+out.Failed, n)
	}
	// Registrations are capped by content dedup (180 distinct), not echo.
	if srv.Backend().Len() != 180 {
		t.Errorf("store holds %d distinct trajectories, want 180", srv.Backend().Len())
	}
}

// TestBulkBodyCap: the cap applies to bulk uploads too, but records
// decoded before the cap trips are kept (the response reports the cut).
func TestBulkBodyCap(t *testing.T) {
	srv := New(store.New(nil), &Options{Workers: 1, MaxBodyBytes: 96})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	body := `{"points":[[1,2],[1.1,2.1]]}` + "\n" +
		`{"points":[[3,4],[3.1,4.1],[3.2,4.2],[3.3,4.3],[3.4,4.4],[3.5,4.5]]}` + "\n"
	var out bulkResponse
	bulkCall(t, ts, body, &out, http.StatusOK)
	if out.Stored != 1 || out.Error == "" {
		t.Fatalf("capped bulk: %+v", out)
	}
	if srv.Backend().Len() != 1 {
		t.Errorf("store holds %d, want the 1 record decoded before the cap", srv.Backend().Len())
	}
}

// TestDeleteTrajectory: the removal API, including the interaction with
// /knn and /join defaulting their dataset to "everything stored".
func TestDeleteTrajectory(t *testing.T) {
	ts, srv := harness(t)
	var ids []store.ID
	for seed := int64(41); seed <= 44; seed++ {
		tr, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: seed, N: 80})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, upload(t, ts, tr))
	}

	// Warm the cache so the delete has artifacts to purge.
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[3], Xi: 4}, nil, http.StatusOK)

	var knnOut knnResponse
	call(t, ts, "POST", "/knn", knnRequest{Query: ids[0], K: 3}, &knnOut, http.StatusOK)
	if len(knnOut.Neighbors) != 3 {
		t.Fatalf("knn over 4 stored returned %d neighbors", len(knnOut.Neighbors))
	}
	var joinOut joinResponse
	call(t, ts, "POST", "/join", joinRequest{Eps: 1e9}, &joinOut, http.StatusOK)
	if len(joinOut.Pairs) != 6 {
		t.Fatalf("join over 4 stored reported %d pairs, want 6", len(joinOut.Pairs))
	}

	var del map[string]any
	call(t, ts, "DELETE", "/trajectories/"+string(ids[3]), nil, &del, http.StatusOK)
	if del["removed"] != true {
		t.Fatalf("delete response: %v", del)
	}
	call(t, ts, "DELETE", "/trajectories/"+string(ids[3]), nil, nil, http.StatusNotFound)
	call(t, ts, "DELETE", "/trajectories/nope", nil, nil, http.StatusNotFound)
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[3], Xi: 4}, nil, http.StatusNotFound)

	// The "everything stored" defaults shrink immediately.
	call(t, ts, "POST", "/knn", knnRequest{Query: ids[0], K: 3}, &knnOut, http.StatusOK)
	if len(knnOut.Neighbors) != 2 {
		t.Fatalf("knn after delete returned %d neighbors, want 2", len(knnOut.Neighbors))
	}
	for _, nb := range knnOut.Neighbors {
		if nb.ID == ids[3] {
			t.Error("deleted trajectory still appears as a neighbor")
		}
	}
	call(t, ts, "POST", "/join", joinRequest{Eps: 1e9}, &joinOut, http.StatusOK)
	if len(joinOut.Pairs) != 3 { // C(3,2)
		t.Errorf("join after delete reported %d pairs, want 3", len(joinOut.Pairs))
	}

	// Explicitly naming a deleted id is a 404, not a silent skip.
	call(t, ts, "POST", "/knn", knnRequest{Query: ids[0], IDs: []store.ID{ids[1], ids[3]}, K: 1}, nil, http.StatusNotFound)

	var st statsBody
	call(t, ts, "GET", "/stats", nil, &st, http.StatusOK)
	if st.Trajectories != 3 || st.Removed != 1 {
		t.Errorf("stats after delete: trajectories=%d removed=%d, want 3/1", st.Trajectories, st.Removed)
	}
	if srv.Backend().Len() != 3 {
		t.Errorf("store holds %d, want 3", srv.Backend().Len())
	}
}

// TestKNNDefaultDuringDelete: a /knn (or /join) request that names no ids
// must never 404 because a concurrent DELETE removed a trajectory between
// the IDs snapshot and its resolution — vanished ids are skipped. The CI
// race job runs this under -race.
func TestKNNDefaultDuringDelete(t *testing.T) {
	ts, _ := harness(t)
	query := upload(t, ts, fixture(t, 51, 40))
	keep := upload(t, ts, fixture(t, 52, 40))
	_ = keep

	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k < 30; k++ {
			tr := fixture(t, int64(100+k), 40)
			id := upload(t, ts, tr)
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
			t.Fatalf("knn defaults lost every neighbor mid-churn")
		}
		var joinOut joinResponse
		call(t, ts, "POST", "/join", joinRequest{Eps: 1e9}, &joinOut, http.StatusOK)
	}
	<-done
}
