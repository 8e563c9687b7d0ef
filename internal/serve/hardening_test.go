package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trajmotif/internal/store"
)

// --- decode bugfixes ---

// TestTrailingGarbageRejected: a concatenated second JSON body used to
// be silently ignored — the decoder stopped at the first value. It is a
// malformed request and must be a 400.
func TestTrailingGarbageRejected(t *testing.T) {
	ts, _ := harness(t)
	id := upload(t, ts, fixture(t, 61, 60))

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(ts.URL+"/discover", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}

	// The issue's literal case: two concatenated objects.
	if code := post(`{"xi":3}{"xi":9}`); code != http.StatusBadRequest {
		t.Errorf("concatenated bodies: status %d, want 400", code)
	}
	if code := post(fmt.Sprintf(`{"id":%q,"xi":8} trailing`, id)); code != http.StatusBadRequest {
		t.Errorf("trailing token: status %d, want 400", code)
	}
	// Trailing whitespace/newlines are fine — that is how encoders emit.
	if code := post(fmt.Sprintf(`{"id":%q,"xi":8}`+"\n  \n", id)); code != http.StatusOK {
		t.Errorf("trailing whitespace: status %d, want 200", code)
	}
}

// TestBulkBodyCap413: an oversize bulk upload that never yields a
// record is a 413, matching the single-object decode path.
func TestBulkBodyCap413(t *testing.T) {
	srv := New(store.New(nil), &Options{Workers: 1, MaxBodyBytes: 24})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// One record far over the 24-byte cap: nothing decodes, 413.
	body := `{"points":[[1,2],[1.1,2.1],[1.2,2.2],[1.3,2.3]]}` + "\n"
	resp, err := http.Post(ts.URL+"/trajectories/bulk", "application/x-ndjson", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversize bulk: status %d, want 413", resp.StatusCode)
	}
}

// --- admission control ---

// TestAdmissionSemaphore unit-tests the weighted FIFO semaphore.
func TestAdmissionSemaphore(t *testing.T) {
	a := newAdmission(4, 1, 50*time.Millisecond)

	w1, ok := a.acquire(3)
	if !ok || w1 != 3 {
		t.Fatalf("first acquire: charged %d ok %v", w1, ok)
	}
	// Oversized weight clamps to capacity instead of deadlocking.
	if charged, ok := a.acquire(99); ok || charged != 0 {
		t.Fatalf("oversized acquire with slots held should queue then time out, got ok=%v", ok)
	}
	// Queue bound: one waiter fits, the second is rejected immediately.
	done := make(chan bool, 2)
	go func() { _, ok := a.acquire(2); done <- ok }()
	for {
		if _, queued := a.snapshot(); queued == 1 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if _, ok := a.acquire(1); ok {
		t.Error("second waiter admitted past the queue bound")
	}
	// Releasing lets the queued waiter through.
	a.release(w1)
	if !<-done {
		t.Error("queued waiter was not admitted after release")
	}
	a.release(2)
	if inUse, queued := a.snapshot(); inUse != 0 || queued != 0 {
		t.Errorf("final snapshot: inUse=%d queued=%d", inUse, queued)
	}
}

// TestAdmissionClampAdmitsAlone: a request heavier than the whole
// capacity is clamped and admitted when the server is idle.
func TestAdmissionClampAdmitsAlone(t *testing.T) {
	a := newAdmission(2, 0, time.Millisecond)
	charged, ok := a.acquire(16)
	if !ok || charged != 2 {
		t.Fatalf("oversized request on an idle server: charged %d ok %v, want 2 true", charged, ok)
	}
	a.release(charged)
}

// TestSemaphoreOverflow429: with capacity held, a search request is
// rejected with 429 and a Retry-After header; releasing restores
// service. Deterministic — the test holds the semaphore directly.
func TestSemaphoreOverflow429(t *testing.T) {
	srv := New(store.New(nil), &Options{
		Workers:               1,
		MaxConcurrentSearches: 1,
		MaxQueuedSearches:     -1, // no queue: reject immediately
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	id := upload(t, ts, fixture(t, 62, 60))

	charged, ok := srv.sem.acquire(1)
	if !ok {
		t.Fatal("could not hold the semaphore")
	}
	b, _ := json.Marshal(discoverRequest{ID: id, Xi: 8})
	resp, err := http.Post(ts.URL+"/discover", "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	var e errorResponse
	_ = json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("saturated server: status %d, want 429 (%s)", resp.StatusCode, e.Error)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without a Retry-After header")
	}

	// Non-search endpoints stay up while searches are saturated.
	call(t, ts, "GET", "/healthz", nil, nil, http.StatusOK)
	call(t, ts, "GET", "/stats", nil, nil, http.StatusOK)
	call(t, ts, "GET", "/metrics", nil, nil, http.StatusOK)

	srv.sem.release(charged)
	var m motifResponse
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8}, &m, http.StatusOK)

	var st statsBody
	call(t, ts, "GET", "/stats", nil, &st, http.StatusOK)
	if st.Rejected != 1 {
		t.Errorf("stats.rejected = %d, want 1", st.Rejected)
	}
}

// TestAdmissionQueueDrains: capacity 1 with a deep queue serializes a
// concurrent burst — every request eventually succeeds with the
// identical byte-deterministic response, none is dropped.
func TestAdmissionQueueDrains(t *testing.T) {
	srv := New(store.New(nil), &Options{
		Workers:               1,
		MaxConcurrentSearches: 1,
		MaxQueuedSearches:     16,
		QueueWait:             30 * time.Second,
	})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)
	id := upload(t, ts, fixture(t, 63, 120))

	var ref motifResponse
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 8}, &ref, http.StatusOK)

	const burst = 8
	var wg sync.WaitGroup
	results := make([]motifResponse, burst)
	errs := make([]error, burst)
	for k := 0; k < burst; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			b, _ := json.Marshal(discoverRequest{ID: id, Xi: 8})
			resp, err := http.Post(ts.URL+"/discover", "application/json", bytes.NewReader(b))
			if err != nil {
				errs[k] = err
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				errs[k] = fmt.Errorf("status %d", resp.StatusCode)
				return
			}
			errs[k] = json.NewDecoder(resp.Body).Decode(&results[k])
		}(k)
	}
	wg.Wait()
	for k := 0; k < burst; k++ {
		if errs[k] != nil {
			t.Fatalf("burst request %d: %v", k, errs[k])
		}
		if results[k].Distance != ref.Distance || results[k].A != ref.A || results[k].B != ref.B ||
			results[k].Stats.DPCells != ref.Stats.DPCells {
			t.Errorf("burst response %d differs under admission: %+v vs %+v", k, results[k], ref)
		}
	}
}

// --- /metrics ---

// parseMetrics parses the Prometheus text exposition into name{labels}
// -> value, failing on any syntactically invalid sample line.
func parseMetrics(t *testing.T, body string) map[string]float64 {
	t.Helper()
	out := make(map[string]float64)
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			t.Fatalf("metrics line without a value: %q", line)
		}
		key, valStr := line[:idx], line[idx+1:]
		val, err := strconv.ParseFloat(valStr, 64)
		if err != nil {
			t.Fatalf("metrics line %q: bad value: %v", line, err)
		}
		if _, dup := out[key]; dup {
			t.Fatalf("duplicate metrics sample %q", key)
		}
		out[key] = val
	}
	return out
}

func scrape(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /metrics: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("metrics content type %q", ct)
	}
	var b strings.Builder
	if _, err := bufio.NewReader(resp.Body).WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return parseMetrics(t, b.String())
}

// TestMetricsEndpoint: request counters, latency histograms, gauges and
// eviction counters are exposed and internally consistent.
func TestMetricsEndpoint(t *testing.T) {
	st := store.New(&store.Options{MaxTrajectories: 2})
	srv := New(st, &Options{Workers: 1, MaxConcurrentSearches: 2})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	// Three uploads against a cap of 2: one LRU eviction. Then two
	// discovers and one manual delete.
	var ids []store.ID
	for seed := int64(71); seed <= 73; seed++ {
		ids = append(ids, upload(t, ts, fixture(t, seed, 60)))
	}
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[2], Xi: 6}, nil, http.StatusOK)
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[2], Xi: 6}, nil, http.StatusOK)
	call(t, ts, "DELETE", "/trajectories/"+string(ids[2]), nil, nil, http.StatusOK)

	m := scrape(t, ts)

	expect := func(key string, want float64) {
		t.Helper()
		got, ok := m[key]
		if !ok {
			t.Errorf("metric %s missing", key)
			return
		}
		if got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}

	expect(`motifserve_requests_total{endpoint="/trajectories",code="200"}`, 3)
	expect(`motifserve_requests_total{endpoint="/discover",code="200"}`, 2)
	expect(`motifserve_requests_total{endpoint="/trajectories/{id}",code="200"}`, 1)
	expect(`motifserve_trajectory_evictions_total{cause="lru"}`, 1)
	expect(`motifserve_trajectory_evictions_total{cause="manual"}`, 1)
	expect(`motifserve_trajectory_evictions_total{cause="ttl"}`, 0)
	expect(`motifserve_trajectories`, 1)
	expect(`motifserve_artifacts_reused_total`, 2) // second discover reused grid+bounds
	expect(`motifserve_admission_worker_capacity`, 2)
	expect(`motifserve_admission_workers_in_use`, 0)
	expect(`motifserve_admission_rejected_total`, 0)

	// Histogram consistency per endpoint: +Inf bucket == count, buckets
	// monotone, sum non-negative.
	for _, ep := range []string{"/trajectories", "/discover"} {
		count := m[fmt.Sprintf(`motifserve_request_duration_seconds_count{endpoint=%q}`, ep)]
		inf := m[fmt.Sprintf(`motifserve_request_duration_seconds_bucket{endpoint=%q,le="+Inf"}`, ep)]
		if count == 0 || count != inf {
			t.Errorf("%s histogram: count %v, +Inf bucket %v", ep, count, inf)
		}
		prev := 0.0
		for _, le := range latencyBuckets {
			key := fmt.Sprintf(`motifserve_request_duration_seconds_bucket{endpoint=%q,le=%q}`,
				ep, strconv.FormatFloat(le, 'g', -1, 64))
			v, ok := m[key]
			if !ok {
				t.Fatalf("missing bucket %s", key)
			}
			if v < prev {
				t.Errorf("%s bucket le=%v not monotone: %v < %v", ep, le, v, prev)
			}
			prev = v
		}
		if m[fmt.Sprintf(`motifserve_request_duration_seconds_sum{endpoint=%q}`, ep)] < 0 {
			t.Errorf("%s histogram sum negative", ep)
		}
	}

	// The scrape itself shows up on the next scrape; the gauge set stays
	// parseable with in-flight traffic accounted.
	m2 := scrape(t, ts)
	if m2[`motifserve_requests_total{endpoint="/metrics",code="200"}`] < 1 {
		t.Error("the /metrics endpoint does not count itself")
	}
	if _, ok := m2[`motifserve_in_flight_requests`]; !ok {
		t.Error("in-flight gauge missing")
	}
}

// TestServerTimingHeader: every response carries the Server-Timing
// compute duration.
func TestServerTimingHeader(t *testing.T) {
	ts, _ := harness(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	stv := resp.Header.Get("Server-Timing")
	if !strings.HasPrefix(stv, "app;dur=") {
		t.Fatalf("Server-Timing = %q", stv)
	}
	if _, err := strconv.ParseFloat(strings.TrimPrefix(stv, "app;dur="), 64); err != nil {
		t.Errorf("Server-Timing duration unparsable: %q (%v)", stv, err)
	}
}

// --- auto-eviction through the serve tier ---

// TestServeAutoEviction: a MaxTrajectories-capped store behind the
// server keeps the registry bounded; evicted ids 404 like deleted ones
// and the /knn+/join defaults shrink, while queried (touched) ids stay.
func TestServeAutoEviction(t *testing.T) {
	st := store.New(&store.Options{MaxTrajectories: 3})
	srv := New(st, &Options{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	var ids []store.ID
	for seed := int64(81); seed <= 83; seed++ {
		ids = append(ids, upload(t, ts, fixture(t, seed, 60)))
	}
	// Touch ids[0] so ids[1] is the LRU victim for the next upload.
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[0], Xi: 6}, nil, http.StatusOK)
	ids = append(ids, upload(t, ts, fixture(t, 84, 60)))

	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[1], Xi: 6}, nil, http.StatusNotFound)
	call(t, ts, "POST", "/discover", discoverRequest{ID: ids[0], Xi: 6}, nil, http.StatusOK)

	var knnOut knnResponse
	call(t, ts, "POST", "/knn", knnRequest{Query: ids[0], K: 5}, &knnOut, http.StatusOK)
	if len(knnOut.Neighbors) != 2 { // 3 resident minus the query
		t.Errorf("knn default over capped registry: %d neighbors, want 2", len(knnOut.Neighbors))
	}
	for _, nb := range knnOut.Neighbors {
		if nb.ID == ids[1] {
			t.Error("evicted trajectory still in the knn default dataset")
		}
	}

	var stats statsBody
	call(t, ts, "GET", "/stats", nil, &stats, http.StatusOK)
	if stats.Trajectories != 3 || stats.EvictedLRU != 1 {
		t.Errorf("stats: trajectories=%d evictedLRU=%d, want 3/1", stats.Trajectories, stats.EvictedLRU)
	}
}

// TestKNNDefaultDuringAutoEviction is the PR 5 skip-not-404 churn
// regression re-run with *automatic* eviction as the removal driver: a
// tightly capped registry churns under concurrent uploads while /knn
// and /join default-dataset requests run against it. An id vanishing
// between the IDs snapshot and its resolution must be skipped, never a
// 404 or 500. (A 404 from /knn is still legitimate when the *query*
// trajectory itself was evicted — the LRU makes no promise to a cold
// id — so /join, which names no id, carries the strict invariant.)
// The CI race job runs this under -race.
func TestKNNDefaultDuringAutoEviction(t *testing.T) {
	st := store.New(&store.Options{MaxTrajectories: 3})
	srv := New(st, &Options{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	query := upload(t, ts, fixture(t, 91, 40))

	bodies := make([][]byte, 30)
	for k := range bodies {
		tr := fixture(t, int64(200+k), 40)
		req := trajectoryRequest{Points: make([][2]float64, tr.Len())}
		for j, p := range tr.Points {
			req.Points[j] = [2]float64{p.Lat, p.Lng}
		}
		bodies[k], _ = json.Marshal(req)
	}
	// The churn starts only once a /knn has found its query: three churn
	// uploads before the first /knn would LRU-evict the query and leave
	// nothing to overlap with.
	start := make(chan struct{})
	var startOnce sync.Once
	release := func() { startOnce.Do(func() { close(start) }) }
	defer release() // a failed test must not strand the churn goroutine
	done := make(chan error, 1)
	go func() {
		<-start
		for k := range bodies {
			resp, err := http.Post(ts.URL+"/trajectories", "application/json", bytes.NewReader(bodies[k]))
			if err != nil {
				done <- err
				return
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				done <- fmt.Errorf("churn upload %d: status %d", k, resp.StatusCode)
				return
			}
		}
		done <- nil
	}()
	sawKNNOK := false
	for k := 0; k < 30; k++ {
		b, _ := json.Marshal(knnRequest{Query: query, K: 1})
		resp, err := http.Post(ts.URL+"/knn", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			release()
			sawKNNOK = true
		case http.StatusNotFound: // the query itself was evicted
		default:
			t.Fatalf("knn default mid-eviction-churn: status %d", resp.StatusCode)
		}
		b, _ = json.Marshal(joinRequest{Eps: 1e9})
		resp, err = http.Post(ts.URL+"/join", "application/json", bytes.NewReader(b))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("join default mid-eviction-churn: status %d", resp.StatusCode)
		}
	}
	release() // let the churn run even if no /knn succeeded, so its errors surface
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	if !sawKNNOK {
		t.Error("no knn request ever found its query — churn never overlapped")
	}

	checkIndexBoxes(t, srv.Backend())
	if n := srv.Backend().Len(); n > 3 {
		t.Errorf("registry grew to %d past the cap", n)
	}
}

// TestServeTTLEviction: a TTL'd registry expires idle trajectories on
// the next access, visible through /stats and the evictions counter.
func TestServeTTLEviction(t *testing.T) {
	st := store.New(&store.Options{TrajectoryTTL: 30 * time.Millisecond})
	srv := New(st, &Options{Workers: 1})
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	id := upload(t, ts, fixture(t, 95, 40))
	time.Sleep(60 * time.Millisecond)
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 6}, nil, http.StatusNotFound)

	var stats statsBody
	call(t, ts, "GET", "/stats", nil, &stats, http.StatusOK)
	if stats.Trajectories != 0 || stats.EvictedTTL != 1 {
		t.Errorf("stats after TTL expiry: trajectories=%d evictedTTL=%d, want 0/1",
			stats.Trajectories, stats.EvictedTTL)
	}
	m := scrape(t, ts)
	if m[`motifserve_trajectory_evictions_total{cause="ttl"}`] != 1 {
		t.Errorf("ttl eviction not in /metrics: %v", m[`motifserve_trajectory_evictions_total{cause="ttl"}`])
	}
}
