package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"trajmotif"
)

// TestLoadSmokeBinary is the end-to-end hardening check behind `make
// load-smoke`. It runs the real binary with a tight registry cap and
// admission limit and replays a seeded mix of uploads, discovers, kNN,
// joins, deletes and /stats and /metrics reads from six clients. The
// server may shed load (429) and forget evicted ids (404) under that
// traffic, but it must never answer 5xx or fail a request, and once the
// traffic drains it must hold at most its cap, have evicted by LRU,
// serve a parseable /metrics and hold no admission slot.
func TestLoadSmokeBinary(t *testing.T) {
	const (
		maxTrajectories = 24
		clients         = 6
		opsPerClient    = 50
		seed            = 3
	)
	p := startMotifserve(t, "-addr", "127.0.0.1:0", "-workers", "1",
		"-max-trajectories", strconv.Itoa(maxTrajectories), "-max-concurrent", "2")

	// 48 distinct bodies: enough to churn the cap, few enough that
	// re-uploads take the dedup path too.
	bodies := make([][]byte, 48)
	for k := range bodies {
		tr, err := trajmotif.GenerateDataset(trajmotif.Truck, trajmotif.DatasetConfig{Seed: seed + int64(k), N: 36})
		if err != nil {
			t.Fatal(err)
		}
		points := make([][2]float64, tr.Len())
		for j, pt := range tr.Points {
			points[j] = [2]float64{pt.Lat, pt.Lng}
		}
		bodies[k], _ = json.Marshal(map[string]any{"points": points})
	}
	jsonBody := func(v any) []byte {
		b, _ := json.Marshal(v)
		return b
	}

	// The latency ceiling: a request slower than 10 s is a transport
	// error, so every endpoint's slowest request, and with it its p99,
	// stays within 10 s.
	client := &http.Client{Timeout: 10 * time.Second}
	var (
		mu       sync.Mutex // guards byStatus
		byStatus = map[int]int{}
	)
	// do issues one request and reads its body to the end, so the
	// handler has returned (and released any admission slot) before do
	// does. A 5xx or a transport error fails the test.
	do := func(method, path string, body []byte) (int, []byte) {
		req, err := http.NewRequest(method, p.base+path, bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0, nil
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		var data []byte
		if err == nil {
			data, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		mu.Lock()
		defer mu.Unlock()
		if err != nil {
			t.Errorf("%s %s: %v", method, path, err)
			return 0, nil
		}
		byStatus[resp.StatusCode]++
		if resp.StatusCode >= 500 {
			t.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, data)
		}
		return resp.StatusCode, data
	}

	mix := []string{"upload", "upload", "upload", "discover", "discover", "discover", "knn", "join", "delete", "observe"}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed*1000 + int64(c)))
			// The ids this client uploaded and has not deleted. No client
			// queries another's, so whether an op finds its id does not
			// depend on how the clients interleave.
			var ids []string
			for range opsPerClient {
				op := mix[rng.Intn(len(mix))]
				id := ""
				if len(ids) > 0 {
					id = ids[rng.Intn(len(ids))]
				} else if op == "discover" || op == "knn" || op == "delete" {
					op = "upload" // nothing of its own to name yet
				}
				switch op {
				case "upload":
					var up struct {
						ID string `json:"id"`
					}
					code, data := do(http.MethodPost, "/trajectories", bodies[rng.Intn(len(bodies))])
					if code == http.StatusOK && json.Unmarshal(data, &up) == nil {
						ids = append(ids, up.ID)
					}
				case "discover":
					do(http.MethodPost, "/discover", jsonBody(map[string]any{"id": id, "xi": 6}))
				case "knn":
					do(http.MethodPost, "/knn", jsonBody(map[string]any{"query": id, "k": 2}))
				case "join":
					do(http.MethodPost, "/join", jsonBody(map[string]any{"eps": 500.0}))
				case "delete":
					do(http.MethodDelete, "/trajectories/"+id, nil)
					// Gone either way: deleted now, or already evicted (404).
					ids = slices.DeleteFunc(ids, func(s string) bool { return s == id })
				case "observe":
					path := "/stats"
					if rng.Intn(2) == 0 {
						path = "/metrics"
					}
					do(http.MethodGet, path, nil)
				}
			}
		}()
	}
	wg.Wait()
	t.Logf("statuses %v", byStatus)
	if byStatus[http.StatusOK] == 0 {
		t.Errorf("no request succeeded (statuses %v)", byStatus)
	}

	var st struct {
		Trajectories int   `json:"trajectories"`
		EvictedLRU   int64 `json:"evictedLRU"`
	}
	p.get(t, "/stats", &st)
	if st.Trajectories > maxTrajectories {
		t.Errorf("registry holds %d trajectories past the cap of %d", st.Trajectories, maxTrajectories)
	}
	if st.EvictedLRU == 0 {
		t.Error("capped registry saw no LRU evictions under the upload mix")
	}

	code, data := do(http.MethodGet, "/metrics", nil)
	if code != http.StatusOK {
		t.Fatalf("final /metrics: status %d", code)
	}
	samples := map[string]float64{}
	for _, line := range strings.Split(string(data), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if i < 0 || err != nil {
			t.Errorf("unparseable /metrics sample %q", line)
			continue
		}
		samples[line[:i]] = v
	}
	if len(samples) == 0 {
		t.Error("empty /metrics exposition")
	}
	// No leaked admission slot: with every request answered, nothing is
	// admitted and nothing waits.
	for _, gauge := range []string{"motifserve_admission_workers_in_use", "motifserve_admission_queued_requests"} {
		if v, ok := samples[gauge]; !ok || v != 0 {
			t.Errorf("after the drain %s = %v (exposed: %v), want 0", gauge, v, ok)
		}
	}
}
