package main

import (
	"bytes"
	"fmt"
	"net/http"
	"strings"
	"testing"

	"trajmotif"
)

// TestServeSmokeBinary is the end-to-end smoke test behind `make
// serve-smoke`: build the real motifserve binary, start it on a free
// port, upload a generated trajectory, and assert that the second
// identical /discover request reports the reuse (gridRebuildsAvoided)
// while the server-wide artifact build counter stays flat — zero new
// grids.
func TestServeSmokeBinary(t *testing.T) {
	p := startMotifserve(t, "-addr", "127.0.0.1:0", "-workers", "1")

	// Upload a generated trajectory.
	tr, err := trajmotif.GenerateDataset(trajmotif.GeoLife, trajmotif.DatasetConfig{Seed: 42, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	points := make([][2]float64, tr.Len())
	for k, pt := range tr.Points {
		points[k] = [2]float64{pt.Lat, pt.Lng}
	}
	var up struct {
		ID string `json:"id"`
		N  int    `json:"n"`
	}
	p.post(t, "/trajectories", map[string]any{"points": points}, &up)
	if up.N != tr.Len() {
		t.Fatalf("upload echoed %d points", up.N)
	}

	type motif struct {
		A, B struct {
			Start int `json:"start"`
			End   int `json:"end"`
		}
		Distance float64 `json:"distance"`
		Stats    struct {
			GridRebuildsAvoided int64 `json:"gridRebuildsAvoided"`
			DPCells             int64 `json:"dpCells"`
		} `json:"stats"`
	}
	type stats struct {
		Built  int64 `json:"built"`
		Reused int64 `json:"reused"`
	}

	req := map[string]any{"id": up.ID, "xi": 10}
	var first motif
	p.post(t, "/discover", req, &first)
	var afterFirst stats
	p.get(t, "/stats", &afterFirst)

	var second motif
	p.post(t, "/discover", req, &second)
	var afterSecond stats
	p.get(t, "/stats", &afterSecond)

	if second.Stats.GridRebuildsAvoided == 0 {
		t.Error("second /discover reported no grid reuse")
	}
	if afterSecond.Built != afterFirst.Built {
		t.Errorf("second /discover built %d new artifacts, want 0", afterSecond.Built-afterFirst.Built)
	}
	if afterSecond.Reused <= afterFirst.Reused {
		t.Errorf("reuse counter did not advance: %d -> %d", afterFirst.Reused, afterSecond.Reused)
	}
	if first.Distance != second.Distance || first.A != second.A || first.B != second.B ||
		first.Stats.DPCells != second.Stats.DPCells {
		t.Errorf("cached /discover differs: %+v vs %+v", first, second)
	}
	fmt.Printf("serve-smoke: motif %.2fm, second request avoided %d rebuilds (store built %d, reused %d)\n",
		second.Distance, second.Stats.GridRebuildsAvoided, afterSecond.Built, afterSecond.Reused)

	// The binary exposes Prometheus text metrics that reflect the
	// traffic above.
	resp, err := http.Get(p.base + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var sb bytes.Buffer
	if _, err := sb.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	metricsText := sb.String()
	for _, want := range []string{
		`motifserve_requests_total{endpoint="/discover",code="200"} 2`,
		"motifserve_trajectories 1",
		"# TYPE motifserve_request_duration_seconds histogram",
	} {
		if !strings.Contains(metricsText, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestServeGracefulShutdown starts the binary, signals it with SIGTERM
// and asserts the drain path runs to a clean exit.
func TestServeGracefulShutdown(t *testing.T) {
	p := startMotifserve(t, "-addr", "127.0.0.1:0", "-shutdown-grace", "5s")
	out := p.stop(t)
	for _, want := range []string{"motifserve draining", "motifserve stopped"} {
		if !strings.Contains(out, want) {
			t.Errorf("shutdown output missing %q: %s", want, out)
		}
	}
}
