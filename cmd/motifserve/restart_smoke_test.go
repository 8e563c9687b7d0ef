package main

import (
	"path/filepath"
	"strings"
	"testing"

	"trajmotif"
)

// TestRestartSmokeBinary is the end-to-end restart drill behind `make
// restart-smoke`: run the real binary with a persistent artifact tier
// and registry snapshotting, upload + discover, SIGTERM, restart against
// the same directory, and prove the warm process answers the same
// discover byte-for-byte from disk — registry restored without
// re-upload, zero grids rebuilt, every artifact promoted from the disk
// tier.
func TestRestartSmokeBinary(t *testing.T) {
	artDir := filepath.Join(t.TempDir(), "artifacts")
	args := []string{
		"-addr", "127.0.0.1:0", "-workers", "1",
		"-artifact-dir", artDir, "-snapshot-on-shutdown",
	}

	type motif struct {
		A, B struct {
			Start int `json:"start"`
			End   int `json:"end"`
		}
		Distance float64 `json:"distance"`
		Stats    struct {
			DPCells          int64 `json:"dpCells"`
			SubsetsProcessed int64 `json:"subsetsProcessed"`
		} `json:"stats"`
	}
	type stats struct {
		Trajectories int   `json:"trajectories"`
		Built        int64 `json:"built"`
		Reused       int64 `json:"reused"`
		DiskWrites   int64 `json:"diskWrites"`
		DiskReads    int64 `json:"diskReads"`
		DiskErrors   int64 `json:"diskErrors"`
	}

	// Cold run: upload, discover, shut down with a snapshot.
	p1 := startMotifserve(t, args...)
	tr, err := trajmotif.GenerateDataset(trajmotif.GeoLife, trajmotif.DatasetConfig{Seed: 42, N: 300})
	if err != nil {
		t.Fatal(err)
	}
	points := make([][2]float64, tr.Len())
	for k, p := range tr.Points {
		points[k] = [2]float64{p.Lat, p.Lng}
	}
	var up struct {
		ID string `json:"id"`
	}
	p1.post(t, "/trajectories", map[string]any{"points": points}, &up)

	req := map[string]any{"id": up.ID, "xi": 10}
	var cold motif
	p1.post(t, "/discover", req, &cold)
	var coldStats stats
	p1.get(t, "/stats", &coldStats)
	if coldStats.DiskWrites == 0 {
		t.Fatalf("cold run spilled nothing to disk: %+v", coldStats)
	}
	out := p1.stop(t)
	if !strings.Contains(out, "motifserve snapshotted 1 trajectories") {
		t.Fatalf("shutdown output missing snapshot line: %s", out)
	}

	// Warm run: same directory, no re-upload.
	p2 := startMotifserve(t, args...)
	var warmBoot stats
	p2.get(t, "/stats", &warmBoot)
	if warmBoot.Trajectories != 1 {
		t.Fatalf("restart restored %d trajectories, want 1", warmBoot.Trajectories)
	}
	var warm motif
	p2.post(t, "/discover", req, &warm)
	var warmStats stats
	p2.get(t, "/stats", &warmStats)

	if warm != cold {
		t.Errorf("warm /discover differs from cold: %+v vs %+v", warm, cold)
	}
	if warmStats.Built != 0 {
		t.Errorf("warm /discover rebuilt %d artifacts, want 0", warmStats.Built)
	}
	if warmStats.DiskReads == 0 {
		t.Error("warm /discover promoted nothing from disk")
	}
	if warmStats.Reused == 0 {
		t.Error("warm /discover reused no artifacts")
	}
	if warmStats.DiskErrors != 0 {
		t.Errorf("disk tier reported %d errors", warmStats.DiskErrors)
	}
	t.Logf("restart-smoke: motif %.2fm; warm run built %d, reused %d, diskReads %d",
		warm.Distance, warmStats.Built, warmStats.Reused, warmStats.DiskReads)
}
