package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"trajmotif"
)

// restartProc is one run of the motifserve binary for the restart smoke
// test: the process, its base URL, and the stdout scanner (kept so the
// shutdown lines can be read after SIGTERM).
type restartProc struct {
	cmd  *exec.Cmd
	base string
	sc   *bufio.Scanner
}

// startMotifserve launches bin with args, waits for the listen line
// (skipping the restore line a warm boot prints first) and for /healthz.
func startMotifserve(t *testing.T, bin string, args ...string) *restartProc {
	t.Helper()
	cmd := exec.Command(bin, args...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	sc := bufio.NewScanner(stdout)
	addr := ""
	for sc.Scan() {
		line := sc.Text()
		if strings.Contains(line, "listening on") {
			addr = line[strings.LastIndex(line, " ")+1:]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen line: %v", sc.Err())
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("server never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	return &restartProc{cmd: cmd, base: base, sc: sc}
}

// stop SIGTERMs the process, drains stdout and waits for a clean exit,
// returning the post-signal output (drain/snapshot/stop lines).
func (p *restartProc) stop(t *testing.T) string {
	t.Helper()
	if err := p.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for p.sc.Scan() {
		out.WriteString(p.sc.Text() + "\n")
	}
	if err := p.cmd.Wait(); err != nil {
		t.Fatalf("SIGTERM exit: %v (output: %s)", err, out.String())
	}
	return out.String()
}

func (p *restartProc) post(t *testing.T, path string, body, out any) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(p.base+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatalf("POST %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		var e struct {
			Error string `json:"error"`
		}
		_ = json.NewDecoder(resp.Body).Decode(&e)
		t.Fatalf("POST %s: status %d: %s", path, resp.StatusCode, e.Error)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("POST %s: decode: %v", path, err)
	}
}

func (p *restartProc) get(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(p.base + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", path, err)
	}
}

// TestRestartSmokeBinary is the end-to-end restart drill behind `make
// restart-smoke`: run the real binary with a persistent artifact tier
// and registry snapshotting, upload + discover, SIGTERM, restart against
// the same directory, and prove the warm process answers the same
// discover byte-for-byte from disk — registry restored without
// re-upload, zero grids rebuilt, every artifact promoted from the disk
// tier.
func TestRestartSmokeBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and execs a binary; skipped in -short")
	}
	bin := filepath.Join(t.TempDir(), "motifserve")
	build := exec.Command("go", "build", "-o", bin, ".")
	build.Stderr = os.Stderr
	if err := build.Run(); err != nil {
		t.Fatalf("go build: %v", err)
	}

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
	p1 := startMotifserve(t, bin, args...)
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
	p2 := startMotifserve(t, bin, args...)
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
