package store

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/traj"
)

// diskReq is the canonical small artifact request the disk suite drives
// the store with — tiny points so the fault-injection sweep over every
// byte offset stays fast.
func diskReq(pts []geo.Point) core.ArtifactRequest {
	return core.ArtifactRequest{
		A:          pts,
		Self:       true,
		Xi:         3,
		WithBounds: true,
		Dist:       geo.Haversine,
		Workers:    1,
	}
}

func smallPoints(n int) []geo.Point {
	pts := make([]geo.Point, n)
	for k := range pts {
		pts[k] = geo.Point{Lat: 39.9 + float64(k)*0.002, Lng: 116.3 + float64(k%4)*0.003}
	}
	return pts
}

// TestDiskSpillAndPromote: artifacts built with an ArtifactDir land on
// disk; a brand-new store over the same directory serves them from disk
// — byte-identical artifacts, zero rebuilds, and the promotion counted
// as a reuse.
func TestDiskSpillAndPromote(t *testing.T) {
	dir := t.TempDir()
	pts := smallPoints(20)
	req := diskReq(pts)

	s1 := New(&Options{ArtifactDir: dir})
	g1, rb1, reused := s1.Artifacts(req)
	if reused != 0 {
		t.Fatalf("cold request claims %d reuses", reused)
	}
	st1 := s1.Stats()
	if st1.DiskWrites != 2 || st1.DiskArtifacts != 2 || st1.DiskBytes <= 0 {
		t.Fatalf("expected grid+bounds spilled: %+v", st1)
	}
	if st1.DiskErrors != 0 || st1.DiskReads != 0 {
		t.Fatalf("unexpected disk traffic: %+v", st1)
	}

	// Fresh process, same directory: the RAM cache is empty, so both
	// artifacts must come off disk — and count as reuses, which is the
	// warm-restart counter-parity argument.
	s2 := New(&Options{ArtifactDir: dir})
	if st := s2.Stats(); st.DiskArtifacts != 2 {
		t.Fatalf("startup scan missed the artifacts: %+v", st)
	}
	g2, rb2, reused := s2.Artifacts(req)
	if reused != 2 {
		t.Fatalf("warm-restart request reused %d artifacts, want 2", reused)
	}
	if !reflect.DeepEqual(g1, g2) || !reflect.DeepEqual(rb1, rb2) {
		t.Fatal("promoted artifacts differ from the originals")
	}
	st2 := s2.Stats()
	if st2.Built != 0 || st2.Reused != 2 || st2.DiskReads != 2 || st2.DiskErrors != 0 {
		t.Fatalf("promotion accounting off: %+v", st2)
	}
	// Promoted copies are now RAM-resident: the next request touches
	// neither disk nor the builders.
	if _, _, reused := s2.Artifacts(req); reused != 2 {
		t.Fatalf("post-promotion request reused %d", reused)
	}
	if st := s2.Stats(); st.DiskReads != 2 {
		t.Fatalf("RAM hit went back to disk: %+v", st)
	}
}

// TestDiskEvictionIsDemotion: a RAM eviction does not lose the artifact
// — the write-through copy stays on disk and the next request promotes
// instead of rebuilding.
func TestDiskEvictionIsDemotion(t *testing.T) {
	dir := t.TempDir()
	a, b := smallPoints(40), smallPoints(44)
	// One 40x40 grid is 12800 bytes; budget roughly one trajectory's
	// grid+bounds so the second trajectory evicts the first.
	s := New(&Options{ArtifactDir: dir, CacheBytes: 16_000})
	ga, _, _ := s.Artifacts(diskReq(a))
	s.Artifacts(diskReq(b))
	st := s.Stats()
	if st.Evicted == 0 {
		t.Fatalf("budget never forced an eviction: %+v", st)
	}
	if st.DiskArtifacts != 4 {
		t.Fatalf("disk lost a demoted artifact: %+v", st)
	}
	ga2, _, reused := s.Artifacts(diskReq(a))
	if reused == 0 {
		t.Fatalf("evicted artifact was rebuilt instead of promoted: %+v", s.Stats())
	}
	if !reflect.DeepEqual(ga, ga2) {
		t.Fatal("demoted-then-promoted grid differs")
	}
	if after := s.Stats(); after.DiskReads == 0 {
		t.Fatalf("promotion not counted: %+v", after)
	}
}

// TestDiskPurgeOnRemove: Remove purges disk copies alongside RAM ones,
// and a fresh store over the directory sees nothing to promote.
func TestDiskPurgeOnRemove(t *testing.T) {
	dir := t.TempDir()
	tr := fixture(t, 11, 30)
	s := New(&Options{ArtifactDir: dir})
	id, _, err := s.Add(tr)
	if err != nil {
		t.Fatal(err)
	}
	s.Artifacts(diskReq(tr.Points))
	if st := s.Stats(); st.DiskArtifacts != 2 {
		t.Fatalf("setup: %+v", st)
	}
	if !s.Remove(id) {
		t.Fatal("Remove reported absent id")
	}
	if st := s.Stats(); st.Artifacts != 0 || st.DiskArtifacts != 0 || st.DiskBytes != 0 {
		t.Fatalf("Remove left artifacts behind: %+v", st)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("Remove left %d files on disk", len(entries))
	}
}

// TestDiskFaultInjection kills the artifact write at every byte offset,
// in both crash shapes the rename protocol allows — a leftover temp file
// (the rename never happened) and a torn final file (simulating a
// corrupted disk) — and asserts the store never serves a torn artifact:
// every request returns the bit-exact artifacts, and the directory ends
// up healed with a valid rewrite.
func TestDiskFaultInjection(t *testing.T) {
	pts := smallPoints(12)
	req := diskReq(pts)

	// Reference artifacts and a pristine file image to truncate.
	refDir := t.TempDir()
	refStore := New(&Options{ArtifactDir: refDir})
	refG, refRB, _ := refStore.Artifacts(req)
	var artNames []string
	entries, err := os.ReadDir(refDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		artNames = append(artNames, e.Name())
	}
	if len(artNames) != 2 {
		t.Fatalf("expected 2 artifact files, got %v", artNames)
	}

	check := func(t *testing.T, dir string, wantErrors bool) {
		s := New(&Options{ArtifactDir: dir})
		g, rb, _ := s.Artifacts(req)
		if !reflect.DeepEqual(g, refG) || !reflect.DeepEqual(rb, refRB) {
			t.Fatal("store served a torn artifact")
		}
		if wantErrors && s.Stats().DiskErrors == 0 {
			t.Fatalf("corruption went uncounted: %+v", s.Stats())
		}
		// Self-heal: both artifacts valid on disk again.
		s2 := New(&Options{ArtifactDir: dir})
		g2, rb2, reused := s2.Artifacts(req)
		if reused != 2 || !reflect.DeepEqual(g2, refG) || !reflect.DeepEqual(rb2, refRB) {
			t.Fatalf("directory not healed: reused=%d", reused)
		}
	}

	for _, name := range artNames {
		data, err := os.ReadFile(filepath.Join(refDir, name))
		if err != nil {
			t.Fatal(err)
		}
		// Crash shape 1: the temp file was written to length cut and the
		// process died before the rename. The startup scan must discard it.
		t.Run("tmpfile/"+name, func(t *testing.T) {
			for cut := 0; cut <= len(data); cut += 97 {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, artifactTmpPref+"art-killed"), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				s := New(&Options{ArtifactDir: dir})
				if st := s.Stats(); st.DiskErrors == 0 || st.DiskArtifacts != 0 {
					t.Fatalf("cut %d: temp leftover not healed: %+v", cut, st)
				}
				if _, err := os.Stat(filepath.Join(dir, artifactTmpPref+"art-killed")); !os.IsNotExist(err) {
					t.Fatalf("cut %d: temp leftover still present", cut)
				}
			}
		})
		// Crash shape 2: the final file exists but holds a strict prefix
		// (torn write / bad sector). Every cut must be detected on read,
		// deleted, recomputed, and rewritten.
		t.Run("torn/"+name, func(t *testing.T) {
			for cut := 0; cut < len(data); cut++ {
				dir := t.TempDir()
				if err := os.WriteFile(filepath.Join(dir, name), data[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				check(t, dir, true)
			}
		})
		// A flipped payload byte defeats length checks; the checksum must
		// catch it.
		t.Run("bitflip/"+name, func(t *testing.T) {
			for _, off := range []int{len(data) / 3, len(data) / 2, len(data) - 1} {
				dir := t.TempDir()
				mut := append([]byte(nil), data...)
				mut[off] ^= 0x40
				if err := os.WriteFile(filepath.Join(dir, name), mut, 0o644); err != nil {
					t.Fatal(err)
				}
				check(t, dir, true)
			}
		})
		// A valid artifact renamed to another key must not serve under
		// that key: the embedded name binds file to key.
		t.Run("renamed/"+name, func(t *testing.T) {
			dir := t.TempDir()
			wrong := strings.Replace(name, "-3-", "-4-", 1)
			if wrong == name {
				wrong = strings.Replace(name, "-0-", "-1-", 1)
			}
			if err := os.WriteFile(filepath.Join(dir, wrong), data, 0o644); err != nil {
				t.Fatal(err)
			}
			s := New(&Options{ArtifactDir: dir})
			g, rb, reused := s.Artifacts(req)
			if !reflect.DeepEqual(g, refG) || !reflect.DeepEqual(rb, refRB) {
				t.Fatal("artifacts diverged")
			}
			_ = reused
		})
	}

	// Unparseable .art files are removed by the startup scan.
	t.Run("foreign", func(t *testing.T) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "not-an-artifact.art"), []byte("junk"), 0o644); err != nil {
			t.Fatal(err)
		}
		s := New(&Options{ArtifactDir: dir})
		if st := s.Stats(); st.DiskErrors == 0 || st.DiskArtifacts != 0 {
			t.Fatalf("junk .art survived the scan: %+v", st)
		}
	})

	// Files from before the format change are recomputable caches: the
	// next discover must rebuild them and answer exactly as a store that
	// never saw them.
	tr := traj.FromPoints(pts)
	want, err := core.BTM(tr, req.Xi, &core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	discover := func(t *testing.T, s *Store) {
		t.Helper()
		got, err := core.BTM(tr, req.Xi, &core.Options{Workers: 1, Artifacts: s})
		if err != nil {
			t.Fatal(err)
		}
		if got.Distance != want.Distance || got.A != want.A || got.B != want.B {
			t.Fatalf("discover after reaping = %+v, want %+v", got, want)
		}
	}
	// The old filename grammar carried a -f32|f64 storage field; the
	// startup scan cannot parse it and reaps the file.
	t.Run("legacy-name", func(t *testing.T) {
		dir := t.TempDir()
		for _, name := range artNames {
			data, err := os.ReadFile(filepath.Join(refDir, name))
			if err != nil {
				t.Fatal(err)
			}
			legacy := strings.TrimSuffix(name, artifactExt) + "-f64" + artifactExt
			if err := os.WriteFile(filepath.Join(dir, legacy), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s := New(&Options{ArtifactDir: dir})
		if st := s.Stats(); st.DiskErrors != int64(len(artNames)) || st.DiskArtifacts != 0 {
			t.Fatalf("legacy names not reaped: %+v", st)
		}
		discover(t, s)
		if st := s.Stats(); st.Built != 2 || st.DiskReads != 0 {
			t.Fatalf("discover did not rebuild: %+v", st)
		}
		left, _ := filepath.Glob(filepath.Join(dir, "*-f64"+artifactExt))
		if len(left) != 0 {
			t.Fatalf("legacy files survived: %v", left)
		}
	})
	// A grid payload in the retired float32 layout (storage mode 1)
	// under a valid name passes the container checks but not the grid
	// decoder: the read heals it like a torn file.
	t.Run("mode1-grid", func(t *testing.T) {
		dir := t.TempDir()
		enc := refG.Marshal()
		n, m := refG.Dims()
		old := make([]byte, 17+4*n*m)
		old[0] = 1
		copy(old[1:17], enc[1:17])
		for i := 0; i < n; i++ {
			for j := 0; j < m; j++ {
				binary.LittleEndian.PutUint32(old[17+4*(i*m+j):], math.Float32bits(float32(refG.At(i, j))))
			}
		}
		var gridName string
		for _, name := range artNames {
			if strings.HasPrefix(name, kindNames[kindSelfGrid]+"-") {
				gridName = name
			}
		}
		key, ok := parseArtifactName(gridName)
		if !ok {
			t.Fatalf("reference grid file %q missing or unparseable", gridName)
		}
		if _, err := (&diskTier{dir: dir}).writeArtifact(key, old); err != nil {
			t.Fatal(err)
		}
		s := New(&Options{ArtifactDir: dir})
		if st := s.Stats(); st.DiskArtifacts != 1 || st.DiskErrors != 0 {
			t.Fatalf("valid name not indexed: %+v", st)
		}
		discover(t, s)
		if st := s.Stats(); st.DiskErrors != 1 || st.Built != 2 {
			t.Fatalf("mode-1 grid not healed and rebuilt: %+v", st)
		}
		check(t, dir, false)
	})
}

// TestSnapshotRestartParity is the tentpole acceptance test: populate,
// snapshot, restart over the same artifact directory, and prove the
// restarted store is byte-identical to one that never restarted —
// results AND effort counters, GridRebuildsAvoided included.
func TestSnapshotRestartParity(t *testing.T) {
	trs := []*struct{ seed, n int }{{21, 90}, {22, 110}, {23, 70}}
	phase := func(s *Store) []*group.Result {
		var out []*group.Result
		for _, cfg := range trs {
			tr := fixture(t, int64(cfg.seed), cfg.n)
			if _, _, err := s.Add(tr); err != nil {
				t.Fatal(err)
			}
			r, err := group.GTM(tr, 6, 12, &core.Options{Workers: 2, Artifacts: s})
			if err != nil {
				t.Fatal(err)
			}
			// Scrub wall-clock timings only: every effort counter —
			// GridRebuildsAvoided included — stays in the comparison.
			r.Stats.Precompute, r.Stats.Search = 0, 0
			r.Group.Stats.Precompute, r.Group.Stats.Search = 0, 0
			out = append(out, r)
		}
		return out
	}

	// Control: one store, never restarted, runs both phases.
	ctlDir := t.TempDir()
	ctl := New(&Options{ArtifactDir: ctlDir})
	phase(ctl)
	ctlBefore := ctl.Stats()
	ctlPhase2 := phase(ctl)
	ctlAfter := ctl.Stats()

	// Subject: same phase 1, then snapshot + restart onto the same
	// artifact directory, then phase 2.
	subDir := t.TempDir()
	snap := filepath.Join(subDir, "registry.snap")
	sub1 := New(&Options{ArtifactDir: subDir})
	phase(sub1)
	if n, err := sub1.Snapshot(snap); err != nil || n != len(trs) {
		t.Fatalf("Snapshot: n=%d err=%v", n, err)
	}
	sub2 := New(&Options{ArtifactDir: subDir})
	if n, err := sub2.Restore(snap); err != nil || n != len(trs) {
		t.Fatalf("Restore: n=%d err=%v", n, err)
	}
	if got, want := sub2.IDs(), sub1.IDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("restored registry differs:\n got %v\nwant %v", got, want)
	}
	subBefore := sub2.Stats()
	subPhase2 := phase(sub2)
	subAfter := sub2.Stats()

	// Per-request results and effort counters — including
	// GridRebuildsAvoided, the counter a naive disk tier would skew —
	// must match the never-restarted control exactly.
	if !reflect.DeepEqual(ctlPhase2, subPhase2) {
		t.Fatalf("phase-2 results diverge after restart:\nctl %+v\nsub %+v", ctlPhase2, subPhase2)
	}
	// Store-wide construction effort across phase 2 must match too: the
	// control reuses from RAM, the subject promotes from disk, and both
	// motions count identically.
	ctlBuilt, ctlReused := ctlAfter.Built-ctlBefore.Built, ctlAfter.Reused-ctlBefore.Reused
	subBuilt, subReused := subAfter.Built-subBefore.Built, subAfter.Reused-subBefore.Reused
	if ctlBuilt != subBuilt || ctlReused != subReused {
		t.Fatalf("phase-2 effort diverges: ctl built=%d reused=%d, sub built=%d reused=%d",
			ctlBuilt, ctlReused, subBuilt, subReused)
	}
	if subAfter.DiskReads == 0 {
		t.Fatalf("restarted store never promoted from disk: %+v", subAfter)
	}
	if subBuilt != 0 {
		t.Fatalf("restarted store rebuilt %d artifacts it had on disk", subBuilt)
	}
}

// TestSnapshotRejectsCorruption: every strict prefix of a snapshot file
// fails to decode — a torn snapshot is rejected whole.
func TestSnapshotRejectsCorruption(t *testing.T) {
	s := New(nil)
	for _, seed := range []int64{31, 32} {
		if _, _, err := s.Add(fixture(t, seed, 25)); err != nil {
			t.Fatal(err)
		}
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "registry.snap")
	if _, err := s.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	ts, err := decodeSnapshot(data)
	if err != nil || len(ts) != 2 {
		t.Fatalf("decode: %d trajectories, err=%v", len(ts), err)
	}
	for cut := 0; cut < len(data); cut++ {
		if _, err := decodeSnapshot(data[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	if _, err := decodeSnapshot(append(append([]byte(nil), data...), 0)); err == nil {
		t.Fatal("trailing byte accepted")
	}
	// Restore of a missing file is a clean first boot, not an error.
	s2 := New(nil)
	if n, err := s2.Restore(filepath.Join(dir, "absent.snap")); n != 0 || err != nil {
		t.Fatalf("missing snapshot: n=%d err=%v", n, err)
	}
}

// TestPointDistsMemo: the intra-trajectory point-distance memo returns
// the exact direct evaluations, hits on repeats and symmetric queries,
// and spills/promotes through the disk tier like every other artifact.
func TestPointDistsMemo(t *testing.T) {
	dir := t.TempDir()
	pts := smallPoints(9)
	s := New(&Options{ArtifactDir: dir})
	pd := s.PointDists(pts)
	if pd == nil {
		t.Fatal("PointDists returned nil with caching on")
	}
	d, ok := pd(2, 7)
	if !ok || d != geo.Haversine(pts[2], pts[7]) {
		t.Fatalf("memo value %v differs from direct evaluation", d)
	}
	if d2, ok := pd(7, 2); !ok || d2 != d {
		t.Fatal("symmetric query missed the memo")
	}
	st := s.Stats()
	if st.PairDistsBuilt != 1 || st.PairDistsReused != 1 {
		t.Fatalf("memo accounting off: %+v", st)
	}
	if st.DiskWrites != 1 {
		t.Fatalf("point-dist memo never spilled: %+v", st)
	}

	// Fresh store, same dir: the memo promotes from disk.
	s2 := New(&Options{ArtifactDir: dir})
	pd2 := s2.PointDists(pts)
	if d2, ok := pd2(2, 7); !ok || d2 != d {
		t.Fatalf("promoted memo value %v differs", d2)
	}
	st2 := s2.Stats()
	if st2.DiskReads != 1 || st2.PairDistsReused != 1 || st2.PairDistsBuilt != 0 {
		t.Fatalf("promotion accounting off: %+v", st2)
	}

	// Out-of-range indexes report a miss rather than panicking.
	if _, ok := pd(-1, 3); ok {
		t.Fatal("negative index served")
	}
	if _, ok := pd(0, len(pts)); ok {
		t.Fatal("out-of-range index served")
	}
	// Disabled cache: nil supplier, as documented.
	if New(&Options{CacheBytes: -1}).PointDists(pts) != nil {
		t.Fatal("disabled cache returned a supplier")
	}
}
