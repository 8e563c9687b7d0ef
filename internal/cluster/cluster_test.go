package cluster

import (
	"math/rand"
	"testing"

	"trajmotif/internal/datagen"
	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

func TestWindows(t *testing.T) {
	ws := Windows(10, 4, 3)
	want := []traj.Span{{Start: 0, End: 3}, {Start: 3, End: 6}, {Start: 6, End: 9}}
	if len(ws) != len(want) {
		t.Fatalf("got %v", ws)
	}
	for k := range want {
		if ws[k] != want[k] {
			t.Errorf("window %d = %v, want %v", k, ws[k], want[k])
		}
	}
	if Windows(10, 1, 2) != nil || Windows(10, 4, 0) != nil {
		t.Error("degenerate parameters should yield nil")
	}
	if got := Windows(3, 4, 1); got != nil {
		t.Errorf("window longer than input should yield nil, got %v", got)
	}
}

func TestSubtrajectoriesValidation(t *testing.T) {
	tr := traj.FromPoints([]geo.Point{{Lat: 1, Lng: 1}, {Lat: 2, Lng: 2}, {Lat: 3, Lng: 3}})
	if _, err := Subtrajectories(tr, 10, 1, nil); err == nil {
		t.Error("window longer than trajectory should error")
	}
	if _, err := Subtrajectories(tr, 1, 1, nil); err == nil {
		t.Error("window of 1 should error")
	}
	if _, err := Subtrajectories(tr, 2, -1, nil); err == nil {
		t.Error("negative radius should error")
	}
	if _, err := Subtrajectories(nil, 2, 1, nil); err == nil {
		t.Error("nil trajectory should error")
	}
}

// TestClusterMembershipIsSound verifies the leader invariant: every member
// window is within eps of its cluster's representative (exact DFD check).
func TestClusterMembershipIsSound(t *testing.T) {
	tr := datagen.Baboon(datagen.Config{Seed: 13, N: 600})
	eps := 25.0
	window := 30
	clusters, err := Subtrajectories(tr, window, eps, &Options{MinSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters found")
	}
	covered := 0
	for _, c := range clusters {
		rep := tr.SubSpan(c.Representative)
		for _, m := range c.Members {
			d := dist.DFD(tr.SubSpan(m), rep, geo.Haversine)
			if d > eps+1e-6 {
				t.Fatalf("member %v at DFD %.2f > eps %.2f from rep %v", m, d, eps, c.Representative)
			}
			covered++
		}
	}
	// Every window is assigned to exactly one cluster with MinSize 1.
	if want := len(Windows(tr.Len(), window, window/2)); covered != want {
		t.Errorf("covered %d windows, want %d", covered, want)
	}
}

// TestClusteringFindsRepeatedCorridor plants a re-walked corridor and
// expects its windows to congregate in one cluster.
func TestClusteringFindsRepeatedCorridor(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	corridor := make([]geo.Point, 40)
	for k := range corridor {
		corridor[k] = geo.Offset(geo.Point{Lat: 10, Lng: 10}, float64(k)*20, float64(k%7)*8)
	}
	noisyCopy := func(jm float64) []geo.Point {
		out := make([]geo.Point, len(corridor))
		for k, p := range corridor {
			out[k] = geo.Offset(p, r.Float64()*jm, r.Float64()*jm)
		}
		return out
	}
	wander := func(n int, cx, cy float64) []geo.Point {
		out := make([]geo.Point, n)
		for k := range out {
			out[k] = geo.Offset(geo.Point{Lat: 10, Lng: 10}, cx+r.Float64()*3000, cy+r.Float64()*3000)
		}
		return out
	}
	var pts []geo.Point
	pts = append(pts, noisyCopy(5)...)
	pts = append(pts, wander(40, 20000, -15000)...)
	pts = append(pts, noisyCopy(5)...)
	pts = append(pts, wander(40, -20000, 25000)...)
	pts = append(pts, noisyCopy(5)...)
	tr := traj.FromPoints(pts)

	clusters, err := Subtrajectories(tr, 40, 30, &Options{Stride: 40})
	if err != nil {
		t.Fatal(err)
	}
	if len(clusters) == 0 {
		t.Fatal("no clusters")
	}
	top := clusters[0]
	if top.Size() != 3 {
		t.Fatalf("top cluster has %d members, want the 3 corridor copies (clusters: %d)", top.Size(), len(clusters))
	}
	// Corridor copies start at 0, 80 and 160 (each block is 40 points).
	for _, m := range top.Members {
		if m.Start%80 != 0 || m.Start > 160 {
			t.Errorf("member %v is not a corridor copy", m)
		}
	}
}

func TestClustersSortedBySize(t *testing.T) {
	tr := datagen.GeoLife(datagen.Config{Seed: 15, N: 500})
	clusters, err := Subtrajectories(tr, 25, 40, nil)
	if err != nil {
		t.Fatal(err)
	}
	for k := 1; k < len(clusters); k++ {
		if clusters[k].Size() > clusters[k-1].Size() {
			t.Errorf("clusters not sorted by size at %d", k)
		}
	}
	// MinSize default of 2 excludes singletons.
	for _, c := range clusters {
		if c.Size() < 2 {
			t.Errorf("singleton cluster leaked: %+v", c)
		}
	}
}
