package group

import (
	"math"
	"math/rand"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

func randTraj(r *rand.Rand, n int) *traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := 0.0, 0.0
	for i := range pts {
		x += r.Float64()*2 - 1
		y += r.Float64()*2 - 1
		pts[i] = geo.Point{Lng: x, Lat: y}
	}
	return traj.FromPoints(pts)
}

var euclid = &core.Options{Dist: geo.Euclidean}

func TestBuildLevelMinMax(t *testing.T) {
	r := rand.New(rand.NewSource(31))
	tr := randTraj(r, 23) // deliberately not a multiple of tau
	g := dmatrix.ComputeSelf(tr.Points, geo.Euclidean)
	for _, tau := range []int{2, 4, 8} {
		lv := BuildLevel(g, tau)
		wantNA := (23 + tau - 1) / tau
		if lv.NA != wantNA || lv.NB != wantNA {
			t.Fatalf("tau=%d: NA=%d NB=%d, want %d", tau, lv.NA, lv.NB, wantNA)
		}
		// Corollary 1: dmin <= dG(i,j) <= dmax for every cell of the pair.
		for u := 0; u < lv.NA; u++ {
			for v := 0; v < lv.NB; v++ {
				lo, hi := lv.Dmin(u, v), lv.Dmax(u, v)
				if lo > hi {
					t.Fatalf("tau=%d (%d,%d): dmin %g > dmax %g", tau, u, v, lo, hi)
				}
				for i := u * tau; i <= (u+1)*tau-1 && i < 23; i++ {
					for j := v * tau; j <= (v+1)*tau-1 && j < 23; j++ {
						d := g.At(i, j)
						if d < lo-1e-12 || d > hi+1e-12 {
							t.Fatalf("tau=%d: dG(%d,%d)=%g outside [%g,%g]", tau, i, j, d, lo, hi)
						}
					}
				}
			}
		}
	}
}

// TestDFDBoundsBracket is Lemma 3/4: for random feasible candidates rooted
// in (g_u, g_v), GLB_DFD <= DFD <= (finite) GUB_DFD-of-the-full-group-pair.
func TestDFDBoundsBracket(t *testing.T) {
	r := rand.New(rand.NewSource(32))
	for trial := 0; trial < 20; trial++ {
		n := 24 + r.Intn(16)
		xi := 2 + r.Intn(3)
		tau := []int{2, 4}[r.Intn(2)]
		tr := randTraj(r, n)
		g := dmatrix.ComputeSelf(tr.Points, geo.Euclidean)
		lv := BuildLevel(g, tau)

		for u := 0; u < lv.NA; u++ {
			for v := u; v < lv.NB; v++ {
				glb, gub, _ := lv.DFDBounds(u, v, xi, true, n, n, nil)
				// Sample candidates rooted in this pair.
				for k := 0; k < 5; k++ {
					i := u*tau + r.Intn(tau)
					j := v*tau + r.Intn(tau)
					if i >= n || j >= n || j < i+xi+2 || j > n-xi-2 || i > n-2*xi-4 {
						continue
					}
					ie := i + xi + 1 + r.Intn(j-i-xi-1)
					je := j + xi + 1 + r.Intn(n-j-xi-1)
					d := dist.DFD(tr.Points[i:ie+1], tr.Points[j:je+1], geo.Euclidean)
					if glb > d+1e-9 {
						t.Fatalf("GLB %g > DFD %g for cand (%d,%d,%d,%d), tau=%d xi=%d n=%d",
							glb, d, i, ie, j, je, tau, xi, n)
					}
				}
				// GUB, when finite, must be at least the motif distance
				// (it is an upper bound of a concrete feasible pair).
				if !math.IsInf(gub, 1) {
					if glb > gub+1e-9 {
						t.Fatalf("GLB %g > GUB %g at (%d,%d)", glb, gub, u, v)
					}
				}
			}
		}
	}
}

// TestGUBIsAchievable verifies the GUB feasibility rules: whenever GUB is
// finite there exists a concrete feasible full-group pair whose DFD is at
// most GUB.
func TestGUBIsAchievable(t *testing.T) {
	r := rand.New(rand.NewSource(33))
	for trial := 0; trial < 15; trial++ {
		n := 28 + r.Intn(10)
		xi := 2
		tau := 2
		tr := randTraj(r, n)
		g := dmatrix.ComputeSelf(tr.Points, geo.Euclidean)
		lv := BuildLevel(g, tau)
		for u := 0; u < lv.NA; u++ {
			for v := u; v < lv.NB; v++ {
				_, gub, _ := lv.DFDBounds(u, v, xi, true, n, n, nil)
				if math.IsInf(gub, 1) {
					continue
				}
				// Search all full-group pairs for a feasible witness with
				// DFD <= gub.
				found := false
				for ue := u; ue <= v && !found; ue++ {
					for ve := v; ve < lv.NB && !found; ve++ {
						ie := min((ue+1)*tau-1, n-1)
						je := min((ve+1)*tau-1, n-1)
						i, j := u*tau, v*tau
						if ie-i <= xi || je-j <= xi || ie >= j {
							continue
						}
						d := dist.DFD(tr.Points[i:ie+1], tr.Points[j:je+1], geo.Euclidean)
						if d <= gub+1e-9 {
							found = true
						}
					}
				}
				if !found {
					t.Fatalf("GUB %g at (%d,%d) has no feasible witness (n=%d)", gub, u, v, n)
				}
			}
		}
	}
}

// TestFourWayEquivalence is the headline exactness property: BruteDP, BTM,
// GTM and GTM* agree on the optimal motif distance for random
// trajectories, across τ values including degenerate ones.
func TestFourWayEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(34))
	for trial := 0; trial < 10; trial++ {
		n := 20 + r.Intn(25)
		xi := 1 + r.Intn(3)
		tr := randTraj(r, n)
		want, err := core.BruteDP(tr, xi, euclid)
		if err != nil {
			t.Fatal(err)
		}
		btm, err := core.BTM(tr, xi, euclid)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(btm.Distance-want.Distance) > 1e-9 {
			t.Fatalf("BTM %g != BruteDP %g", btm.Distance, want.Distance)
		}
		for _, tau := range []int{1, 2, 4, 8, 64} {
			gt, err := GTM(tr, xi, tau, euclid)
			if err != nil {
				t.Fatalf("GTM tau=%d: %v", tau, err)
			}
			if math.Abs(gt.Distance-want.Distance) > 1e-9 {
				t.Fatalf("GTM tau=%d: %g != %g (n=%d xi=%d)", tau, gt.Distance, want.Distance, n, xi)
			}
			if err := traj.MotifConstraints(gt.A, gt.B, xi); err != nil {
				t.Fatalf("GTM tau=%d returned infeasible pair: %v", tau, err)
			}
			gs, err := GTMStar(tr, xi, tau, euclid)
			if err != nil {
				t.Fatalf("GTM* tau=%d: %v", tau, err)
			}
			if math.Abs(gs.Distance-want.Distance) > 1e-9 {
				t.Fatalf("GTM* tau=%d: %g != %g (n=%d xi=%d)", tau, gs.Distance, want.Distance, n, xi)
			}
		}
	}
}

// TestFourWayEquivalenceCross repeats equivalence for two trajectories.
func TestFourWayEquivalenceCross(t *testing.T) {
	r := rand.New(rand.NewSource(35))
	for trial := 0; trial < 8; trial++ {
		n, m := 14+r.Intn(10), 14+r.Intn(10)
		xi := 1 + r.Intn(2)
		a, b := randTraj(r, n), randTraj(r, m)
		want, err := core.BruteDPCross(a, b, xi, euclid)
		if err != nil {
			t.Fatal(err)
		}
		for _, tau := range []int{2, 4} {
			gt, err := GTMCross(a, b, xi, tau, euclid)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(gt.Distance-want.Distance) > 1e-9 {
				t.Fatalf("GTMCross tau=%d: %g != %g", tau, gt.Distance, want.Distance)
			}
			gs, err := GTMStarCross(a, b, xi, tau, euclid)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(gs.Distance-want.Distance) > 1e-9 {
				t.Fatalf("GTM*Cross tau=%d: %g != %g", tau, gs.Distance, want.Distance)
			}
		}
	}
}

func TestGTMValidation(t *testing.T) {
	tr := randTraj(rand.New(rand.NewSource(36)), 30)
	if _, err := GTM(tr, -1, 4, euclid); err == nil {
		t.Error("negative xi should error")
	}
	if _, err := GTM(tr, 2, 0, euclid); err == nil {
		t.Error("zero tau should error")
	}
	short := randTraj(rand.New(rand.NewSource(37)), 6)
	if _, err := GTM(short, 5, 4, euclid); err != core.ErrTooShort {
		t.Errorf("want ErrTooShort, got %v", err)
	}
	// Non-power-of-two tau must be normalized, not rejected.
	if _, err := GTM(tr, 2, 5, euclid); err != nil {
		t.Errorf("tau=5 should be normalized: %v", err)
	}
}

func TestGTMStatsPopulated(t *testing.T) {
	r := rand.New(rand.NewSource(38))
	tr := randTraj(r, 80)
	res, err := GTM(tr, 4, 8, euclid)
	if err != nil {
		t.Fatal(err)
	}
	if res.Group.Levels != 3 { // 8 -> 4 -> 2
		t.Errorf("Levels = %d, want 3", res.Group.Levels)
	}
	if res.Group.GroupPairs == 0 {
		t.Error("no group pairs counted")
	}
	if res.Group.PointCells == 0 {
		t.Error("no point cells counted")
	}
	star, err := GTMStar(tr, 4, 8, euclid)
	if err != nil {
		t.Fatal(err)
	}
	if star.Group.Levels != 1 {
		t.Errorf("GTM* Levels = %d, want 1", star.Group.Levels)
	}
	// GTM* must hold dramatically less memory than GTM (no dG matrix).
	if star.Stats.PeakBytes >= res.Stats.PeakBytes {
		t.Errorf("GTM* bytes %d >= GTM bytes %d", star.Stats.PeakBytes, res.Stats.PeakBytes)
	}
}

// TestGroupPruningReducesWork checks the motivation for §5: with a planted
// strong motif, GTM's point-level phase should touch far fewer candidate
// subsets than BTM processes in total enumeration terms.
func TestGroupPruningReducesWork(t *testing.T) {
	r := rand.New(rand.NewSource(39))
	// Trajectory with an exact repeat far apart.
	route := make([]geo.Point, 30)
	for k := range route {
		route[k] = geo.Point{Lng: float64(k) * 0.01, Lat: math.Sin(float64(k) / 3)}
	}
	var pts []geo.Point
	for k := 0; k < 60; k++ {
		pts = append(pts, geo.Point{Lng: 50 + r.Float64()*10, Lat: 50 + r.Float64()*10})
	}
	pts = append(pts, route...)
	for k := 0; k < 60; k++ {
		pts = append(pts, geo.Point{Lng: -50 - r.Float64()*10, Lat: -50 - r.Float64()*10})
	}
	for _, p := range route {
		pts = append(pts, geo.Point{Lng: p.Lng + 0.001, Lat: p.Lat + 0.001})
	}
	tr := traj.FromPoints(pts)

	btm, err := core.BTM(tr, 20, euclid)
	if err != nil {
		t.Fatal(err)
	}
	gt, err := GTM(tr, 20, 16, euclid)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(gt.Distance-btm.Distance) > 1e-9 {
		t.Fatalf("distances disagree: %g vs %g", gt.Distance, btm.Distance)
	}
	if gt.Group.PointCells >= btm.Stats.Subsets {
		t.Errorf("GTM point cells %d not reduced vs BTM subsets %d",
			gt.Group.PointCells, btm.Stats.Subsets)
	}
}

// TestLevelPyramidExact: every level the pyramid folds from its τ = 2
// scan is bit-equal to a direct scan of the same grid at that τ, for
// τ = 2 … 64, self and cross, with lengths that are not multiples of τ
// and shorter than the coarsest τ, serial and parallel.
func TestLevelPyramidExact(t *testing.T) {
	r := rand.New(rand.NewSource(19))
	a, b := randTraj(r, 45).Points, randTraj(r, 23).Points
	grids := map[string]dmatrix.Grid{
		"self":      dmatrix.ComputeSelf(a, geo.Euclidean),
		"cross":     dmatrix.ComputeCross(a, b, geo.Euclidean),
		"cross/fly": dmatrix.NewFlyCross(b, a, geo.Euclidean),
	}
	for name, g := range grids {
		for _, workers := range []int{1, 3} {
			levels := pyramid(g, 64, workers)
			if len(levels) != 6 {
				t.Fatalf("%s: %d levels, want 6", name, len(levels))
			}
			for k, lv := range levels {
				tau := 64 >> k
				want := BuildLevel(g, tau)
				if lv.Tau != tau || lv.NA != want.NA || lv.NB != want.NB {
					t.Fatalf("%s level %d: tau %d, %dx%d groups; want tau %d, %dx%d",
						name, k, lv.Tau, lv.NA, lv.NB, tau, want.NA, want.NB)
				}
				for c := range want.dmin {
					if math.Float64bits(lv.dmin[c]) != math.Float64bits(want.dmin[c]) ||
						math.Float64bits(lv.dmax[c]) != math.Float64bits(want.dmax[c]) {
						t.Fatalf("%s tau %d (workers %d) pair %d: folded [%v, %v], scanned [%v, %v]",
							name, tau, workers, c, lv.dmin[c], lv.dmax[c], want.dmin[c], want.dmax[c])
					}
				}
			}
		}
	}
}
