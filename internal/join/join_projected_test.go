package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

// joinParity runs the (projected, under haversine) join against the
// all-pairs reference with the plain decision DP and fails unless pairs
// and all shared stats are byte-identical; it returns the join's
// fallback count.
func joinParity(t *testing.T, ts []*traj.Trajectory, eps float64, exact bool) int64 {
	t.Helper()
	return checkJoin(t, ts, eps, &Options{Exact: exact}).ProjectionFallbacks
}

// TestJoinProjectedParity pins the projected decision kernel against the
// haversine join on the standard parity corpus, with radii bracketing a
// true pair distance from both ulp sides — exactly where a certified
// error band is forced to fall back — plus zero and corpus-scale radii.
func TestJoinProjectedParity(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	var fallbacks int64
	for trial := 0; trial < 6; trial++ {
		ts := parityCorpus(r)
		d := dist.DFD(ts[0].Points, ts[1].Points, geo.Haversine)
		for _, eps := range []float64{0, math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)), 5000, 2e7} {
			for _, exact := range []bool{false, true} {
				fallbacks += joinParity(t, ts, eps, exact)
			}
		}
	}
	if fallbacks == 0 {
		t.Error("bracketing radii never forced a projection fallback")
	}
}

// TestJoinProjectedPoleFallback: pole-adjacent trajectories are outside
// the frame's certified latitude range, so the whole pair falls back to
// the haversine decision — counted, with byte-identical results.
func TestJoinProjectedPoleFallback(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	polar := geoWalk(r, 16, 87.5, 10)
	ts := []*traj.Trajectory{
		polar,
		geoWalk(r, 16, 87.5, 10.02),
		geoWalk(r, 16, 88.9, -120),
		polar, // duplicate: survives filters 1–2 even at eps = 0
	}
	for _, eps := range []float64{0, 2000, 50000, 2e7} {
		if fb := joinParity(t, ts, eps, true); fb == 0 {
			t.Fatalf("eps=%g: polar pairs reported no projection fallbacks", eps)
		}
	}
}

// TestJoinProjectedAntimeridianFallback: a trajectory straddling the
// ±180° meridian has an unwrapped longitude box spanning nearly 360°,
// which the frame gate rejects; the pair falls back with identical
// results.
func TestJoinProjectedAntimeridianFallback(t *testing.T) {
	cross := func(base float64) *traj.Trajectory {
		pts := make([]geo.Point, 12)
		for i := range pts {
			lng := 179.95 + 0.01*float64(i)
			if lng > 180 {
				lng -= 360
			}
			pts[i] = geo.Point{Lat: base + 0.001*float64(i), Lng: lng}
		}
		return traj.FromPoints(pts)
	}
	a := cross(10)
	// The duplicate keeps a pair alive through filters 1–2 even at
	// eps = 0, so the decision DP (and its fallback) is always reached.
	ts := []*traj.Trajectory{a, cross(10.01), cross(-5), a}
	for _, eps := range []float64{0, 5000, 2e7} {
		if fb := joinParity(t, ts, eps, false); fb == 0 {
			t.Fatalf("eps=%g: antimeridian pairs reported no projection fallbacks", eps)
		}
	}
}

// TestJoinEndpointDistsMemo: a memo hook feeding back bit-identical
// endpoint distances leaves pairs and stats unchanged, and ok=false
// degrades to direct evaluation.
func TestJoinEndpointDistsMemo(t *testing.T) {
	r := rand.New(rand.NewSource(95))
	ts := parityCorpus(r)
	eps := 5000.0
	want, wst, err := Join(ts, eps, nil)
	if err != nil {
		t.Fatal(err)
	}
	var hits, misses int
	memo := func(i, j int) (float64, float64, bool) {
		a, b := ts[i].Points, ts[j].Points
		if (i+j)%3 == 0 {
			misses++
			return 0, 0, false
		}
		hits++
		return geo.Haversine(a[0], b[0]), geo.Haversine(a[len(a)-1], b[len(b)-1]), true
	}
	got, gst, err := Join(ts, eps, &Options{EndpointDists: memo})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) || wst != gst {
		t.Fatalf("memo hook changed results:\nplain %+v %+v\nmemo  %+v %+v", want, wst, got, gst)
	}
	if hits == 0 || misses == 0 {
		t.Fatalf("memo exercised unevenly: hits=%d misses=%d", hits, misses)
	}
}
