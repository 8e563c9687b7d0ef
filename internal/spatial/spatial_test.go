package spatial_test

import (
	"math"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// randMBR draws a box within the given extents, degenerate with
// probability ~1/6 per axis (single-point trajectories are a satellite
// concern of this PR).
func randMBR(r *rand.Rand, latLim, lngLim float64) spatial.MBR {
	lat0 := (r.Float64()*2 - 1) * latLim
	lng0 := (r.Float64()*2 - 1) * lngLim
	dLat, dLng := r.Float64()*5, r.Float64()*5
	if r.Intn(6) == 0 {
		dLat = 0
	}
	if r.Intn(6) == 0 {
		dLng = 0
	}
	return spatial.MBR{
		MinLat: lat0, MaxLat: math.Min(lat0+dLat, 90),
		MinLng: lng0, MaxLng: math.Min(lng0+dLng, 180),
	}
}

// randPointIn samples a point of the box uniformly, biased to include
// the corners (where minima live).
func randPointIn(r *rand.Rand, m spatial.MBR) geo.Point {
	pick := func(lo, hi float64) float64 {
		switch r.Intn(4) {
		case 0:
			return lo
		case 1:
			return hi
		default:
			return lo + r.Float64()*(hi-lo)
		}
	}
	return geo.Point{Lat: pick(m.MinLat, m.MaxLat), Lng: pick(m.MinLng, m.MaxLng)}
}

// TestBoundFold pins Bound to the historical knn/join fold: running min
// and max per axis, empty input inverted.
func TestBoundFold(t *testing.T) {
	pts := []geo.Point{{Lat: 3, Lng: -7}, {Lat: -1, Lng: 4}, {Lat: 2, Lng: 0}}
	want := spatial.MBR{MinLat: -1, MaxLat: 3, MinLng: -7, MaxLng: 4}
	if got := spatial.Bound(pts); got != want {
		t.Fatalf("Bound = %+v, want %+v", got, want)
	}
	empty := spatial.Bound(nil)
	if !math.IsInf(empty.MinLat, 1) || !math.IsInf(empty.MaxLat, -1) {
		t.Fatalf("empty Bound not inverted: %+v", empty)
	}
}

// TestMinDistSoundness is the contract test: MinDist(a, b) never exceeds
// the ground distance between any sampled pair of box points, for both
// recognized metrics, including extreme latitudes where the clamp-based
// construction would be wrong.
func TestMinDistSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(601))
	metrics := []struct {
		name string
		df   geo.DistanceFunc
		md   spatial.MinDistFunc
	}{
		{"haversine", geo.Haversine, spatial.HaversineMinDist},
		{"euclidean", geo.Euclidean, spatial.EuclideanMinDist},
	}
	for _, m := range metrics {
		for trial := 0; trial < 2000; trial++ {
			latLim := 60.0
			if trial%5 == 0 {
				latLim = 89.9 // polar stress
			}
			a, b := randMBR(r, latLim, 175), randMBR(r, latLim, 175)
			lb := m.md(a, b)
			for s := 0; s < 12; s++ {
				p, q := randPointIn(r, a), randPointIn(r, b)
				if d := m.df(p, q); d < lb {
					t.Fatalf("%s trial %d: MinDist %.12g exceeds d(%v, %v) = %.12g\na=%+v b=%+v",
						m.name, trial, lb, p, q, d, a, b)
				}
			}
		}
	}
}

// TestMinDistClampCounterexample pins the reason MinDist avoids the
// clamp construction: at extreme latitudes the distance to the clamped
// point exceeds the distance to another box point, so clamping is not a
// lower bound — while MinDist stays below both.
func TestMinDistClampCounterexample(t *testing.T) {
	p := geo.Point{Lat: 0, Lng: 0}
	box := spatial.MBR{MinLat: 60, MaxLat: 80, MinLng: 100, MaxLng: 100}
	clamped := geo.Haversine(p, box.Clamp(p))
	far := geo.Haversine(p, geo.Point{Lat: 80, Lng: 100})
	if clamped <= far {
		t.Skipf("construction no longer demonstrates the clamp overshoot (%g <= %g)", clamped, far)
	}
	pb := spatial.Bound([]geo.Point{p})
	if lb := spatial.HaversineMinDist(pb, box); lb > far {
		t.Fatalf("HaversineMinDist %g exceeds a real box distance %g", lb, far)
	}
}

// TestProbeBoundSoundness: under haversine the probe-to-box distance
// never exceeds the distance from the probe to any point of a dense grid
// over the box (edges included), for probes and boxes anywhere on the
// globe, and it is the Clamp distance when the probe's longitude lies
// inside the box's range.
func TestProbeBoundSoundness(t *testing.T) {
	r := rand.New(rand.NewSource(604))
	const steps = 32
	for trial := 0; trial < 1000; trial++ {
		bb := randMBR(r, 89.9, 179.9)
		p := geo.Point{Lat: (r.Float64()*2 - 1) * 89.9, Lng: (r.Float64()*2 - 1) * 179.9}
		if trial%4 == 0 {
			p.Lng = bb.MinLng + (bb.MaxLng-bb.MinLng)*r.Float64()
		}
		lb := spatial.ProbeBound([]geo.Point{p}, bb, geo.Haversine)
		for i := 0; i <= steps; i++ {
			for j := 0; j <= steps; j++ {
				q := geo.Point{
					Lat: bb.MinLat + (bb.MaxLat-bb.MinLat)*float64(i)/steps,
					Lng: bb.MinLng + (bb.MaxLng-bb.MinLng)*float64(j)/steps,
				}
				if d := geo.Haversine(p, q); d < lb {
					t.Fatalf("trial %d: ProbeBound %.12g exceeds d(%v, %v) = %.12g\nbox=%+v", trial, lb, p, q, d, bb)
				}
			}
		}
		if p.Lng >= bb.MinLng && p.Lng <= bb.MaxLng && lb != geo.Haversine(p, bb.Clamp(p)) {
			t.Fatalf("trial %d: in-range ProbeBound %.12g, Clamp distance %.12g", trial, lb, geo.Haversine(p, bb.Clamp(p)))
		}
	}
}

// TestProbeBoundClampCounterexample pins the case a brute-force k-NN
// check found: the probe's longitude lies 80° outside the box's range,
// across the antimeridian, where the coordinate Clamp point is neither
// on the nearer boundary meridian nor at the nearest latitude, so its
// distance overshoots a real box corner's.
func TestProbeBoundClampCounterexample(t *testing.T) {
	p := geo.Point{Lat: 35.7, Lng: 140.15}
	box := spatial.MBR{MinLat: 62.78, MaxLat: 62.86, MinLng: -139.97, MaxLng: -139.87}
	corner := geo.Haversine(p, geo.Point{Lat: 62.86, Lng: -139.97})
	if clamped := geo.Haversine(p, box.Clamp(p)); clamped <= corner {
		t.Skipf("construction no longer demonstrates the clamp overshoot (%g <= %g)", clamped, corner)
	}
	if lb := spatial.ProbeBound([]geo.Point{p}, box, geo.Haversine); lb > corner {
		t.Fatalf("ProbeBound %g exceeds a real box distance %g", lb, corner)
	}
}

// TestCandidatesSuperset: every indexed id whose MinDist to the query is
// within the radius must appear among the candidates. Under haversine
// the random boxes include polar and antimeridian-adjacent ones; under
// geo.Euclidean, whose x is a plain coordinate, boxes and queries range
// far beyond ±180 and past the grid's cell range, and nothing may wrap
// or drop out.
func TestCandidatesSuperset(t *testing.T) {
	r := rand.New(rand.NewSource(602))
	cases := []struct {
		name    string
		df      geo.DistanceFunc
		minDist spatial.MinDistFunc
		// sample returns a box generator and a radius for one trial.
		sample func() (func() spatial.MBR, float64)
	}{
		{"haversine", nil, spatial.HaversineMinDist, func() (func() spatial.MBR, float64) {
			return func() spatial.MBR { return randMBR(r, 89.9, 179.9) },
				math.Pow(10, 3+r.Float64()*4) // 1 km .. 10^7 m
		}},
		{"euclidean", geo.Euclidean, spatial.EuclideanMinDist, func() (func() spatial.MBR, float64) {
			scale := math.Pow(10, float64(r.Intn(13))) // 1 .. 1e12
			box := func() spatial.MBR {
				x, y := (r.Float64()*2-1)*scale, (r.Float64()*2-1)*scale
				w, h := r.Float64()*scale/50, r.Float64()*scale/50
				if r.Intn(3) == 0 {
					w, h = 0, 0
				}
				return spatial.MBR{MinLat: y, MaxLat: y + h, MinLng: x, MaxLng: x + w}
			}
			return box, r.Float64() * scale / 10
		}},
	}
	for _, c := range cases {
		for trial := 0; trial < 300; trial++ {
			box, radius := c.sample()
			n := 5 + r.Intn(40)
			boxes := make([]spatial.MBR, n)
			for i := range boxes {
				boxes[i] = box()
			}
			ix := spatial.NewIndex(boxes, c.df)
			q := box()
			if r.Intn(4) == 0 {
				q = boxes[r.Intn(n)]
			}
			got := ix.Candidates(q, radius)
			seen := make(map[int]bool, len(got))
			for _, id := range got {
				seen[id] = true
			}
			for i, b := range boxes {
				if d := c.minDist(q, b); d <= radius && !seen[i] {
					t.Fatalf("%s trial %d: id %d (MinDist %.6g <= radius %.6g) missing from candidates\nq=%+v b=%+v",
						c.name, trial, i, d, radius, q, b)
				}
			}
			for k := 1; k < len(got); k++ {
				if got[k-1] >= got[k] {
					t.Fatalf("%s trial %d: candidates not in ascending id order: %v", c.name, trial, got)
				}
			}
		}
	}
}

// TestCandidatesEdges covers the degenerate radii and the unrecognized-
// metric fallback.
func TestCandidatesEdges(t *testing.T) {
	boxes := make([]spatial.MBR, 5)
	for i := range boxes {
		boxes[i] = spatial.MBR{MinLat: float64(i), MaxLat: float64(i), MinLng: 0, MaxLng: 0}
	}
	ix := spatial.NewIndex(boxes, nil)
	q := spatial.MBR{MinLat: 0, MaxLat: 0, MinLng: 0, MaxLng: 0}
	if got := ix.Candidates(q, -1); got != nil {
		t.Errorf("negative radius returned %v", got)
	}
	if got := ix.Candidates(q, math.Inf(1)); len(got) != 5 {
		t.Errorf("infinite radius returned %d of 5", len(got))
	}
	if got := ix.Candidates(q, 0); len(got) == 0 {
		t.Error("zero radius dropped the touching box")
	}

	// Unrecognized metric: index stays consistent but never prunes.
	custom := func(p, q geo.Point) float64 { return geo.Haversine(p, q) * 2 }
	ix2 := spatial.NewIndex([]spatial.MBR{{MinLat: 50, MaxLat: 51, MinLng: 50, MaxLng: 51}}, custom)
	if got := ix2.Candidates(q, 1); len(got) != 1 || got[0] != 0 {
		t.Errorf("unrecognized metric must return everything, got %v", got)
	}
	if d := ix2.MinDist(q, spatial.MBR{MinLat: 80, MaxLat: 80, MinLng: 0, MaxLng: 0}); d != 0 {
		t.Errorf("unrecognized MinDist = %g, want 0", d)
	}
}

// TestOverflowBoxes: polar and oversize boxes live in the always-scanned
// overflow list, so every finite query returns them, while grid-filed
// boxes outside the window are pruned; the boxes read back unchanged.
func TestOverflowBoxes(t *testing.T) {
	boxes := []spatial.MBR{
		{MinLat: 10, MaxLat: 11, MinLng: 10, MaxLng: 11},
		{MinLat: 88, MaxLat: 89, MinLng: 0, MaxLng: 1},       // polar: overflow
		{MinLat: -60, MaxLat: 60, MinLng: -170, MaxLng: 170}, // oversize: overflow
		{MinLat: 10.2, MaxLat: 10.4, MinLng: 10.2, MaxLng: 10.4},
	}
	ix := spatial.NewIndex(boxes, nil)
	if got := ix.Boxes(); !reflect.DeepEqual(got, boxes) {
		t.Fatalf("Boxes = %+v, want %+v", got, boxes)
	}
	q := spatial.MBR{MinLat: 10, MaxLat: 10, MinLng: 10, MaxLng: 10}
	if got := ix.Candidates(q, math.Inf(1)); !reflect.DeepEqual(got, []int{0, 1, 2, 3}) {
		t.Fatalf("infinite-radius candidates = %v, want all 4", got)
	}
	if got := ix.Candidates(q, 1000); !reflect.DeepEqual(got, []int{0, 1, 2}) {
		t.Fatalf("1 km candidates = %v, want box 0 and the overflow boxes 1, 2", got)
	}
}

// TestCandidatesConcurrent: the first Candidates call builds the cell
// map; concurrent first calls must agree (run under -race in CI).
func TestCandidatesConcurrent(t *testing.T) {
	r := rand.New(rand.NewSource(603))
	boxes := make([]spatial.MBR, 50)
	for i := range boxes {
		boxes[i] = randMBR(r, 60, 179.9)
	}
	ix := spatial.NewIndex(boxes, nil)
	q := boxes[0]
	var wg sync.WaitGroup
	got := make([][]int, 4)
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[g] = ix.Candidates(q, 1e5)
		}()
	}
	wg.Wait()
	for g := 1; g < len(got); g++ {
		if !reflect.DeepEqual(got[g], got[0]) {
			t.Fatalf("goroutine %d got %v, goroutine 0 got %v", g, got[g], got[0])
		}
	}
}

// TestCandidatesAntimeridian: boxes on either side of ±180 are mutual
// candidates at small radii — the cyclic gap, not the coordinate gap,
// governs.
func TestCandidatesAntimeridian(t *testing.T) {
	east := spatial.MBR{MinLat: 0, MaxLat: 1, MinLng: 179.5, MaxLng: 179.9}
	west := spatial.MBR{MinLat: 0, MaxLat: 1, MinLng: -179.9, MaxLng: -179.5}
	ix := spatial.NewIndex([]spatial.MBR{east, west}, nil)
	gap := spatial.HaversineMinDist(east, west)
	if gap > 100_000 {
		t.Fatalf("antimeridian MinDist %.0f m treats the seam as far", gap)
	}
	got := ix.Candidates(west, gap+1000)
	if len(got) != 2 {
		t.Fatalf("west query near the seam found %v, want both ids", got)
	}
}

// TestBuildIndex validates the slice constructor and its rejection of
// nil/empty members.
func TestBuildIndex(t *testing.T) {
	ts := []*traj.Trajectory{
		traj.FromPoints([]geo.Point{{Lat: 1, Lng: 1}, {Lat: 2, Lng: 2}}),
		traj.FromPoints([]geo.Point{{Lat: 50, Lng: 50}}),
	}
	ix, err := spatial.BuildIndex(ts, geo.Haversine)
	if err != nil {
		t.Fatal(err)
	}
	boxes := ix.Boxes()
	if len(boxes) != 2 {
		t.Fatalf("indexed %d boxes", len(boxes))
	}
	if boxes[0] != spatial.Bound(ts[0].Points) {
		t.Fatalf("box 0 = %+v, want the Bound fold", boxes[0])
	}
	if _, err := spatial.BuildIndex([]*traj.Trajectory{nil}, nil); err == nil {
		t.Fatal("nil trajectory accepted")
	}
}
