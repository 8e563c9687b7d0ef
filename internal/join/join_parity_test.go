package join

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// allPairsJoin is the unpruned reference join: every pair (i < j) in
// lexicographic order through the endpoint and box filters and the plain
// decision DP (DFDWithin), all under df. Join must match it in pairs and
// in every Stats counter except IndexConsulted, IndexPruned and
// ProjectionFallbacks, which it leaves zero.
func allPairsJoin(ts []*traj.Trajectory, eps float64, df geo.DistanceFunc, exact bool) ([]Pair, Stats) {
	var out []Pair
	var st Stats
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			st.Pairs++
			a, b := ts[i].Points, ts[j].Points
			if df(a[0], b[0]) > eps || df(a[len(a)-1], b[len(b)-1]) > eps {
				st.EndpointPruned++
				continue
			}
			if spatial.ProbeBound(a, spatial.Bound(b), df) > eps || spatial.ProbeBound(b, spatial.Bound(a), df) > eps {
				st.BoxPruned++
				continue
			}
			if !DFDWithin(a, b, df, eps) {
				st.DecisionRejected++
				continue
			}
			p := Pair{I: i, J: j, Distance: eps}
			if exact {
				p.Distance = dist.DFD(a, b, df)
			}
			out = append(out, p)
			st.Reported++
		}
	}
	return out, st
}

// checkJoin runs Join with opt and fails unless it matches the all-pairs
// reference in pairs and shared counters; it returns the join's full
// Stats.
func checkJoin(t *testing.T, ts []*traj.Trajectory, eps float64, opt *Options) Stats {
	t.Helper()
	want, wst := allPairsJoin(ts, eps, opt.dist(), opt != nil && opt.Exact)
	got, gst, err := Join(ts, eps, opt)
	if err != nil {
		t.Fatalf("eps=%g: %v", eps, err)
	}
	if n := int64(len(ts)); gst.IndexConsulted != n {
		t.Fatalf("eps=%g: IndexConsulted = %d, want %d", eps, gst.IndexConsulted, n)
	}
	full := gst
	gst.IndexConsulted, gst.IndexPruned, gst.ProjectionFallbacks = 0, 0, 0
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("eps=%g: pairs differ\nall-pairs %+v\npruned    %+v", eps, want, got)
	}
	if wst != gst {
		t.Fatalf("eps=%g: stats differ\nall-pairs %+v\npruned    %+v", eps, wst, gst)
	}
	return full
}

// geoWalk is a short noisy walk around a city-scale center on valid
// lat/lng coordinates.
func geoWalk(r *rand.Rand, n int, lat, lng float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	for i := range pts {
		lat += (r.Float64()*2 - 1) * 0.01
		lng += (r.Float64()*2 - 1) * 0.01
		pts[i] = geo.Point{Lat: lat, Lng: lng}
	}
	return traj.FromPoints(pts)
}

// parityCorpus clusters trajectories in distant cities — near pairs the
// join must report, far pairs the index must reject — plus duplicate and
// single-point members for the degenerate edges.
func parityCorpus(r *rand.Rand) []*traj.Trajectory {
	centers := [][2]float64{{39.9, 116.4}, {37.97, 23.72}, {48.85, 2.35}, {-33.87, 151.2}}
	var ts []*traj.Trajectory
	for _, c := range centers {
		for i := 0; i < 4; i++ {
			ts = append(ts, geoWalk(r, 12+r.Intn(18), c[0]+r.Float64()*0.05, c[1]+r.Float64()*0.05))
		}
		ts = append(ts, traj.FromPoints([]geo.Point{{Lat: c[0], Lng: c[1]}}))
	}
	ts = append(ts, ts[0]) // exact duplicate: a distance-0 pair
	return ts
}

// TestJoinIndexParity is the tentpole proof for the join: for radii
// bracketing a true pair distance from both sides (±ε in the ulp sense),
// zero, and corpus-scale values, under both metrics, the pruned join —
// boxes folded by Join itself or supplied by an index — returns pairs
// AND the full filter-cascade stats byte-identical to the all-pairs
// reference, while IndexPruned > 0 overall.
func TestJoinIndexParity(t *testing.T) {
	for _, df := range []geo.DistanceFunc{geo.Haversine, geo.Euclidean} {
		r := rand.New(rand.NewSource(91))
		var pruned int64
		for trial := 0; trial < 6; trial++ {
			ts := parityCorpus(r)
			// A true distance to bracket: two members of the first cluster.
			d := dist.DFD(ts[0].Points, ts[1].Points, df)
			radii := []float64{0, math.Nextafter(d, 0), d, math.Nextafter(d, math.Inf(1)), 5000, 2e7}
			ix, err := spatial.BuildIndex(ts, df)
			if err != nil {
				t.Fatal(err)
			}
			for _, eps := range radii {
				for _, exact := range []bool{false, true} {
					st := checkJoin(t, ts, eps, &Options{Dist: df, Exact: exact})
					if ist := checkJoin(t, ts, eps, &Options{Dist: df, Exact: exact, Index: ix}); ist != st {
						t.Fatalf("trial %d eps=%g: stats %+v with a supplied index, %+v without", trial, eps, ist, st)
					}
					pruned += st.IndexPruned
				}
			}
		}
		if pruned == 0 {
			t.Error("index never pruned a pair on the parity corpus")
		}
	}
}

// TestJoinIndexEdges covers eps = 0 (duplicates must still pair),
// empty input, the one-trajectory join, single-point trajectories, and
// a stale index.
func TestJoinIndexEdges(t *testing.T) {
	r := rand.New(rand.NewSource(92))

	// eps = 0 with an exact duplicate: the pair is reported at distance 0.
	a := geoWalk(r, 10, 40, -74)
	ts := []*traj.Trajectory{a, geoWalk(r, 10, 51.5, 0), a}
	ix, err := spatial.BuildIndex(ts, nil)
	if err != nil {
		t.Fatal(err)
	}
	pairs, st, err := Join(ts, 0, &Options{Exact: true, Index: ix})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 1 || pairs[0].I != 0 || pairs[0].J != 2 || pairs[0].Distance != 0 {
		t.Fatalf("eps=0 duplicates: %+v", pairs)
	}
	if st.Pairs != 3 {
		t.Fatalf("eps=0 Pairs = %d, want 3", st.Pairs)
	}

	// Empty and singleton inputs: no pairs, no error.
	for _, in := range [][]*traj.Trajectory{nil, {a}} {
		ixn, err := spatial.BuildIndex(in, nil)
		if err != nil {
			t.Fatal(err)
		}
		pairs, st, err := Join(in, 100, &Options{Index: ixn})
		if err != nil || len(pairs) != 0 || st.Pairs != 0 {
			t.Fatalf("degenerate input %d: %v %+v %+v", len(in), err, pairs, st)
		}
	}

	// Single-point trajectories: DFD is the point distance; parity holds.
	ones := []*traj.Trajectory{
		traj.FromPoints([]geo.Point{{Lat: 40, Lng: -74}}),
		traj.FromPoints([]geo.Point{{Lat: 40.0001, Lng: -74}}),
		traj.FromPoints([]geo.Point{{Lat: -33, Lng: 151}}),
	}
	ix1, err := spatial.BuildIndex(ones, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkJoin(t, ones, 100, nil)
	checkJoin(t, ones, 100, &Options{Index: ix1})
	if plain, _, _ := Join(ones, 100, nil); len(plain) != 1 || plain[0].I != 0 || plain[0].J != 1 {
		t.Fatalf("single-point join: %+v", plain)
	}

	// An index that does not cover the input, or covers more, errors
	// instead of guessing.
	empty, err := spatial.BuildIndex(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := Join(ones, 100, &Options{Index: empty}); err == nil {
		t.Error("index missing the input should error")
	}
	if _, _, err := Join(ones[:2], 100, &Options{Index: ix1}); err == nil {
		t.Error("index larger than the input should error")
	}

	// An unrecognized ground distance has no box bound: the index prunes
	// nothing and the join still matches the reference.
	custom := func(a, b geo.Point) float64 { return geo.Haversine(a, b) * 2 }
	if st := checkJoin(t, ones, 100, &Options{Dist: custom}); st.IndexPruned != 0 {
		t.Errorf("unrecognized metric pruned %d pairs", st.IndexPruned)
	}

	// Planar coordinates are not degrees: x far beyond ±180 must neither
	// wrap nor drop out of the index. Single-point and short trajectories
	// at x ≈ ±1000 and beyond the grid's int32 cell range, against the
	// reference with and without a supplied index. traj.New rejects such
	// points, so the trajectories are built directly.
	planar := func(pts ...geo.Point) *traj.Trajectory { return &traj.Trajectory{Points: pts} }
	far := []*traj.Trajectory{
		planar(geo.Point{Lat: 0, Lng: 1000}),
		planar(geo.Point{Lat: 0, Lng: 1000.5}),
		planar(geo.Point{Lat: 0, Lng: -1000}),
		planar(geo.Point{Lat: 0.2, Lng: -1000.3}, geo.Point{Lat: 0.4, Lng: -999.8}),
		planar(geo.Point{Lat: 300, Lng: 179.9}),
		planar(geo.Point{Lat: 300, Lng: 180.4}),
		planar(geo.Point{Lat: 1, Lng: 1e12}),
		planar(geo.Point{Lat: 1, Lng: 1e12 + 0.5}),
	}
	ixFar, err := spatial.BuildIndex(far, geo.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	for _, eps := range []float64{0.1, 0.5, 1, 2000} {
		checkJoin(t, far, eps, &Options{Dist: geo.Euclidean})
		checkJoin(t, far, eps, &Options{Dist: geo.Euclidean, Index: ixFar})
	}
	if got, _, _ := Join(far, 1, &Options{Dist: geo.Euclidean}); len(got) != 4 {
		t.Fatalf("far planar join at eps=1: %+v, want the four close pairs", got)
	}

	// Negative radius still rejected on the indexed path.
	if _, _, err := Join(ones, -1, &Options{Index: ix1}); err == nil {
		t.Error("negative radius with index should error")
	}
}
