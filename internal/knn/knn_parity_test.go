package knn

import (
	"container/heap"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// linearNearest is the unpruned reference search: the cheap lower bound
// (endpoint distances, then box probes both ways, all through plain df)
// for every candidate, visited in ascending (lb, index) order, with the
// same verification as Nearest — under haversine, a projected decision
// against kth once k neighbours are held, then the capped DP just above
// kth. While the heap fills it runs the DP uncapped where Nearest caps it
// just above the candidate's greedy bound, so matching it also shows that
// cap never abandons. Nearest must match it in results and in every
// Stats counter except IndexConsulted and IndexPruned, which it leaves
// zero.
func linearNearest(query *traj.Trajectory, dataset []*traj.Trajectory, k int, df geo.DistanceFunc) ([]Neighbor, Stats) {
	q := query.Points
	qBox := spatial.Bound(q)
	type cand struct {
		idx int
		lb  float64
	}
	cands := make([]cand, len(dataset))
	for i, t := range dataset {
		p := t.Points
		lb := math.Max(df(q[0], p[0]), df(q[len(q)-1], p[len(p)-1]))
		lb = math.Max(lb, spatial.ProbeBound(q, spatial.Bound(p), df))
		cands[i] = cand{idx: i, lb: math.Max(lb, spatial.ProbeBound(p, qBox, df))}
	}
	sort.Slice(cands, func(a, b int) bool {
		if cands[a].lb != cands[b].lb {
			return cands[a].lb < cands[b].lb
		}
		return cands[a].idx < cands[b].idx
	})

	st := Stats{Candidates: int64(len(dataset))}
	h := &nbrHeap{}
	kth := math.Inf(1)
	for _, c := range cands {
		if h.Len() == k && c.lb > kth {
			break
		}
		p := dataset[c.idx].Points
		capd := math.Inf(1)
		if h.Len() == k {
			if geo.IsHaversine(df) {
				f := spatial.PairFrame(qBox, spatial.Bound(p))
				var pq, pp []geo.Projected
				if f.OK() {
					pq, pp = f.ProjectAll(q), f.ProjectAll(p)
				}
				if !dist.DFDDecisionProjected(q, p, pq, pp, f, kth, &st.ProjectionFallbacks) {
					st.AbandonedEarly++
					continue
				}
			}
			capd = math.Nextafter(kth, math.Inf(1))
		}
		d, exceeded := dist.DFDCapped(q, p, df, capd)
		if exceeded {
			st.AbandonedEarly++
			continue
		}
		st.Exact++
		nb := Neighbor{Index: c.idx, Distance: d}
		if h.Len() < k {
			heap.Push(h, nb)
		} else if nbrLess(nb, (*h)[0]) {
			(*h)[0] = nb
			heap.Fix(h, 0)
		}
		if h.Len() == k {
			kth = (*h)[0].Distance
		}
	}
	st.SkippedByLB = st.Candidates - st.AbandonedEarly - st.Exact
	out := []Neighbor(*h)
	sort.Slice(out, func(a, b int) bool { return nbrLess(out[a], out[b]) })
	return out, st
}

// checkParity runs Nearest with opt and fails unless it matches the
// linear reference in results and shared counters; it returns the
// search's IndexPruned.
func checkParity(t *testing.T, query *traj.Trajectory, ds []*traj.Trajectory, k int, opt *Options) int64 {
	t.Helper()
	want, wst := linearNearest(query, ds, k, opt.dist())
	got, gst, err := Nearest(query, ds, k, opt)
	if err != nil {
		t.Fatalf("k=%d: %v", k, err)
	}
	if gst.IndexConsulted != 1 {
		t.Fatalf("k=%d: IndexConsulted = %d", k, gst.IndexConsulted)
	}
	pruned := gst.IndexPruned
	gst.IndexConsulted, gst.IndexPruned = 0, 0
	if len(want) == 0 {
		want = nil
	}
	if len(got) == 0 {
		got = nil
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("k=%d: results differ\nlinear %+v\npruned %+v", k, want, got)
	}
	if wst != gst {
		t.Fatalf("k=%d: stats differ\nlinear %+v\npruned %+v", k, wst, gst)
	}
	return pruned
}

// geoWalk is randWalk on valid lat/lng coordinates (haversine-safe):
// a short noisy walk around a city-scale center.
func geoWalk(r *rand.Rand, n int, lat, lng float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	for i := range pts {
		lat += (r.Float64()*2 - 1) * 0.01
		lng += (r.Float64()*2 - 1) * 0.01
		pts[i] = geo.Point{Lat: lat, Lng: lng}
	}
	return traj.FromPoints(pts)
}

// parityDataset builds the corpus the tentpole's proof runs on: a few
// trajectories near the query's city and many in distant cities, so the
// index has real work (IndexPruned > 0) while twins keep the refinement
// order non-trivial. Includes single-point trajectories (degenerate
// MBRs), one per distant city.
func parityDataset(r *rand.Rand) (query *traj.Trajectory, ds []*traj.Trajectory) {
	centers := [][2]float64{{39.9, 116.4}, {37.97, 23.72}, {0.29, 36.9}, {48.85, 2.35}, {-33.87, 151.2}}
	query = geoWalk(r, 20+r.Intn(20), centers[0][0], centers[0][1])
	for i := 0; i < 6; i++ {
		ds = append(ds, geoWalk(r, 15+r.Intn(25), centers[0][0]+r.Float64()*0.05, centers[0][1]+r.Float64()*0.05))
	}
	for _, c := range centers[1:] {
		for i := 0; i < 5; i++ {
			ds = append(ds, geoWalk(r, 15+r.Intn(25), c[0]+r.Float64()*0.2, c[1]+r.Float64()*0.2))
		}
		ds = append(ds, traj.FromPoints([]geo.Point{{Lat: c[0], Lng: c[1]}}))
	}
	return query, ds
}

// TestNearestIndexParity is the tentpole proof for knn: across metrics,
// trials and k values (1 through beyond the dataset size), the pruned
// search — boxes folded by Nearest itself or supplied by an index —
// returns results AND effort stats byte-identical to the linear
// reference, while actually pruning (cumulative IndexPruned > 0).
func TestNearestIndexParity(t *testing.T) {
	for _, df := range []geo.DistanceFunc{geo.Haversine, geo.Euclidean} {
		r := rand.New(rand.NewSource(71))
		var pruned int64
		for trial := 0; trial < 8; trial++ {
			query, ds := parityDataset(r)
			ix, err := spatial.BuildIndex(ds, df)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 3, 7, len(ds), len(ds) + 5} {
				p := checkParity(t, query, ds, k, &Options{Dist: df})
				if q := checkParity(t, query, ds, k, &Options{Dist: df, Index: ix}); q != p {
					t.Fatalf("trial %d k=%d: IndexPruned %d with a supplied index, %d without", trial, k, q, p)
				}
				pruned += p
			}
		}
		if pruned == 0 {
			t.Error("index never pruned a candidate on the parity corpus")
		}
	}
}

// TestNearestIndexEdges covers the inputs a pre-filter can silently
// mishandle: k exceeding the dataset, k = 0, an empty dataset, and a
// stale index missing a candidate.
func TestNearestIndexEdges(t *testing.T) {
	r := rand.New(rand.NewSource(72))
	q := geoWalk(r, 10, 40, -74)
	ds := []*traj.Trajectory{geoWalk(r, 10, 40.1, -74.1), geoWalk(r, 10, 51.5, 0)}
	ix, err := spatial.BuildIndex(ds, nil)
	if err != nil {
		t.Fatal(err)
	}

	if _, _, err := Nearest(q, ds, 0, &Options{Index: ix}); err == nil {
		t.Error("k=0 with index should error")
	}
	got, st, err := Nearest(q, ds, 10, &Options{Index: ix})
	if err != nil || len(got) != 2 {
		t.Errorf("k>len with index: %v, %d results", err, len(got))
	}
	if st.IndexPruned != 0 {
		t.Errorf("k>len pruned %d candidates it had to return", st.IndexPruned)
	}

	empty, err := spatial.BuildIndex(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err = Nearest(q, nil, 3, &Options{Index: empty})
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset with index: %v, %d results", err, len(got))
	}

	// An index that does not cover the dataset, or covers more, is a
	// caller bug, not a silent wrong answer.
	if _, _, err := Nearest(q, ds, 1, &Options{Index: empty}); err == nil {
		t.Error("index missing the dataset should error")
	}
	if _, _, err := Nearest(q, ds[:1], 1, &Options{Index: ix}); err == nil {
		t.Error("index larger than the dataset should error")
	}

	// An unrecognized ground distance has no box bound: nothing is
	// pruned, and the search still matches the reference.
	custom := func(a, b geo.Point) float64 { return geo.Euclidean(a, b) * 2 }
	if p := checkParity(t, q, ds, 1, &Options{Dist: custom}); p != 0 {
		t.Errorf("unrecognized metric pruned %d candidates", p)
	}

	// Single-point query and candidates (degenerate MBRs everywhere).
	p1 := traj.FromPoints([]geo.Point{{Lat: 40, Lng: -74}})
	ones := []*traj.Trajectory{
		traj.FromPoints([]geo.Point{{Lat: 40.001, Lng: -74}}),
		traj.FromPoints([]geo.Point{{Lat: -33, Lng: 151}}),
	}
	ix1, err := spatial.BuildIndex(ones, nil)
	if err != nil {
		t.Fatal(err)
	}
	checkParity(t, p1, ones, 1, nil)
	checkParity(t, p1, ones, 1, &Options{Index: ix1})
	if got, _, _ := Nearest(p1, ones, 1, nil); got[0].Index != 0 {
		t.Fatalf("nearest single point = %d, want 0", got[0].Index)
	}
}
