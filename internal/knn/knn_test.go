package knn

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"trajmotif/internal/datagen"
	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

func randWalk(r *rand.Rand, n int, cx, cy float64) *traj.Trajectory {
	pts := make([]geo.Point, n)
	x, y := cx, cy
	for i := range pts {
		x += r.Float64()*2 - 1
		y += r.Float64()*2 - 1
		pts[i] = geo.Point{Lng: x, Lat: y}
	}
	return traj.FromPoints(pts)
}

// TestNearestMatchesBruteForce is the correctness anchor: the pruned
// search returns exactly the brute-force k nearest for random datasets.
func TestNearestMatchesBruteForce(t *testing.T) {
	r := rand.New(rand.NewSource(81))
	for trial := 0; trial < 25; trial++ {
		query := randWalk(r, 10+r.Intn(15), 0, 0)
		var ds []*traj.Trajectory
		for i := 0; i < 12; i++ {
			ds = append(ds, randWalk(r, 8+r.Intn(15), r.Float64()*30-15, r.Float64()*30-15))
		}
		k := 1 + r.Intn(5)
		got, st, err := Nearest(query, ds, k, &Options{Dist: geo.Euclidean})
		if err != nil {
			t.Fatal(err)
		}
		// Brute force.
		type nd struct {
			idx int
			d   float64
		}
		var all []nd
		for i, tr := range ds {
			all = append(all, nd{i, dist.DFD(query.Points, tr.Points, geo.Euclidean)})
		}
		for x := 0; x < len(all); x++ {
			for y := x + 1; y < len(all); y++ {
				if all[y].d < all[x].d || (all[y].d == all[x].d && all[y].idx < all[x].idx) {
					all[x], all[y] = all[y], all[x]
				}
			}
		}
		if len(got) != k {
			t.Fatalf("returned %d, want %d", len(got), k)
		}
		for i := 0; i < k; i++ {
			if math.Abs(got[i].Distance-all[i].d) > 1e-9 {
				t.Fatalf("trial %d rank %d: got (%d, %g), want (%d, %g)",
					trial, i, got[i].Index, got[i].Distance, all[i].idx, all[i].d)
			}
		}
		if st.Exact+st.AbandonedEarly+st.SkippedByLB > st.Candidates {
			t.Errorf("stats overcount: %+v", st)
		}
	}
}

func TestNearestPruning(t *testing.T) {
	r := rand.New(rand.NewSource(82))
	query := randWalk(r, 40, 0, 0)
	var ds []*traj.Trajectory
	// Three near twins, many far decoys.
	for i := 0; i < 3; i++ {
		pts := make([]geo.Point, query.Len())
		for k, p := range query.Points {
			pts[k] = geo.Point{Lng: p.Lng + r.Float64()*0.2, Lat: p.Lat + r.Float64()*0.2}
		}
		ds = append(ds, traj.FromPoints(pts))
	}
	for i := 0; i < 30; i++ {
		ds = append(ds, randWalk(r, 40, 100+r.Float64()*50, 60+r.Float64()*20))
	}
	got, st, err := Nearest(query, ds, 3, &Options{Dist: geo.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range got {
		if nb.Index >= 3 {
			t.Errorf("decoy %d ranked in top-3", nb.Index)
		}
	}
	if st.SkippedByLB == 0 {
		t.Error("lower bounds never pruned a far decoy")
	}
	if st.Exact >= st.Candidates {
		t.Error("every candidate went through a full DFD")
	}
}

func TestNearestEdgeCases(t *testing.T) {
	r := rand.New(rand.NewSource(83))
	q := randWalk(r, 10, 0, 0)
	ds := []*traj.Trajectory{randWalk(r, 10, 1, 1), randWalk(r, 10, 2, 2)}

	if _, _, err := Nearest(q, ds, 0, nil); err == nil {
		t.Error("k=0 should error")
	}
	if _, _, err := Nearest(nil, ds, 1, nil); err == nil {
		t.Error("nil query should error")
	}
	if _, _, err := Nearest(q, []*traj.Trajectory{nil}, 1, nil); err == nil {
		t.Error("nil candidate should error")
	}
	// k larger than dataset returns everything.
	got, _, err := Nearest(q, ds, 10, &Options{Dist: geo.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Errorf("k>len returned %d", len(got))
	}
	// Empty dataset returns empty result.
	got, _, err = Nearest(q, nil, 3, &Options{Dist: geo.Euclidean})
	if err != nil || len(got) != 0 {
		t.Errorf("empty dataset: %v, %d results", err, len(got))
	}
}

// TestDFDCapped pins the kernel contract the search relies on, now served
// by dist.DFDCapped: exceeded == false means the value is exact, and an
// abandoned computation returns a lower bound at or above the cap.
func TestDFDCapped(t *testing.T) {
	r := rand.New(rand.NewSource(84))
	for trial := 0; trial < 100; trial++ {
		a := randWalk(r, 5+r.Intn(10), 0, 0)
		b := randWalk(r, 5+r.Intn(10), r.Float64()*5, r.Float64()*5)
		exact := dist.DFD(a.Points, b.Points, geo.Euclidean)

		// Uncapped must match exactly.
		d, exceeded := dist.DFDCapped(a.Points, b.Points, geo.Euclidean, math.Inf(1))
		if exceeded || math.Abs(d-exact) > 1e-9 {
			t.Fatalf("uncapped: %g (exceeded=%v), want %g", d, exceeded, exact)
		}
		// Generous cap must also complete with the exact value.
		d, exceeded = dist.DFDCapped(a.Points, b.Points, geo.Euclidean, exact*2+1)
		if exceeded || math.Abs(d-exact) > 1e-9 {
			t.Fatalf("generous cap: %g (exceeded=%v), want %g", d, exceeded, exact)
		}
		// A cap below the true distance may abandon with a lower bound at
		// or above the cap, but must never report a wrong completed value.
		d, exceeded = dist.DFDCapped(a.Points, b.Points, geo.Euclidean, exact/2)
		if exceeded {
			if d > exact+1e-9 || d < exact/2 {
				t.Fatalf("abandoned value %g outside [cap %g, exact %g]", d, exact/2, exact)
			}
		} else if math.Abs(d-exact) > 1e-9 {
			t.Fatalf("tight cap completed with wrong value %g, want %g", d, exact)
		}
	}
}

// TestNearestTieBreakByIndex is the regression for the tie-breaking bug:
// a candidate whose exact distance equals the current k-th best could
// never displace a higher-index incumbent (replacement required d < kth,
// and the lb >= kth early break dropped it first), so the reported set
// was not the promised lexicographic top-k.
//
// Construction (planar Euclidean, 3-4-5 triangles so every distance is an
// exact float): both candidates are at DFD exactly 5 from the query, but
// candidate 1 has matching endpoints (lower bound 0) and is processed
// first, while candidate 0's lower bound equals the true distance — the
// old code broke before ever computing it.
func TestNearestTieBreakByIndex(t *testing.T) {
	q := traj.FromPoints([]geo.Point{{Lng: 0, Lat: 0}, {Lng: 6, Lat: 0}, {Lng: 12, Lat: 0}})
	a := traj.FromPoints([]geo.Point{{Lng: 0, Lat: 5}, {Lng: 6, Lat: 5}, {Lng: 12, Lat: 5}})
	b := traj.FromPoints([]geo.Point{{Lng: 0, Lat: 0}, {Lng: 3, Lat: 4}, {Lng: 6, Lat: 0}, {Lng: 12, Lat: 0}})
	da := dist.DFD(q.Points, a.Points, geo.Euclidean)
	db := dist.DFD(q.Points, b.Points, geo.Euclidean)
	if da != 5 || db != 5 {
		t.Fatalf("construction broken: DFD(q,a)=%v DFD(q,b)=%v, want exactly 5", da, db)
	}

	got, _, err := Nearest(q, []*traj.Trajectory{a, b}, 1, &Options{Dist: geo.Euclidean})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Index != 0 || got[0].Distance != 5 {
		t.Fatalf("got %+v, want the lower-index tie (index 0, distance 5)", got)
	}
}

// TestNearestLexicographicProperty: on duplicate-heavy datasets (ties
// everywhere) the reported set must equal the brute-force lexicographic
// (distance, index) top-k — indexes included, not just distances.
func TestNearestLexicographicProperty(t *testing.T) {
	r := rand.New(rand.NewSource(85))
	for trial := 0; trial < 30; trial++ {
		query := randWalk(r, 8+r.Intn(8), 0, 0)
		// A few base shapes, each repeated several times: equal distances
		// are the norm, so index tie-breaking decides most of the result.
		var ds []*traj.Trajectory
		var bases []*traj.Trajectory
		for i := 0; i < 4; i++ {
			bases = append(bases, randWalk(r, 8+r.Intn(8), r.Float64()*20-10, r.Float64()*20-10))
		}
		for i := 0; i < 12; i++ {
			ds = append(ds, bases[r.Intn(len(bases))])
		}
		k := 1 + r.Intn(6)
		got, _, err := Nearest(query, ds, k, &Options{Dist: geo.Euclidean})
		if err != nil {
			t.Fatal(err)
		}
		type nd struct {
			idx int
			d   float64
		}
		var all []nd
		for i, tr := range ds {
			all = append(all, nd{i, dist.DFD(query.Points, tr.Points, geo.Euclidean)})
		}
		sort.Slice(all, func(x, y int) bool {
			if all[x].d != all[y].d {
				return all[x].d < all[y].d
			}
			return all[x].idx < all[y].idx
		})
		if len(got) != k {
			t.Fatalf("trial %d: returned %d, want %d", trial, len(got), k)
		}
		for i := 0; i < k; i++ {
			if got[i].Index != all[i].idx || got[i].Distance != all[i].d {
				t.Fatalf("trial %d rank %d: got (%d, %g), want (%d, %g)",
					trial, i, got[i].Index, got[i].Distance, all[i].idx, all[i].d)
			}
		}
	}
}

// TestNearestDecisionTieAtKth pins the decision-first verification's
// radius to kth itself under haversine. Candidates X and Y share the one
// point F that sets their DFD to the query, so both distances are the
// same float, but Y's nearer first point gives it the lower bound and Y
// is verified first. X, at the lower index, must still displace Y from
// the k-th slot, which only a decision at eps = kth lets through (at the
// float below kth, X would be decided beyond). Duplicates of X and Y at
// higher indexes put more ties on the slot, and Z, nearer than all of
// them, fills the heap before the ties arrive at k = 3.
func TestNearestDecisionTieAtKth(t *testing.T) {
	var q []geo.Point
	for i := 0; i < 5; i++ {
		q = append(q, geo.Point{Lat: 40, Lng: 116 + 0.001*float64(i)})
	}
	// F is due north of q[1] and about 1.1 km from it, nearer to it than
	// to any other query point, so every coupling's bottleneck is F-q[1].
	cand := func(firstLat float64) *traj.Trajectory {
		return traj.FromPoints([]geo.Point{
			{Lat: firstLat, Lng: 116}, {Lat: 40.01, Lng: 116.001}, q[2], q[3], q[4],
		})
	}
	x, y := cand(40.002), cand(40.001)
	zp := make([]geo.Point, len(q))
	for i, p := range q {
		zp[i] = geo.Point{Lat: p.Lat + 0.0001, Lng: p.Lng}
	}
	z := traj.FromPoints(zp)
	w := traj.FromPoints([]geo.Point{{Lat: 41, Lng: 116}, {Lat: 41, Lng: 116.004}})
	query := traj.FromPoints(q)

	d := dist.DFD(q, x.Points, geo.Haversine)
	if dy := dist.DFD(q, y.Points, geo.Haversine); dy != d {
		t.Fatalf("construction broken: DFD to X %v, to Y %v", d, dy)
	}
	ties := []*traj.Trajectory{x, y, y, x, w}
	for _, tc := range []struct {
		ds   []*traj.Trajectory
		k    int
		want []int
	}{
		{ties, 1, []int{0}},
		{append(ties, z), 3, []int{5, 0, 1}},
	} {
		got, st, err := Nearest(query, tc.ds, tc.k, nil)
		if err != nil {
			t.Fatal(err)
		}
		all := make([]Neighbor, len(tc.ds))
		for i, c := range tc.ds {
			all[i] = Neighbor{Index: i, Distance: dist.DFD(q, c.Points, geo.Haversine)}
		}
		sort.Slice(all, func(a, b int) bool { return nbrLess(all[a], all[b]) })
		for i, nb := range got {
			if nb != all[i] || nb.Index != tc.want[i] {
				t.Fatalf("k=%d rank %d: got %+v, brute force %+v, want index %d", tc.k, i, nb, all[i], tc.want[i])
			}
		}
		if len(got) != tc.k || st.Exact+st.AbandonedEarly == 0 {
			t.Fatalf("k=%d: %d results, stats %+v", tc.k, len(got), st)
		}
		checkParity(t, query, tc.ds, tc.k, nil)
	}
}

func TestNearestOnFleet(t *testing.T) {
	// Ten trucks from the same depot; the query's nearest neighbours must
	// be trucks, never the baboon decoy.
	var ds []*traj.Trajectory
	for seed := int64(1); seed <= 10; seed++ {
		tr := datagen.Truck(datagen.Config{Seed: seed, N: 150})
		ds = append(ds, tr)
	}
	ds = append(ds, datagen.Baboon(datagen.Config{Seed: 1, N: 150}))
	query := datagen.Truck(datagen.Config{Seed: 99, N: 150})

	got, _, err := Nearest(query, ds, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, nb := range got {
		if nb.Index == 10 {
			t.Error("the Kenyan baboon is not a plausible Athens truck")
		}
	}
}
