package spatial_test

import (
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// fuzzCorpus derives a deterministic trajectory set from the fuzz seed:
// short random walks scattered over a seed-dependent extent, so some
// runs cluster everything into one cell and others spread across the
// grid, poles and antimeridian included.
func fuzzCorpus(seed int64, n int) []*traj.Trajectory {
	r := rand.New(rand.NewSource(seed))
	latLim := 30 + r.Float64()*59.9
	ts := make([]*traj.Trajectory, n)
	for i := range ts {
		lat := (r.Float64()*2 - 1) * latLim
		lng := (r.Float64()*2 - 1) * 179.9
		m := 1 + r.Intn(12)
		pts := make([]geo.Point, m)
		for k := range pts {
			lat = math.Max(-90, math.Min(90, lat+(r.Float64()*2-1)*0.05))
			lng += (r.Float64()*2 - 1) * 0.05
			if lng > 180 {
				lng -= 360
			} else if lng < -180 {
				lng += 360
			}
			pts[k] = geo.Point{Lat: lat, Lng: lng}
		}
		ts[i] = traj.FromPoints(pts)
	}
	return ts
}

// FuzzSpatialIndex drives the two oracles of the index: Candidates is a
// superset of the brute-force MinDist filter, and the pruned knn and
// join answer exactly what brute force answers — knn the first k of
// every candidate sorted by (DFD, index), join the pairs DFDWithin
// accepts — with their effort counters adding up.
func FuzzSpatialIndex(f *testing.F) {
	f.Add(int64(1), uint8(8), 5000.0)
	f.Add(int64(42), uint8(20), 250000.0)
	f.Add(int64(-7), uint8(3), 0.0)
	f.Add(int64(99), uint8(1), 1e7)
	// A k-NN query whose candidate box lies across the antimeridian, where
	// the coordinate clamp once overshot the spherical probe distance.
	f.Add(int64(-293), uint8(167), 1142.8611111111113)
	f.Fuzz(func(t *testing.T, seed int64, n uint8, radius float64) {
		count := int(n%24) + 1
		if math.IsNaN(radius) || math.IsInf(radius, 0) {
			radius = 1000
		}
		radius = math.Abs(radius)
		ts := fuzzCorpus(seed, count)
		ix, err := spatial.BuildIndex(ts, geo.Haversine)
		if err != nil {
			t.Fatal(err)
		}

		// Oracle 1: Candidates superset of the brute MinDist filter.
		boxes := ix.Boxes()
		q := boxes[0]
		got := ix.Candidates(q, radius)
		seen := make(map[int]bool, len(got))
		for _, id := range got {
			seen[id] = true
		}
		for i, b := range boxes {
			if spatial.HaversineMinDist(q, b) <= radius && !seen[i] {
				t.Fatalf("candidate %d (MinDist %.6g <= %.6g) missing", i,
					spatial.HaversineMinDist(q, b), radius)
			}
		}

		// Oracle 2a: knn == DFD to every candidate, sorted by (DFD, index).
		k := int(n%5) + 1
		query, dataset := ts[0], ts[1:]
		nbrs, kst, err := knn.Nearest(query, dataset, k, nil)
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNearest(query, dataset, k, geo.Haversine); !reflect.DeepEqual(nbrs, want) {
			t.Fatalf("knn k=%d:\ngot  %+v\nwant %+v", k, nbrs, want)
		}
		if kst.Candidates != int64(len(dataset)) || kst.IndexConsulted != 1 ||
			kst.SkippedByLB+kst.AbandonedEarly+kst.Exact != kst.Candidates ||
			kst.IndexPruned > kst.SkippedByLB || kst.Exact < int64(len(nbrs)) {
			t.Fatalf("knn counters do not add up: %+v (%d results)", kst, len(nbrs))
		}

		// Oracle 2b: join == DFDWithin on every pair.
		pairs, jst, err := join.Join(ts, radius, nil)
		if err != nil {
			t.Fatal(err)
		}
		if wantP := bruteJoin(ts, radius, geo.Haversine); !reflect.DeepEqual(pairs, wantP) {
			t.Fatalf("join eps=%g:\ngot  %+v\nwant %+v", radius, pairs, wantP)
		}
		nt := int64(len(ts))
		if jst.Pairs != nt*(nt-1)/2 || jst.IndexConsulted != nt ||
			jst.EndpointPruned+jst.BoxPruned+jst.DecisionRejected+jst.Reported != jst.Pairs ||
			jst.IndexPruned > jst.EndpointPruned || jst.Reported != int64(len(pairs)) {
			t.Fatalf("join counters do not add up: %+v (%d pairs)", jst, len(pairs))
		}
	})
}

// bruteNearest is the knn oracle: the DFD to every candidate, sorted by
// (distance, index), cut at k.
func bruteNearest(query *traj.Trajectory, dataset []*traj.Trajectory, k int, df geo.DistanceFunc) []knn.Neighbor {
	want := make([]knn.Neighbor, len(dataset))
	for i, c := range dataset {
		want[i] = knn.Neighbor{Index: i, Distance: dist.DFD(query.Points, c.Points, df)}
	}
	sort.Slice(want, func(a, b int) bool {
		if want[a].Distance != want[b].Distance {
			return want[a].Distance < want[b].Distance
		}
		return want[a].Index < want[b].Index
	})
	return want[:min(k, len(want))]
}

// bruteJoin is the join oracle: every pair DFDWithin accepts, in (i, j)
// order.
func bruteJoin(ts []*traj.Trajectory, eps float64, df geo.DistanceFunc) []join.Pair {
	var want []join.Pair
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if join.DFDWithin(ts[i].Points, ts[j].Points, df, eps) {
				want = append(want, join.Pair{I: i, J: j, Distance: eps})
			}
		}
	}
	return want
}

// wrappedHaversine is geo.Haversine behind a function the spatial
// package does not recognize, so no box bound is known for it.
func wrappedHaversine(a, b geo.Point) float64 { return geo.Haversine(a, b) }

// TestUnrecognizedDistanceBruteForce pins knn and join under a ground
// distance with no known box bound against brute force. On this corpus a
// coordinate-clamp probe once passed for a lower bound under such
// distances, and knn returned neighbour 16 where 11 is the nearest.
func TestUnrecognizedDistanceBruteForce(t *testing.T) {
	ts := fuzzCorpus(-293, 24)
	query, dataset := ts[0], ts[1:]
	for _, k := range []int{1, 3, 5} {
		got, _, err := knn.Nearest(query, dataset, k, &knn.Options{Dist: wrappedHaversine})
		if err != nil {
			t.Fatal(err)
		}
		if want := bruteNearest(query, dataset, k, wrappedHaversine); !reflect.DeepEqual(got, want) {
			t.Fatalf("knn k=%d:\ngot  %+v\nwant %+v", k, got, want)
		}
	}
	// Every pair distance is a radius at which that pair is just within.
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			eps := dist.DFD(ts[i].Points, ts[j].Points, wrappedHaversine)
			got, _, err := join.Join(ts, eps, &join.Options{Dist: wrappedHaversine})
			if err != nil {
				t.Fatal(err)
			}
			if want := bruteJoin(ts, eps, wrappedHaversine); !reflect.DeepEqual(got, want) {
				t.Fatalf("join eps=%g:\ngot  %+v\nwant %+v", eps, got, want)
			}
		}
	}
}
