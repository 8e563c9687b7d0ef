// Package join implements a discrete-Fréchet similarity join over sets of
// trajectories — one of the paper's stated future-work targets (§7:
// "apply similar optimizations in order to accelerate other trajectory
// analysis operations that rely on DFD, such as similarity join").
//
// Given trajectories T1..Tm and a radius eps, the join reports every pair
// (i, j) with DFD(Ti, Tj) <= eps. The same bounding philosophy as motif
// discovery applies, adapted to whole-trajectory pairs:
//
//  1. endpoint bound — every coupling matches first points to first
//     points and last to last, so DFD >= max(dG(a0,b0), dG(an,bm));
//  2. bounding-box bound — every point of A is matched to some point of
//     B, so DFD >= the minimal distance from any A point to B's bounding
//     box; probing a few A points costs O(1);
//  3. decision procedure — DFDWithin answers "DFD <= eps?". A greedy walk
//     along the diagonal first tries to certify "yes" with one coupling
//     inside eps, at O(l) cells; when it gets stuck, a pruned dynamic
//     program decides, abandoning as soon as a full row dies, usually
//     long before the O(l^2) table is complete.
//
// In front of the cascade, a spatial MBR index retrieves the candidate
// pairs with MinDist(MBR_i, MBR_j) <= eps and rejects the rest without
// touching their points. MinDist lower-bounds the endpoint distance
// df(a0, b0) (both endpoints lie inside their boxes), so every pair the
// index rejects is exactly one filter 1 would have rejected — the
// surviving pairs run the unchanged cascade in the same (i, j) order.
// Under haversine, filter 3 runs through the equirectangular projected
// decision kernel in the pair's frame (spatial.PairFrame): cells the
// frame's certified error band can decide skip the haversine, and
// undecidable cells fall back per cell.
// Results and the Stats counters other than IndexConsulted, IndexPruned
// and ProjectionFallbacks are byte-identical to an all-pairs scan with
// the plain decision DP (the reference kept in join_parity_test.go).
package join

import (
	"fmt"
	"math"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// Pair is one join result.
type Pair struct {
	I, J int // indexes into the input slice, I < J
	// Distance is the exact DFD when Exact was requested, otherwise an
	// upper bound of eps (the decision procedure stops at yes/no).
	Distance float64
}

// Options tunes the join.
type Options struct {
	// Dist is the ground distance; nil selects haversine.
	Dist geo.DistanceFunc
	// Exact computes the exact DFD for reported pairs (one extra value DP
	// per reported pair, over the cells below eps); otherwise Distance is
	// set to eps.
	Exact bool
	// Index, when non-nil, supplies the trajectories' MBRs (the store's
	// cached boxes) instead of folding them with spatial.Bound. It must be
	// keyed by position into ts with MBRs equal to spatial.Bound of each
	// trajectory's points, and built for the same ground distance as Dist.
	// Results and Stats are the same with and without it.
	Index *spatial.Index
	// EndpointDists, when non-nil, supplies the endpoint ground distances
	// df(a[0], b[0]) and df(a[n-1], b[m-1]) for the pair (i, j) — e.g.
	// from a store-level memo. Returned values must be bit-identical to
	// direct evaluation; ok=false falls back to computing them.
	EndpointDists func(i, j int) (d0, dn float64, ok bool)
}

func (o *Options) dist() geo.DistanceFunc {
	if o == nil || o.Dist == nil {
		return geo.Haversine
	}
	return o.Dist
}

// Stats counts the filter cascade's effectiveness.
type Stats struct {
	Pairs            int64 // candidate pairs considered
	EndpointPruned   int64
	BoxPruned        int64
	DecisionRejected int64
	Reported         int64
	// IndexConsulted counts spatial-index retrievals (one per input
	// trajectory); IndexPruned counts pairs the index rejected without
	// touching their points. Index rejections are a subset of filter 1's,
	// so they are credited to EndpointPruned too, keeping that counter
	// byte-identical to the all-pairs scan.
	IndexConsulted int64
	IndexPruned    int64
	// ProjectionFallbacks counts decision-DP cells (or whole pairs, when
	// no valid frame exists) where the projected kernel's error band
	// could not certify the comparison and the haversine was consulted.
	// Zero under any ground distance other than haversine.
	ProjectionFallbacks int64
}

// Join reports all pairs of trajectories within DFD eps of each other.
func Join(ts []*traj.Trajectory, eps float64, opt *Options) ([]Pair, Stats, error) {
	if eps < 0 {
		return nil, Stats{}, fmt.Errorf("join: negative radius %g", eps)
	}
	df := opt.dist()
	exact := opt != nil && opt.Exact

	var ix *spatial.Index
	if opt != nil {
		ix = opt.Index
	}
	var boxes []spatial.MBR
	if ix == nil {
		boxes = make([]spatial.MBR, len(ts))
	}
	for k, t := range ts {
		if t == nil || t.Len() == 0 {
			return nil, Stats{}, fmt.Errorf("join: nil or empty trajectory at index %d", k)
		}
		if ix == nil {
			boxes[k] = spatial.Bound(t.Points)
		}
	}
	if ix == nil {
		ix = spatial.NewIndex(boxes, df)
	}
	boxes = ix.Boxes()
	if len(boxes) != len(ts) {
		return nil, Stats{}, fmt.Errorf("join: spatial index covers %d trajectories, input has %d", len(boxes), len(ts))
	}
	n := int64(len(ts))
	st := Stats{Pairs: n * (n - 1) / 2, IndexConsulted: n}

	hav := geo.IsHaversine(df)
	// Hoist cos(lat) for the endpoint cascade: filter 1 touches each
	// trajectory's first/last point once per candidate pair, so the four
	// cos calls per pair become four table lookups (bit-identical —
	// HaversinePrepared runs the same core as Haversine).
	var cosFirst, cosLast []float64
	if hav {
		cosFirst = make([]float64, len(ts))
		cosLast = make([]float64, len(ts))
		for k, t := range ts {
			cosFirst[k] = geo.CosLat(t.Points[0])
			cosLast[k] = geo.CosLat(t.Points[len(t.Points)-1])
		}
	}
	endpointDists := func(i, j int) (d0, dn float64) {
		if opt != nil && opt.EndpointDists != nil {
			if m0, mn, ok := opt.EndpointDists(i, j); ok {
				return m0, mn
			}
		}
		a, b := ts[i].Points, ts[j].Points
		if hav {
			return geo.HaversinePrepared(a[0], b[0], cosFirst[i], cosFirst[j]),
				geo.HaversinePrepared(a[len(a)-1], b[len(b)-1], cosLast[i], cosLast[j])
		}
		return df(a[0], b[0]), df(a[len(a)-1], b[len(b)-1])
	}

	// The index yields the (i, j) pairs (i < j, lexicographic order) that
	// reach the filter cascade; it rejects MinDist > eps pairs up front,
	// and they are booked as EndpointPruned — the filter that would have
	// caught every one of them (MinDist <= df(a0, b0)).
	var out []Pair
	var kept int64
	for i := range ts {
		for _, j := range ix.Candidates(boxes[i], eps) {
			if j <= i || ix.MinDist(boxes[i], boxes[j]) > eps {
				continue
			}
			kept++
			a, b := ts[i].Points, ts[j].Points

			// Filter 1: endpoint bound.
			if d0, dn := endpointDists(i, j); d0 > eps || dn > eps {
				st.EndpointPruned++
				continue
			}
			// Filter 2: box probes in both directions.
			if spatial.ProbeBound(a, boxes[j], df) > eps || spatial.ProbeBound(b, boxes[i], df) > eps {
				st.BoxPruned++
				continue
			}
			// Filter 3: decision DP; under haversine through the projected
			// kernel (same boolean, cell-level haversine fallback where the
			// frame's error band cannot certify the comparison).
			var within bool
			if hav {
				f := spatial.PairFrame(boxes[i], boxes[j])
				var pa, pb []geo.Projected
				if f.OK() {
					pa = ts[i].ProjectedPoints(f)
					pb = ts[j].ProjectedPoints(f)
				}
				within = dist.DFDDecisionProjected(a, b, pa, pb, f, eps, &st.ProjectionFallbacks)
			} else {
				within = DFDWithin(a, b, df, eps)
			}
			if !within {
				st.DecisionRejected++
				continue
			}
			p := Pair{I: i, J: j, Distance: eps}
			if exact {
				// Filter 3 certified DFD <= eps, so the value DP runs
				// inside that radius and never abandons.
				p.Distance, _ = dist.DFDCapped(a, b, df, math.Nextafter(eps, math.Inf(1)))
			}
			out = append(out, p)
			st.Reported++
		}
	}
	st.IndexPruned = st.Pairs - kept
	st.EndpointPruned += st.IndexPruned
	return out, st, nil
}

// DFDWithin decides whether DFD(a, b) <= eps without computing the full
// distance, by the canonical decision kernel (dist.DFDDecision): cells
// whose value would exceed eps are dead and the DP abandons as soon as a
// row has no live cell. O(l^2) worst case, O(min l) space. Empty inputs
// are never within any radius (the join rejects them up front).
func DFDWithin(a, b []geo.Point, df geo.DistanceFunc, eps float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	return dist.DFDDecision(a, b, df, eps)
}
