// Package knn implements k-nearest-trajectory search under the discrete
// Fréchet distance — the "most similar trajectory search" operation of
// the paper's reference [9] (Frentzos et al., ICDE'07), rebuilt on the
// same lower-bound philosophy as the motif engine:
//
//  1. every candidate gets a cheap lower bound (endpoint distances and
//     bounding-box probes, both O(1) after one pass over the points);
//  2. candidates are visited in ascending lower-bound order;
//  3. decide against kth, then measure inside a certified radius: once
//     k neighbours are held, the decision "DFD <= kth?" runs first (under
//     haversine, in the pair's projected frame at a few ns per cell), and
//     only a candidate within kth pays for the exact DFD dynamic program.
//     That program runs with a cap just above kth, and while the heap
//     fills, just above the candidate's own greedy coupling bound
//     (dist.GreedyBound, O(n+m)), so it only fills the cells that can
//     still lie on a coupling below the cap. Under haversine both caps
//     are already certified and the DP never abandons; under another
//     ground distance a full-heap candidate beyond kth abandons as soon
//     as every cell of a row, or the final cell, reaches the cap;
//  4. the search stops as soon as the next lower bound exceeds the k-th
//     best — the remaining candidates cannot improve the result.
//
// Before any of that, a spatial MBR bound (spatial MinDist, pure
// arithmetic over the boxes) pre-bounds every candidate: it is itself a
// lower bound on the cheap lower bound above, so candidates are refined
// lazily, and one whose MinDist already exceeds the k-th best is skipped
// without a single ground-distance evaluation or point scan. Refinement
// happens in the exact ascending (bound, index) order a linear scan of
// the cheap bounds would sort into, so the search visits the same
// decisions and dynamic programs against the same kth in the same order —
// results and the Stats counters other than IndexConsulted/IndexPruned
// are byte-identical to that scan (the reference kept in
// knn_parity_test.go).
package knn

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// Neighbor is one search result.
type Neighbor struct {
	// Index into the dataset slice.
	Index int
	// Distance is the exact DFD to the query.
	Distance float64
}

// Stats describes the pruning achieved by a search.
type Stats struct {
	Candidates     int64 // dataset size
	SkippedByLB    int64 // never verified: lower bound above kth
	AbandonedEarly int64 // decided beyond kth, or DP proved DFD > kth
	Exact          int64 // full DFD computations that completed
	// IndexConsulted counts spatial-index consultations (one per
	// search); IndexPruned counts candidates the MBR bound rejected before
	// any ground-distance work — a subset of SkippedByLB, which stays
	// byte-identical to the unpruned linear scan.
	IndexConsulted int64
	IndexPruned    int64
	// ProjectionFallbacks counts decision cells (or whole candidates,
	// when no valid frame exists) where the projected kernel's error
	// band could not certify the comparison against kth and the
	// haversine was consulted. Zero under any other ground distance.
	ProjectionFallbacks int64
}

// Options tunes the search; zero value uses haversine.
type Options struct {
	Dist geo.DistanceFunc
	// Index, when non-nil, supplies the candidates' MBRs (the store's
	// cached boxes) instead of folding them with spatial.Bound. It must
	// be keyed by dataset position with MBRs equal to spatial.Bound of
	// each trajectory's points (spatial.BuildIndex, or store.IndexFor),
	// and built for the same ground distance as Dist. Results and Stats
	// are the same with and without it.
	Index *spatial.Index
}

func (o *Options) dist() geo.DistanceFunc {
	if o == nil || o.Dist == nil {
		return geo.Haversine
	}
	return o.Dist
}

// Nearest returns the k trajectories of dataset most similar to query
// under DFD, ascending by distance (ties broken by index). Fewer than k
// are returned when the dataset is smaller.
func Nearest(query *traj.Trajectory, dataset []*traj.Trajectory, k int, opt *Options) ([]Neighbor, Stats, error) {
	if k < 1 {
		return nil, Stats{}, fmt.Errorf("knn: k must be at least 1, got %d", k)
	}
	if query == nil || query.Len() == 0 {
		return nil, Stats{}, fmt.Errorf("knn: empty query")
	}
	df := opt.dist()
	st := Stats{Candidates: int64(len(dataset)), IndexConsulted: 1}
	var ix *spatial.Index
	if opt != nil {
		ix = opt.Index
	}
	var boxes []spatial.MBR
	if ix == nil {
		boxes = make([]spatial.MBR, len(dataset))
	}
	for i, t := range dataset {
		if t == nil || t.Len() == 0 {
			return nil, Stats{}, fmt.Errorf("knn: nil or empty trajectory at index %d", i)
		}
		if ix == nil {
			boxes[i] = spatial.Bound(t.Points)
		}
	}
	if ix == nil {
		ix = spatial.NewIndex(boxes, df)
	}
	boxes = ix.Boxes()
	if len(boxes) != len(dataset) {
		return nil, Stats{}, fmt.Errorf("knn: spatial index covers %d trajectories, dataset has %d", len(boxes), len(dataset))
	}

	q := query.Points
	qBox := spatial.Bound(q)

	// On the haversine metric the query side of every bound touches the
	// same few fixed points for all candidates, so their cos(lat) factors
	// are hoisted out of the per-candidate loop once (HaversinePrepared
	// is bit-identical to Haversine — same core arithmetic).
	hav := geo.IsHaversine(df)
	var qFirst, qLast geo.PreparedPoint
	var qProbes [3]geo.PreparedPoint
	if hav {
		qFirst = geo.Prepare(q[0])
		qLast = geo.Prepare(q[len(q)-1])
		for k, idx := range [...]int{0, len(q) / 2, len(q) - 1} {
			qProbes[k] = geo.Prepare(q[idx])
		}
	}

	// lowerBound is the cheap per-candidate bound of the package comment.
	lowerBound := func(i int) float64 {
		p, pBox := dataset[i].Points, boxes[i]
		var lb float64
		if hav {
			lb = math.Max(
				geo.HaversinePrepared(qFirst.P, p[0], qFirst.CosLat, geo.CosLat(p[0])),
				geo.HaversinePrepared(qLast.P, p[len(p)-1], qLast.CosLat, geo.CosLat(p[len(p)-1])))
			lb = math.Max(lb, spatial.ProbeBoundPrepared(qProbes[:], pBox))
		} else {
			lb = math.Max(df(q[0], p[0]), df(q[len(q)-1], p[len(p)-1]))
			lb = math.Max(lb, spatial.ProbeBound(q, pBox, df))
		}
		return math.Max(lb, spatial.ProbeBound(p, qBox, df))
	}

	// Max-heap of the best k neighbors found so far, ordered by
	// (distance, index) so the root is the lexicographically worst
	// incumbent. The cap and the early break must keep candidates with
	// d == kth alive: such a candidate still displaces a higher-index
	// incumbent under the promised tie-breaking, so only strictly worse
	// ones (lb > kth, or a DP proven >= nextafter(kth)) are dropped.
	h := &nbrHeap{}
	heap.Init(h)
	kth := math.Inf(1)
	// Under haversine, once the heap is full each candidate is first
	// decided against kth in the pair's projected frame. The query is
	// projected once per frame RefKey and the candidate into one reused
	// buffer: the per-trajectory projection cache would keep a copy of
	// every candidate's points alive for the registry's lifetime.
	qProj := map[int32][]geo.Projected{}
	var cProj []geo.Projected
	// within decides DFD(q, candidate) <= kth.
	within := func(idx int) bool {
		p := dataset[idx].Points
		f := spatial.PairFrame(qBox, boxes[idx])
		var pq []geo.Projected
		cProj = cProj[:0]
		if f.OK() {
			key := f.RefKey()
			if pq = qProj[key]; pq == nil {
				pq = f.ProjectAll(q)
				qProj[key] = pq
			}
			for _, pt := range p {
				cProj = append(cProj, f.Project(pt))
			}
		}
		return dist.DFDDecisionProjected(q, p, pq, cProj, f, kth, &st.ProjectionFallbacks)
	}
	// process verifies one candidate. While the heap fills, the value DP
	// runs inside the candidate's own greedy bound, which DFD never
	// exceeds. Once it is full, under haversine a decision against kth
	// drops the candidate when DFD > kth; otherwise the DP runs inside
	// kth, and abandons exactly when DFD > kth.
	process := func(idx int) {
		p := dataset[idx].Points
		var capd float64
		if h.Len() < k {
			capd = math.Nextafter(dist.GreedyBound(q, p, df), math.Inf(1))
		} else {
			if hav && !within(idx) {
				st.AbandonedEarly++
				return
			}
			capd = math.Nextafter(kth, math.Inf(1))
		}
		d, exceeded := dist.DFDCapped(q, p, df, capd)
		if exceeded {
			st.AbandonedEarly++
			return
		}
		st.Exact++
		nb := Neighbor{Index: idx, Distance: d}
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

	// Drain candidates through a lazy refinement heap keyed by
	// (bound, index): every candidate enters under its spatial MinDist
	// (≤ the endpoint distance, hence ≤ the full lower bound); popping an
	// unrefined candidate upgrades it to the full lower bound and
	// re-queues it. Refined candidates therefore pop in exactly ascending
	// (lb, index) order, and candidates whose MinDist never drops below
	// the k-th best are never refined at all.
	lh := make(lazyHeap, len(dataset))
	for i := range lh {
		lh[i] = lazyCand{idx: i, bound: ix.MinDist(qBox, boxes[i])}
	}
	heap.Init(&lh)
	for lh.Len() > 0 {
		if h.Len() == k && lh[0].bound > kth {
			// Everything left bounds above the k-th best.
			break
		}
		c := heap.Pop(&lh).(lazyCand)
		if !c.refined {
			c.bound = lowerBound(c.idx)
			c.refined = true
			heap.Push(&lh, c)
			continue
		}
		process(c.idx)
	}
	for _, c := range lh {
		if !c.refined {
			st.IndexPruned++
		}
	}
	// Every candidate is either processed or skipped before its DP.
	st.SkippedByLB = st.Candidates - st.AbandonedEarly - st.Exact

	out := make([]Neighbor, h.Len())
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = heap.Pop(h).(Neighbor)
	}
	sort.Slice(out, func(a, b int) bool { return nbrLess(out[a], out[b]) })
	return out, st, nil
}

// lazyCand is one candidate: bound is the spatial MinDist until
// refined, then the full cheap lower bound.
type lazyCand struct {
	idx     int
	bound   float64
	refined bool
}

// lazyHeap is a min-heap over (bound, idx) — a strict total order, so
// the pop sequence is deterministic.
type lazyHeap []lazyCand

func (h lazyHeap) Len() int { return len(h) }
func (h lazyHeap) Less(i, j int) bool {
	if h[i].bound != h[j].bound {
		return h[i].bound < h[j].bound
	}
	return h[i].idx < h[j].idx
}
func (h lazyHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *lazyHeap) Push(x any)   { *h = append(*h, x.(lazyCand)) }
func (h *lazyHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// nbrLess is the result order: ascending distance, ties broken by index.
func nbrLess(a, b Neighbor) bool {
	if a.Distance != b.Distance {
		return a.Distance < b.Distance
	}
	return a.Index < b.Index
}

type nbrHeap []Neighbor

func (h nbrHeap) Len() int           { return len(h) }
func (h nbrHeap) Less(i, j int) bool { return nbrLess(h[j], h[i]) } // max-heap on (distance, index)
func (h nbrHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *nbrHeap) Push(x any)        { *h = append(*h, x.(Neighbor)) }
func (h *nbrHeap) Pop() any {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
