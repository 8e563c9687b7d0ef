// Package spatial implements the MBR-based candidate retrieval layer in
// front of the kNN, join and batch engines: a uniform-grid index over
// trajectory minimum bounding rectangles with a sound lower bound
// MinDist on the ground distance between boxes.
//
// Soundness is the whole contract. For any points p ∈ a, q ∈ b,
//
//	MinDist(a.MBR, b.MBR) ≤ dG(p, q) ≤ DFD(a, b)
//
// (the second inequality because the discrete Fréchet distance is a max
// over coupled ground distances), so rejecting a pair whose MinDist
// exceeds the current radius — an ε, a k-th best distance, or a motif
// cutoff — can never reject a pair the exact search would keep. The
// parity suites in internal/knn, internal/join and internal/batch prove
// the stronger property the repo's test archetype demands: indexed and
// linear-scan searches return byte-identical results and effort stats.
//
// MinDist is metric-aware: geo.Haversine and geo.Euclidean (recognized
// by function identity) get analytic box-to-box bounds; any other ground
// distance degrades to a zero bound — the index is still consulted but
// never prunes, which is sound and keeps callers branch-free. The
// haversine bound deliberately avoids the clamp-to-box construction the
// per-pair probe bounds use (clamping is not minimal on a sphere at
// extreme latitudes); it is the max of two independently sound terms:
//
//	latitude:  dG ≥ R·Δlat, with Δlat the gap between the lat intervals;
//	longitude: dG ≥ 2R·asin(√(cos·cos)·sin(Δlng/2)), with the cosines
//	           minimized over each box's lat interval and Δlng the
//	           cyclic gap between the lng intervals,
//
// shaved by a 1e-9 relative margin so ulp-level libm differences can
// never nudge the bound above a true distance.
package spatial

import (
	"fmt"
	"math"
	"reflect"
	"sort"

	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

// MBR is an axis-aligned minimum bounding rectangle in degrees. A single
// point has a degenerate MBR with Min == Max on both axes. Trajectories
// crossing the antimeridian get a wide (conservative, still sound) box.
type MBR struct {
	MinLat, MaxLat, MinLng, MaxLng float64
}

// Bound returns the MBR of a point sequence. The fold order matches the
// historical per-search bounding boxes in knn and join bit for bit, so
// index-cached and freshly computed boxes are interchangeable. Empty
// input yields an inverted (Inf) box; callers validate emptiness first.
func Bound(pts []geo.Point) MBR {
	b := MBR{MinLat: math.Inf(1), MaxLat: math.Inf(-1), MinLng: math.Inf(1), MaxLng: math.Inf(-1)}
	for _, p := range pts {
		b.MinLat = math.Min(b.MinLat, p.Lat)
		b.MaxLat = math.Max(b.MaxLat, p.Lat)
		b.MinLng = math.Min(b.MinLng, p.Lng)
		b.MaxLng = math.Max(b.MaxLng, p.Lng)
	}
	return b
}

// Clamp returns the point of the box closest to p in coordinate space.
// It is the probe point of ProbeBound and ProbeBoundPrepared; note that
// on a sphere the clamped point is not always the minimal-distance box
// point (MinDist's analytic bound is, and is used for index pruning).
func (m MBR) Clamp(p geo.Point) geo.Point {
	q := p
	if q.Lat < m.MinLat {
		q.Lat = m.MinLat
	} else if q.Lat > m.MaxLat {
		q.Lat = m.MaxLat
	}
	if q.Lng < m.MinLng {
		q.Lng = m.MinLng
	} else if q.Lng > m.MaxLng {
		q.Lng = m.MaxLng
	}
	return q
}

// ProbeBound lower-bounds DFD(a, ·) for any trajectory inside bb: every
// coupling matches each probed point of a to some point in bb, so the
// max probe-to-box distance is a lower bound. Probes first, middle, last.
// The probe-to-box distance is df to the Clamp point, the construction
// knn and join refine with (see Clamp's note on the sphere).
func ProbeBound(a []geo.Point, bb MBR, df geo.DistanceFunc) float64 {
	lb := 0.0
	for _, idx := range [...]int{0, len(a) / 2, len(a) - 1} {
		p := a[idx]
		if d := df(p, bb.Clamp(p)); d > lb {
			lb = d
		}
	}
	return lb
}

// ProbeBoundPrepared is ProbeBound over pre-selected probes with hoisted
// cos(lat) factors; only the clamp point's factor is computed per call.
// Bit-identical to ProbeBound on the same probes under haversine, so
// callers must gate it on geo.IsHaversine.
func ProbeBoundPrepared(probes []geo.PreparedPoint, bb MBR) float64 {
	lb := 0.0
	for _, pp := range probes {
		c := bb.Clamp(pp.P)
		if d := geo.HaversinePrepared(pp.P, c, pp.CosLat, geo.CosLat(c)); d > lb {
			lb = d
		}
	}
	return lb
}

// soundnessShave is the relative margin MinDist bounds are shrunk by:
// large enough to swallow any ulp-level non-monotonicity in the libm
// sin/asin calls the bounds go through, small enough (≪ any meaningful
// pruning threshold) to cost nothing in pruning power.
const soundnessShave = 1e-9

// intervalGap returns the gap between [aLo,aHi] and [bLo,bHi] on a line
// (0 when they overlap).
func intervalGap(aLo, aHi, bLo, bHi float64) float64 {
	if g := bLo - aHi; g > 0 {
		return g
	}
	if g := aLo - bHi; g > 0 {
		return g
	}
	return 0
}

// cyclicGap returns the minimal angular separation in degrees between
// any lng in [aLo,aHi] and any in [bLo,bHi], treating longitude as a
// 360° circle. The result is in [0, 180].
func cyclicGap(aLo, aHi, bLo, bHi float64) float64 {
	switch {
	case bLo > aHi:
		return math.Min(bLo-aHi, aLo+360-bHi)
	case aLo > bHi:
		return math.Min(aLo-bHi, bLo+360-aHi)
	default:
		return 0
	}
}

// minCos returns the minimum of cos(lat) over the box's lat interval
// (attained at the endpoint of larger |lat|, since cos is unimodal on
// [-90°, 90°]), clamped at zero against rounding below the poles.
func minCos(m MBR) float64 {
	c := math.Min(math.Cos(m.MinLat*math.Pi/180), math.Cos(m.MaxLat*math.Pi/180))
	if c < 0 {
		c = 0
	}
	return c
}

// HaversineMinDist lower-bounds geo.Haversine between any point of a and
// any point of b, in meters. See the package comment for the derivation.
func HaversineMinDist(a, b MBR) float64 {
	latGap := intervalGap(a.MinLat, a.MaxLat, b.MinLat, b.MaxLat)
	lngGap := cyclicGap(a.MinLng, a.MaxLng, b.MinLng, b.MaxLng)
	latBound := geo.EarthRadiusMeters * latGap * math.Pi / 180
	s := math.Sqrt(minCos(a)*minCos(b)) * math.Sin(lngGap/2*math.Pi/180)
	if s > 1 {
		s = 1
	}
	lngBound := 2 * geo.EarthRadiusMeters * math.Asin(s)
	return math.Max(latBound, lngBound) * (1 - soundnessShave)
}

// EuclideanMinDist lower-bounds geo.Euclidean between any point of a and
// any point of b: the per-axis interval gaps realize the closest
// coordinate pair exactly, and float rounding is monotone, so no shave
// is needed.
func EuclideanMinDist(a, b MBR) float64 {
	gx := intervalGap(a.MinLng, a.MaxLng, b.MinLng, b.MaxLng)
	gy := intervalGap(a.MinLat, a.MaxLat, b.MinLat, b.MaxLat)
	return math.Sqrt(gx*gx + gy*gy)
}

// MinDistFunc lower-bounds a ground distance between two boxes.
type MinDistFunc func(a, b MBR) float64

// metric couples a recognized ground distance with its box bound and the
// cell-window inflation Candidates uses to stay a superset.
type metric struct {
	minDist MinDistFunc
	// window returns the lat/lng pads in degrees such that every MBR
	// with minDist(q, m) ≤ radius lies within pad of q on both axes
	// (lngPad ≥ 180 means the whole circle must be swept).
	window func(q MBR, radius float64) (latPad, lngPad float64)
}

// polarCutoffDeg bounds the latitudes the grid itself covers: an MBR
// reaching beyond ±polarCutoffDeg goes to the always-scanned overflow
// list, so the longitude window inflation can assume in-grid candidates
// have cos(lat) ≥ cos(polarCutoffDeg).
const polarCutoffDeg = 85

// padSlackDeg is added to both window pads: absolute slack (~1 µm of
// latitude) that swallows the soundness shave and any rounding in the
// pad arithmetic itself.
const padSlackDeg = 1e-7

func haversineWindow(q MBR, radius float64) (latPad, lngPad float64) {
	r := radius / (1 - 2*soundnessShave) // invert the MinDist shave
	latPad = r/geo.EarthRadiusMeters*180/math.Pi + padSlackDeg
	den := math.Sqrt(minCos(q) * math.Cos(polarCutoffDeg*math.Pi/180))
	s := math.Sin(math.Min(r/(2*geo.EarthRadiusMeters), math.Pi/2))
	if den <= 0 || s >= den {
		return latPad, 360
	}
	lngPad = 2*math.Asin(s/den)*180/math.Pi + padSlackDeg
	return latPad, lngPad
}

func euclideanWindow(q MBR, radius float64) (latPad, lngPad float64) {
	return radius + padSlackDeg, radius + padSlackDeg
}

var (
	haversineMetric = &metric{minDist: HaversineMinDist, window: haversineWindow}
	euclideanMetric = &metric{minDist: EuclideanMinDist, window: euclideanWindow}
)

// metricFor resolves a ground distance to its metric by function
// identity (the same trick internal/store uses), or nil when the
// distance is unrecognized and no sound box bound is known.
func metricFor(df geo.DistanceFunc) *metric {
	if df == nil {
		return haversineMetric
	}
	switch reflect.ValueOf(df).Pointer() {
	case reflect.ValueOf(geo.Haversine).Pointer():
		return haversineMetric
	case reflect.ValueOf(geo.Euclidean).Pointer():
		return euclideanMetric
	}
	return nil
}

// MinDistFor returns the sound box-to-box lower bound for a recognized
// ground distance (nil Dist selects haversine), or nil when none is
// known — callers then skip index pruning entirely.
func MinDistFor(df geo.DistanceFunc) MinDistFunc {
	m := metricFor(df)
	if m == nil {
		return nil
	}
	return m.minDist
}

// DefaultCell is the default grid cell edge in degrees: 0.05° ≈ 5.6 km
// of latitude, sized so a typical urban trajectory MBR covers O(1)
// cells (see DESIGN.md for the sizing argument).
const DefaultCell = 0.05

// DefaultMaxCover caps how many cells one MBR may occupy before it is
// moved to the always-scanned overflow list.
const DefaultMaxCover = 1024

// IndexOptions configures an Index; the zero value selects haversine,
// DefaultCell and DefaultMaxCover.
type IndexOptions struct {
	// Dist is the ground distance MinDist lower-bounds; nil selects
	// geo.Haversine. Unrecognized distances disable pruning (the index
	// stays consistent, Candidates returns everything).
	Dist geo.DistanceFunc
	// Cell is the grid cell edge in degrees (coordinate units for
	// Euclidean data); 0 selects DefaultCell.
	Cell float64
	// MaxCover caps cells per MBR before overflow; 0 selects
	// DefaultMaxCover.
	MaxCover int
}

type cellKey struct{ lat, lng int32 }

// Index is a uniform grid over MBRs keyed by small integer ids (slice
// positions for the per-request indexes knn and join consume, registry
// handles inside the store). It is not safe for concurrent use; the
// store serializes access under its own lock.
type Index struct {
	cell     float64
	maxCover int
	m        *metric
	mbrs     map[int]MBR
	cells    map[cellKey][]int
	over     map[int]struct{} // oversize or polar MBRs: always scanned
}

// NewIndex creates an empty index. opt may be nil for defaults.
func NewIndex(opt *IndexOptions) *Index {
	ix := &Index{
		cell:     DefaultCell,
		maxCover: DefaultMaxCover,
		mbrs:     make(map[int]MBR),
		cells:    make(map[cellKey][]int),
		over:     make(map[int]struct{}),
	}
	var df geo.DistanceFunc
	if opt != nil {
		df = opt.Dist
		if opt.Cell > 0 {
			ix.cell = opt.Cell
		}
		if opt.MaxCover > 0 {
			ix.maxCover = opt.MaxCover
		}
	}
	ix.m = metricFor(df)
	return ix
}

// BuildIndex indexes a trajectory slice by position — the shape knn and
// join consume. Nil or empty trajectories are rejected (the searches
// reject them anyway; an index must not silently drop them).
func BuildIndex(ts []*traj.Trajectory, df geo.DistanceFunc) (*Index, error) {
	ix := NewIndex(&IndexOptions{Dist: df})
	for i, t := range ts {
		if t == nil || t.Len() == 0 {
			return nil, fmt.Errorf("spatial: nil or empty trajectory at index %d", i)
		}
		ix.Insert(i, Bound(t.Points))
	}
	return ix, nil
}

// Len returns the number of indexed MBRs.
func (ix *Index) Len() int { return len(ix.mbrs) }

// MBROf returns the indexed MBR for id.
func (ix *Index) MBROf(id int) (MBR, bool) {
	m, ok := ix.mbrs[id]
	return m, ok
}

// IDs returns every indexed id in ascending order.
func (ix *Index) IDs() []int {
	out := make([]int, 0, len(ix.mbrs))
	for id := range ix.mbrs {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// Pruning reports whether the index has a sound MinDist for its ground
// distance (false means Candidates returns everything and MinDist is 0).
func (ix *Index) Pruning() bool { return ix.m != nil }

// MinDist lower-bounds the index's ground distance between two boxes;
// zero (never prunes) when the distance is unrecognized.
func (ix *Index) MinDist(a, b MBR) float64 {
	if ix.m == nil {
		return 0
	}
	return ix.m.minDist(a, b)
}

// cellRange returns the inclusive cell coordinates covering [lo, hi].
func (ix *Index) cellRange(lo, hi float64) (int32, int32) {
	return int32(math.Floor(lo / ix.cell)), int32(math.Floor(hi / ix.cell))
}

// coverage enumerates the cells an MBR occupies; returns false when the
// MBR belongs in the overflow list (too many cells, polar, or non-finite).
func (ix *Index) coverage(m MBR, visit func(cellKey)) bool {
	if m.MinLat < -polarCutoffDeg || m.MaxLat > polarCutoffDeg ||
		math.IsInf(m.MinLat, 0) || math.IsInf(m.MaxLat, 0) ||
		math.IsInf(m.MinLng, 0) || math.IsInf(m.MaxLng, 0) ||
		m.MinLat != m.MinLat || m.MaxLat != m.MaxLat ||
		m.MinLng != m.MinLng || m.MaxLng != m.MaxLng {
		return false
	}
	la0, la1 := ix.cellRange(m.MinLat, m.MaxLat)
	lo0, lo1 := ix.cellRange(m.MinLng, m.MaxLng)
	if (int(la1-la0)+1)*(int(lo1-lo0)+1) > ix.maxCover {
		return false
	}
	for la := la0; la <= la1; la++ {
		for lo := lo0; lo <= lo1; lo++ {
			visit(cellKey{la, lo})
		}
	}
	return true
}

// Insert adds (or replaces) an MBR under id.
func (ix *Index) Insert(id int, m MBR) {
	if _, ok := ix.mbrs[id]; ok {
		ix.Remove(id)
	}
	ix.mbrs[id] = m
	if !ix.coverage(m, func(k cellKey) {
		ix.cells[k] = append(ix.cells[k], id)
	}) {
		ix.over[id] = struct{}{}
	}
}

// Remove deletes id from the index; it reports whether id was present.
func (ix *Index) Remove(id int) bool {
	m, ok := ix.mbrs[id]
	if !ok {
		return false
	}
	delete(ix.mbrs, id)
	if _, over := ix.over[id]; over {
		delete(ix.over, id)
		return true
	}
	ix.coverage(m, func(k cellKey) {
		ids := ix.cells[k]
		for i, v := range ids {
			if v == id {
				ids = append(ids[:i], ids[i+1:]...)
				break
			}
		}
		if len(ids) == 0 {
			delete(ix.cells, k)
		} else {
			ix.cells[k] = ids
		}
	})
	return true
}

// Candidates returns, in ascending id order, a superset of every indexed
// id whose MinDist to q is at most radius. A negative radius returns
// nil; a non-finite radius, an unrecognized ground distance, or a window
// larger than the resident cell set degrade to "every id" — still a
// correct superset, just unpruned.
func (ix *Index) Candidates(q MBR, radius float64) []int {
	if radius < 0 || len(ix.mbrs) == 0 {
		return nil
	}
	if ix.m == nil || math.IsInf(radius, 0) || radius != radius {
		return ix.IDs()
	}
	latPad, lngPad := ix.m.window(q, radius)
	if math.IsNaN(latPad) || math.IsNaN(lngPad) || math.IsInf(latPad, 0) {
		return ix.IDs()
	}

	la0, la1 := ix.cellRange(math.Max(q.MinLat-latPad, -90), math.Min(q.MaxLat+latPad, 90))
	// The longitude window wraps at ±180: split it into at most two plain
	// intervals over the stored coordinate range, in cell coordinates.
	parts := lngWindows(q.MinLng-lngPad, q.MaxLng+lngPad)
	var cellParts [][2]int32
	var window int64
	for _, p := range parts {
		lo0, lo1 := ix.cellRange(p[0], p[1])
		cellParts = append(cellParts, [2]int32{lo0, lo1})
		window += int64(la1-la0+1) * int64(lo1-lo0+1)
	}

	seen := make(map[int]struct{}, len(ix.over))
	collect := func(ids []int) {
		for _, id := range ids {
			seen[id] = struct{}{}
		}
	}

	// Visit window cells directly when that is cheaper than filtering
	// the whole resident cell set; both strategies produce the same set.
	if window > int64(len(ix.cells)) {
		for k, ids := range ix.cells {
			if k.lat < la0 || k.lat > la1 {
				continue
			}
			for _, cp := range cellParts {
				if k.lng >= cp[0] && k.lng <= cp[1] {
					collect(ids)
					break
				}
			}
		}
	} else {
		for la := la0; la <= la1; la++ {
			for _, cp := range cellParts {
				for lo := cp[0]; lo <= cp[1]; lo++ {
					collect(ix.cells[cellKey{la, lo}])
				}
			}
		}
	}
	for id := range ix.over {
		seen[id] = struct{}{}
	}

	out := make([]int, 0, len(seen))
	for id := range seen {
		out = append(out, id)
	}
	sort.Ints(out)
	return out
}

// lngWindows clips the (possibly wrapping) longitude window [lo, hi] to
// at most two intervals within the stored coordinate range [-180, 180].
func lngWindows(lo, hi float64) [][2]float64 {
	if hi-lo >= 360 {
		return [][2]float64{{-180, 180}}
	}
	switch {
	case lo < -180:
		return [][2]float64{{-180, hi}, {lo + 360, 180}}
	case hi > 180:
		return [][2]float64{{lo, 180}, {-180, hi - 360}}
	default:
		return [][2]float64{{lo, hi}}
	}
}
