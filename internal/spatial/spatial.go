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
// cutoff — can never reject a pair the exact search would keep. knn and
// join always prune this way; the parity suites in internal/knn,
// internal/join and internal/batch prove the stronger property that the
// pruned searches return results and effort stats byte-identical to
// test-local unpruned reference scans.
//
// MinDist is metric-aware: geo.Haversine and geo.Euclidean (recognized
// by function identity) get analytic box-to-box bounds; any other ground
// distance degrades to a zero bound — the index is still consulted but
// never prunes, which is sound and keeps callers branch-free. The
// haversine bound avoids any clamp-to-box construction (the coordinate
// clamp point is not the nearest box point on a sphere); it is the max
// of two independently sound terms:
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
	"slices"
	"sync"

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

// Clamp returns the point of the box closest to p in coordinate space:
// the nearest box point in the plane, and on the sphere whenever p's
// longitude lies inside the box's range. Outside that range it is not
// always the nearest box point on a sphere (ProbeBound handles that case
// separately).
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
// Under haversine the probe-to-box distance is the spherical one of
// haversinePointBoxPrepared, and under geo.Euclidean it is the distance
// to the Clamp point, the nearest box point in the plane. Any other
// ground distance has no known nearest box point, so the bound is zero,
// the same policy as Index.MinDist.
func ProbeBound(a []geo.Point, bb MBR, df geo.DistanceFunc) float64 {
	hav := geo.IsHaversine(df)
	if !hav && metricFor(df) != euclideanMetric {
		return 0
	}
	lb := 0.0
	for _, idx := range [...]int{0, len(a) / 2, len(a) - 1} {
		p := a[idx]
		var d float64
		if hav {
			d = haversinePointBoxPrepared(p, geo.CosLat(p), bb)
		} else {
			d = geo.Euclidean(p, bb.Clamp(p))
		}
		if d > lb {
			lb = d
		}
	}
	return lb
}

// PairFrame is the projection frame a pair decision runs in: the frame
// over the union of the two trajectories' boxes. knn and join both build
// their frames here. The frame is invalid (not OK) for regions the
// certified error band cannot cover: pole-adjacent, antimeridian-spanning
// or very wide unions, which must fall back to the haversine.
func PairFrame(a, b MBR) geo.Frame {
	return geo.FrameFor(
		math.Min(a.MinLat, b.MinLat), math.Max(a.MaxLat, b.MaxLat),
		math.Min(a.MinLng, b.MinLng), math.Max(a.MaxLng, b.MaxLng),
	)
}

// ProbeBoundPrepared is ProbeBound over pre-selected probes with hoisted
// cos(lat) factors. Bit-identical to ProbeBound on the same probes under
// haversine, so callers must gate it on geo.IsHaversine.
func ProbeBoundPrepared(probes []geo.PreparedPoint, bb MBR) float64 {
	lb := 0.0
	for _, pp := range probes {
		if d := haversinePointBoxPrepared(pp.P, pp.CosLat, bb); d > lb {
			lb = d
		}
	}
	return lb
}

// haversinePointBoxPrepared lower-bounds the haversine distance from p
// (cosP = geo.CosLat(p)) to every point of bb. When p's longitude lies
// inside the box's range, the nearest box point is on p's own meridian:
// the Clamp point. Otherwise it lies on the boundary meridian with the
// smaller cyclic longitude gap (along any parallel the distance grows
// with that gap). On that meridian it is the foot of the great-circle
// perpendicular from p, clamped to [MinLat, MaxLat], when the gap is at
// most 90°; beyond 90° the foot lies past a pole and the nearer of the
// two corners is the answer. That second value is shaved like MinDist,
// because the computed foot is rounded.
func haversinePointBoxPrepared(p geo.Point, cosP float64, bb MBR) float64 {
	if p.Lng >= bb.MinLng && p.Lng <= bb.MaxLng {
		c := bb.Clamp(p)
		return geo.HaversinePrepared(p, c, cosP, geo.CosLat(c))
	}
	lng := bb.MinLng
	if cyclicGap(p.Lng, p.Lng, bb.MaxLng, bb.MaxLng) < cyclicGap(p.Lng, p.Lng, bb.MinLng, bb.MinLng) {
		lng = bb.MaxLng
	}
	at := func(lat float64) float64 {
		q := geo.Point{Lat: lat, Lng: lng}
		return geo.HaversinePrepared(p, q, cosP, geo.CosLat(q))
	}
	var d float64
	if c := math.Cos((lng - p.Lng) * math.Pi / 180); c >= 0 {
		foot := math.Atan2(math.Sin(p.Lat*math.Pi/180), cosP*c) * 180 / math.Pi
		d = at(math.Max(bb.MinLat, math.Min(foot, bb.MaxLat)))
	} else {
		d = math.Min(at(bb.MinLat), at(bb.MaxLat))
	}
	return d * (1 - soundnessShave)
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
	// window returns the lat/lng pads in coordinate units such that
	// every MBR with minDist(q, m) ≤ radius lies within pad of q on both
	// axes (lngPad ≥ 180 means the whole circle must be swept).
	window func(q MBR, radius float64) (latPad, lngPad float64)
	// lngLimit is the |longitude| (planar x) range the grid files boxes
	// over; boxes reaching beyond it go to the overflow list.
	lngLimit float64
	// cyclic marks longitude as a 360° circle (haversine): query windows
	// wrap at ±180. Planar x (geo.Euclidean) never wraps.
	cyclic bool
}

// polarCutoffDeg bounds the latitudes the grid itself covers: an MBR
// reaching beyond ±polarCutoffDeg goes to the always-scanned overflow
// list, so the longitude window inflation can assume in-grid candidates
// have cos(lat) ≥ cos(polarCutoffDeg).
const polarCutoffDeg = 85

// planarLimit bounds |x| and the window edges of the planar grid, so
// every cell coordinate fits an int32; beyond it boxes overflow.
const planarLimit = (1 << 30) * DefaultCell

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
	haversineMetric = &metric{minDist: HaversineMinDist, window: haversineWindow, lngLimit: 180, cyclic: true}
	euclideanMetric = &metric{minDist: EuclideanMinDist, window: euclideanWindow, lngLimit: planarLimit}
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

// DefaultCell is the grid cell edge in degrees: 0.05° ≈ 5.6 km of
// latitude, sized so a typical urban trajectory MBR covers O(1) cells
// (see DESIGN.md for the sizing argument).
const DefaultCell = 0.05

// DefaultMaxCover caps how many cells one MBR may occupy before it is
// moved to the always-scanned overflow list.
const DefaultMaxCover = 1024

type cellKey struct{ lat, lng int32 }

// Index is an immutable uniform grid over MBRs keyed by position: id k
// is the k-th box it was built from, the shape knn and join consume.
// The cell map is built on the first Candidates call, so a caller that
// only reads boxes and MinDist (knn) never pays for it. An Index is safe
// for concurrent use.
type Index struct {
	m     *metric
	boxes []MBR

	once  sync.Once
	cells map[cellKey][]int
	over  []int // oversize, polar or non-finite MBRs: always scanned
}

// NewIndex indexes boxes by position under the ground distance df; nil
// selects geo.Haversine. Under an unrecognized distance the index never
// prunes: MinDist is 0 and Candidates returns every id. The index keeps
// boxes, which the caller must not modify afterwards.
func NewIndex(boxes []MBR, df geo.DistanceFunc) *Index {
	return &Index{m: metricFor(df), boxes: boxes}
}

// BuildIndex indexes a trajectory slice by position. Nil or empty
// trajectories are rejected (the searches reject them anyway; an index
// must not silently drop them).
func BuildIndex(ts []*traj.Trajectory, df geo.DistanceFunc) (*Index, error) {
	boxes := make([]MBR, len(ts))
	for i, t := range ts {
		if t == nil || t.Len() == 0 {
			return nil, fmt.Errorf("spatial: nil or empty trajectory at index %d", i)
		}
		boxes[i] = Bound(t.Points)
	}
	return NewIndex(boxes, df), nil
}

// Boxes returns the indexed MBRs by position. The slice is the index's
// own and must not be modified.
func (ix *Index) Boxes() []MBR { return ix.boxes }

// MinDist lower-bounds the index's ground distance between two boxes;
// zero (never prunes) when the distance is unrecognized.
func (ix *Index) MinDist(a, b MBR) float64 {
	if ix.m == nil {
		return 0
	}
	return ix.m.minDist(a, b)
}

// cellRange returns the inclusive cell coordinates covering [lo, hi].
func cellRange(lo, hi float64) (int32, int32) {
	return int32(math.Floor(lo / DefaultCell)), int32(math.Floor(hi / DefaultCell))
}

// within reports lo ≤ v ≤ hi; false for NaN.
func within(v, lo, hi float64) bool { return v >= lo && v <= hi }

// coverage enumerates the cells an MBR occupies; returns false when the
// MBR belongs in the overflow list: too many cells, polar, inverted, or
// outside the grid's longitude range (non-finite included).
func coverage(m MBR, lngLimit float64, visit func(cellKey)) bool {
	if !within(m.MinLat, -polarCutoffDeg, m.MaxLat) || !within(m.MaxLat, m.MinLat, polarCutoffDeg) ||
		!within(m.MinLng, -lngLimit, m.MaxLng) || !within(m.MaxLng, m.MinLng, lngLimit) {
		return false
	}
	la0, la1 := cellRange(m.MinLat, m.MaxLat)
	lo0, lo1 := cellRange(m.MinLng, m.MaxLng)
	if (int64(la1-la0)+1)*(int64(lo1-lo0)+1) > DefaultMaxCover {
		return false
	}
	for la := la0; la <= la1; la++ {
		for lo := lo0; lo <= lo1; lo++ {
			visit(cellKey{la, lo})
		}
	}
	return true
}

// buildCells files every box under the cells it covers, or in the
// overflow list; ids land in ascending order in both.
func (ix *Index) buildCells() {
	ix.cells = make(map[cellKey][]int)
	for id, m := range ix.boxes {
		if !coverage(m, ix.m.lngLimit, func(k cellKey) { ix.cells[k] = append(ix.cells[k], id) }) {
			ix.over = append(ix.over, id)
		}
	}
}

// all returns every id in ascending order.
func (ix *Index) all() []int {
	out := make([]int, len(ix.boxes))
	for i := range out {
		out[i] = i
	}
	return out
}

// Candidates returns, in ascending id order, a superset of every indexed
// id whose MinDist to q is at most radius. A negative radius returns
// nil; a non-finite radius or an unrecognized ground distance degrade to
// "every id" — still a correct superset, just unpruned.
func (ix *Index) Candidates(q MBR, radius float64) []int {
	if radius < 0 || len(ix.boxes) == 0 {
		return nil
	}
	if ix.m == nil || math.IsInf(radius, 0) || radius != radius {
		return ix.all()
	}
	latPad, lngPad := ix.m.window(q, radius)
	if math.IsNaN(latPad) || math.IsNaN(lngPad) || math.IsInf(latPad, 0) || math.IsInf(lngPad, 0) ||
		!within(q.MinLng, -ix.m.lngLimit, q.MaxLng) || !within(q.MaxLng, q.MinLng, ix.m.lngLimit) {
		return ix.all()
	}
	ix.once.Do(ix.buildCells)

	// Every grid-filed box lies within ±polarCutoffDeg of latitude and
	// ±lngLimit of longitude, so clipping the window to those ranges
	// (which also keeps cell coordinates inside int32) loses none.
	latLo, latHi := math.Max(q.MinLat-latPad, -polarCutoffDeg), math.Min(q.MaxLat+latPad, polarCutoffDeg)
	if latLo > latHi {
		return append([]int(nil), ix.over...)
	}
	la0, la1 := cellRange(latLo, latHi)
	// A cyclic longitude window wraps at ±180: split it into at most two
	// plain intervals over the stored coordinate range. A planar one is
	// a single interval.
	lo, hi := q.MinLng-lngPad, q.MaxLng+lngPad
	parts := [][2]float64{{math.Max(lo, -ix.m.lngLimit), math.Min(hi, ix.m.lngLimit)}}
	if ix.m.cyclic {
		parts = lngWindows(lo, hi)
	}
	var cellParts [][2]int32
	var window int64
	for _, p := range parts {
		if p[0] > p[1] {
			continue
		}
		lo0, lo1 := cellRange(p[0], p[1])
		cellParts = append(cellParts, [2]int32{lo0, lo1})
		window += (int64(la1-la0) + 1) * (int64(lo1-lo0) + 1)
	}

	out := append([]int(nil), ix.over...)
	// Visit window cells directly when that is cheaper than filtering
	// the whole resident cell set; both strategies produce the same set.
	if window > int64(len(ix.cells)) {
		for k, ids := range ix.cells {
			if k.lat < la0 || k.lat > la1 {
				continue
			}
			for _, cp := range cellParts {
				if k.lng >= cp[0] && k.lng <= cp[1] {
					out = append(out, ids...)
					break
				}
			}
		}
	} else {
		for la := la0; la <= la1; la++ {
			for _, cp := range cellParts {
				for lo := cp[0]; lo <= cp[1]; lo++ {
					out = append(out, ix.cells[cellKey{la, lo}]...)
				}
			}
		}
	}
	// A box covering several window cells is collected once per cell.
	slices.Sort(out)
	return slices.Compact(out)
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
