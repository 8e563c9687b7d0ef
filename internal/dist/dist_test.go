package dist_test

import (
	"math"
	"math/rand"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
)

// randWalk produces a jittery planar walk starting near (x0, y0), the same
// shape the join and knn tests use for randomized cross-checks.
func randWalk(r *rand.Rand, n int, x0, y0 float64) []geo.Point {
	pts := make([]geo.Point, n)
	x, y := x0, y0
	for i := range pts {
		x += r.Float64()*2 - 1
		y += r.Float64()*2 - 1
		pts[i] = geo.Point{Lng: x, Lat: y}
	}
	return pts
}

// Golden pair: a is four collinear points on the x-axis, b runs parallel
// at height 1 except for a spike to height 2 at x=2. Every coupling must
// match the spike to some a point, all of which are at least 2 away, and
// the diagonal coupling achieves exactly max(1,1,2,1) = 2.
var (
	goldenA = []geo.Point{{Lng: 0}, {Lng: 1}, {Lng: 2}, {Lng: 3}}
	goldenB = []geo.Point{{Lng: 0, Lat: 1}, {Lng: 1, Lat: 1}, {Lng: 2, Lat: 2}, {Lng: 3, Lat: 1}}
)

func TestDFDGolden(t *testing.T) {
	if d := dist.DFD(goldenA, goldenB, geo.Euclidean); math.Abs(d-2) > 1e-12 {
		t.Errorf("DFD = %g, want 2", d)
	}
	// Identical sequences are at distance 0.
	if d := dist.DFD(goldenA, goldenA, geo.Euclidean); d != 0 {
		t.Errorf("DFD(a, a) = %g, want 0", d)
	}
	// Single points reduce to the ground distance.
	if d := dist.DFD(goldenA[:1], goldenB[:1], geo.Euclidean); math.Abs(d-1) > 1e-12 {
		t.Errorf("DFD of single points = %g, want 1", d)
	}
}

func TestDTWGolden(t *testing.T) {
	// Diagonal coupling sums 1+1+2+1 = 5; every coupling has at least four
	// pairs each >= 1 with the spike pair >= 2, so 5 is optimal.
	if d := dist.DTW(goldenA, goldenB, geo.Euclidean); math.Abs(d-5) > 1e-12 {
		t.Errorf("DTW = %g, want 5", d)
	}
	if d := dist.DTW(goldenA, goldenA, geo.Euclidean); d != 0 {
		t.Errorf("DTW(a, a) = %g, want 0", d)
	}
}

func TestEDGolden(t *testing.T) {
	// Lock-step distances are 1, 1, 2, 1; the mean is 1.25.
	d, err := dist.ED(goldenA, goldenB, geo.Euclidean)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(d-1.25) > 1e-12 {
		t.Errorf("ED = %g, want 1.25", d)
	}
	if _, err := dist.ED(goldenA, goldenB[:3], geo.Euclidean); err == nil {
		t.Error("ED must error on a length mismatch")
	}
}

func TestEDRGolden(t *testing.T) {
	a := []geo.Point{{Lng: 0}, {Lng: 1}, {Lng: 2}}
	b := []geo.Point{{Lng: 0}, {Lng: 5}}
	// a[0] matches b[0]; (5,0) matches nothing, so one substitution plus
	// one deletion turns a into b.
	if got := dist.EDR(a, b, geo.Euclidean, 0.5); got != 2 {
		t.Errorf("EDR = %d, want 2", got)
	}
	if got := dist.EDR(a, a, geo.Euclidean, 0); got != 0 {
		t.Errorf("EDR(a, a) = %d, want 0", got)
	}
}

func TestLCSSGolden(t *testing.T) {
	a := []geo.Point{{Lng: 0}, {Lng: 1}, {Lng: 2}}
	b := []geo.Point{{Lng: 0}, {Lng: 5}}
	if got := dist.LCSS(a, b, geo.Euclidean, 0.5); got != 1 {
		t.Errorf("LCSS = %d, want 1", got)
	}
	if got := dist.LCSSDistance(a, b, geo.Euclidean, 0.5); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("LCSSDistance = %g, want 0.5", got)
	}
	if got := dist.LCSS(a, a, geo.Euclidean, 0); got != len(a) {
		t.Errorf("LCSS(a, a) = %d, want %d", got, len(a))
	}
	if got := dist.LCSSDistance(a, a, geo.Euclidean, 0); got != 0 {
		t.Errorf("LCSSDistance(a, a) = %g, want 0", got)
	}
}

func TestEmptySequenceConventions(t *testing.T) {
	var empty []geo.Point
	if d := dist.DFD(empty, empty, geo.Euclidean); d != 0 {
		t.Errorf("DFD(empty, empty) = %g, want 0", d)
	}
	if d := dist.DFD(empty, goldenA, geo.Euclidean); !math.IsInf(d, 1) {
		t.Errorf("DFD(empty, a) = %g, want +Inf", d)
	}
	if d := dist.DTW(goldenA, empty, geo.Euclidean); !math.IsInf(d, 1) {
		t.Errorf("DTW(a, empty) = %g, want +Inf", d)
	}
	if d, err := dist.ED(empty, empty, geo.Euclidean); err != nil || d != 0 {
		t.Errorf("ED(empty, empty) = %g, %v, want 0, nil", d, err)
	}
	if got := dist.EDR(empty, goldenA, geo.Euclidean, 1); got != len(goldenA) {
		t.Errorf("EDR(empty, a) = %d, want %d", got, len(goldenA))
	}
	if got := dist.LCSS(empty, goldenA, geo.Euclidean, 1); got != 0 {
		t.Errorf("LCSS(empty, a) = %d, want 0", got)
	}
	if got := dist.LCSSDistance(empty, empty, geo.Euclidean, 1); got != 0 {
		t.Errorf("LCSSDistance(empty, empty) = %g, want 0", got)
	}
	if got := dist.LCSSDistance(empty, goldenA, geo.Euclidean, 1); got != 1 {
		t.Errorf("LCSSDistance(empty, a) = %g, want 1", got)
	}
	if m := dist.DFDMatrix(empty, goldenA, geo.Euclidean); m != nil {
		t.Errorf("DFDMatrix with an empty input = %v, want nil", m)
	}
}

func TestSymmetry(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 50; trial++ {
		a := randWalk(r, 2+r.Intn(12), 0, 0)
		b := randWalk(r, 2+r.Intn(12), r.Float64()*3, r.Float64()*3)
		eps := 0.5 + r.Float64()*2
		if x, y := dist.DFD(a, b, geo.Euclidean), dist.DFD(b, a, geo.Euclidean); x != y {
			t.Fatalf("DFD asymmetric: %g vs %g", x, y)
		}
		if x, y := dist.DTW(a, b, geo.Euclidean), dist.DTW(b, a, geo.Euclidean); x != y {
			t.Fatalf("DTW asymmetric: %g vs %g", x, y)
		}
		if x, y := dist.EDR(a, b, geo.Euclidean, eps), dist.EDR(b, a, geo.Euclidean, eps); x != y {
			t.Fatalf("EDR asymmetric: %d vs %d", x, y)
		}
		if x, y := dist.LCSS(a, b, geo.Euclidean, eps), dist.LCSS(b, a, geo.Euclidean, eps); x != y {
			t.Fatalf("LCSS asymmetric: %d vs %d", x, y)
		}
	}
}

// TestDFDEndpointLowerBound pins the endpoint rule every pruning filter
// relies on: any coupling pairs first with first and last with last, so
// DFD >= max of those two ground distances.
func TestDFDEndpointLowerBound(t *testing.T) {
	r := rand.New(rand.NewSource(12))
	for trial := 0; trial < 100; trial++ {
		a := randWalk(r, 2+r.Intn(15), 0, 0)
		b := randWalk(r, 2+r.Intn(15), r.Float64()*4, r.Float64()*4)
		d := dist.DFD(a, b, geo.Euclidean)
		lb := math.Max(geo.Euclidean(a[0], b[0]), geo.Euclidean(a[len(a)-1], b[len(b)-1]))
		if d < lb-1e-12 {
			t.Fatalf("DFD %g below endpoint bound %g", d, lb)
		}
	}
}

// TestDFDAgreesWithDecisionProcedure cross-checks the exact distance
// against the early-abandoning decision DP: the decision at eps must
// equal DFD <= eps (the equivalence every decision caller relies on; the
// wider eps sweeps live in kernel_test.go).
func TestDFDAgreesWithDecisionProcedure(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	for trial := 0; trial < 100; trial++ {
		a := randWalk(r, 3+r.Intn(12), 0, 0)
		b := randWalk(r, 3+r.Intn(12), r.Float64()*4, r.Float64()*4)
		d := dist.DFD(a, b, geo.Euclidean)
		for _, eps := range []float64{d * 0.5, d, d + 1e-9, d * 1.5} {
			want := d <= eps
			if got := dist.DFDDecision(a, b, geo.Euclidean, eps); got != want {
				t.Fatalf("DFDDecision(eps=%g) = %v, DFD = %g wants %v", eps, got, d, want)
			}
		}
	}
}

// TestMeasureRelations checks the sanity inequalities tying the measures
// together: the bottleneck never exceeds the sum (DFD <= DTW), the sum
// over any coupling of at most n+m-1 pairs is bounded by the bottleneck
// (DTW <= (n+m-1)·DFD), EDR respects its Levenshtein range, and LCSS
// never exceeds the shorter length.
func TestMeasureRelations(t *testing.T) {
	r := rand.New(rand.NewSource(14))
	for trial := 0; trial < 100; trial++ {
		n, m := 2+r.Intn(15), 2+r.Intn(15)
		a := randWalk(r, n, 0, 0)
		b := randWalk(r, m, r.Float64()*3, r.Float64()*3)
		eps := 0.5 + r.Float64()*2

		dfd := dist.DFD(a, b, geo.Euclidean)
		dtw := dist.DTW(a, b, geo.Euclidean)
		if dfd > dtw+1e-12 {
			t.Fatalf("DFD %g > DTW %g", dfd, dtw)
		}
		if dtw > float64(n+m-1)*dfd+1e-9 {
			t.Fatalf("DTW %g > (n+m-1)·DFD = %g", dtw, float64(n+m-1)*dfd)
		}

		edr := dist.EDR(a, b, geo.Euclidean, eps)
		if edr < abs(n-m) || edr > max(n, m) {
			t.Fatalf("EDR %d outside [|n-m|, max(n,m)] = [%d, %d]", edr, abs(n-m), max(n, m))
		}

		lcss := dist.LCSS(a, b, geo.Euclidean, eps)
		if lcss < 0 || lcss > min(n, m) {
			t.Fatalf("LCSS %d outside [0, min(n,m)] = [0, %d]", lcss, min(n, m))
		}
		// An alignment with k edits eps-matches at least max(n,m)-k pairs,
		// and those pairs form a common subsequence, so EDR >= max(n,m)-LCSS.
		if edr < max(n, m)-lcss {
			t.Fatalf("EDR %d < max(n,m) - LCSS = %d", edr, max(n, m)-lcss)
		}

		ld := dist.LCSSDistance(a, b, geo.Euclidean, eps)
		if ld < 0 || ld > 1 {
			t.Fatalf("LCSSDistance %g outside [0,1]", ld)
		}
	}
}

// TestDFDMatrixPrefixes checks that every cell of the full table is the
// DFD of the corresponding prefixes, making the matrix form a drop-in
// oracle for the rolling-rows implementation.
func TestDFDMatrixPrefixes(t *testing.T) {
	r := rand.New(rand.NewSource(15))
	a := randWalk(r, 8, 0, 0)
	b := randWalk(r, 6, 1, 1)
	dp := dist.DFDMatrix(a, b, geo.Euclidean)
	for i := range dp {
		for j := range dp[i] {
			want := dist.DFD(a[:i+1], b[:j+1], geo.Euclidean)
			if math.Abs(dp[i][j]-want) > 1e-12 {
				t.Fatalf("dp[%d][%d] = %g, want prefix DFD %g", i, j, dp[i][j], want)
			}
		}
	}
}

// TestHaversineGround runs the measures under the geographic ground
// distance to pin the unit contract: results are meters.
func TestHaversineGround(t *testing.T) {
	// Two parallel east-west tracks ~111 m apart (0.001° of latitude).
	a := make([]geo.Point, 5)
	b := make([]geo.Point, 5)
	for i := range a {
		a[i] = geo.Point{Lat: 40, Lng: 116 + float64(i)*0.001}
		b[i] = geo.Point{Lat: 40.001, Lng: 116 + float64(i)*0.001}
	}
	sep := geo.Haversine(a[0], b[0])
	d := dist.DFD(a, b, geo.Haversine)
	if math.Abs(d-sep) > 1e-6 {
		t.Errorf("DFD of parallel tracks = %g m, want separation %g m", d, sep)
	}
	ed, err := dist.ED(a, b, geo.Haversine)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(ed-sep) > 1e-6 {
		t.Errorf("ED of parallel tracks = %g m, want %g m", ed, sep)
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
