package bounds

import (
	"math"
	"math/rand"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

func randPoints(r *rand.Rand, n int) []geo.Point {
	pts := make([]geo.Point, n)
	x, y := 0.0, 0.0
	for i := range pts {
		x += r.Float64()*2 - 1
		y += r.Float64()*2 - 1
		pts[i] = geo.Point{Lng: x, Lat: y}
	}
	return pts
}

// exactDFD computes the DFD of the candidate (i,ie,j,je) over the
// Euclidean grid of a and b from the point sub-slices, serving as the
// ground truth for bound soundness tests.
func exactDFD(a, b []geo.Point, i, ie, j, je int) float64 {
	return dist.DFD(a[i:ie+1], b[j:je+1], geo.Euclidean)
}

func TestSlidingMax(t *testing.T) {
	vals := []float64{3, 1, 4, 1, 5, 9, 2, 6}
	got := slidingMax(vals, 3)
	want := []float64{4, 4, 5, 9, 9, 9, 6, 6}
	for k := range want {
		if got[k] != want[k] {
			t.Errorf("slidingMax[%d] = %g, want %g", k, got[k], want[k])
		}
	}
	// Window 1 is the identity (same backing array).
	if id := slidingMax(vals, 1); &id[0] != &vals[0] {
		t.Error("window 1 should alias input")
	}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 50; trial++ {
		n := 1 + r.Intn(40)
		w := 1 + r.Intn(10)
		v := make([]float64, n)
		for i := range v {
			v[i] = r.Float64()
		}
		got := slidingMax(v, w)
		for k := 0; k < n; k++ {
			want := math.Inf(-1)
			for x := k; x < k+w && x < n; x++ {
				want = math.Max(want, v[x])
			}
			if got[k] != want {
				t.Fatalf("trial %d: slidingMax[%d] = %g, want %g (w=%d)", trial, k, got[k], want, w)
			}
		}
	}
}

func TestRelaxedArrayDefinitions(t *testing.T) {
	// Hand-checkable 6x6 self grid. Row r = point index of leg A; the grid
	// is symmetric with zero diagonal like a real self distance matrix.
	pts := randPoints(rand.New(rand.NewSource(42)), 6)
	g := dmatrix.ComputeSelf(pts, geo.Euclidean)
	xi := 1
	p := PointParams(xi, true)
	r := NewRelaxed(g, p)

	n, m := g.Dims()
	for i := 0; i < n; i++ {
		want := math.Inf(1)
		for j := i + p.CrossSep; j < m; j++ {
			want = math.Min(want, g.At(i+1, j))
		}
		if i+1 >= n || math.IsInf(want, 1) {
			if r.Cmin[i] != NoBound {
				t.Errorf("Cmin[%d] = %g, want NoBound", i, r.Cmin[i])
			}
		} else if math.Abs(r.Cmin[i]-want) > 1e-12 {
			t.Errorf("Cmin[%d] = %g, want %g", i, r.Cmin[i], want)
		}
	}
	for j := 0; j < m; j++ {
		want := math.Inf(1)
		for i := 0; i <= j-p.BackSep && i < n; i++ {
			want = math.Min(want, g.At(i, j+1))
		}
		if j+1 >= m || math.IsInf(want, 1) {
			if r.Rmin[j] != NoBound {
				t.Errorf("Rmin[%d] = %g, want NoBound", j, r.Rmin[j])
			}
		} else if math.Abs(r.Rmin[j]-want) > 1e-12 {
			t.Errorf("Rmin[%d] = %g, want %g", j, r.Rmin[j], want)
		}
	}
}

// TestBoundSoundnessSelf is the central property: for random self grids
// and every feasible candidate, relaxed LB <= tight LB components and
// every LB <= exact DFD (no false negatives, §4.3).
func TestBoundSoundnessSelf(t *testing.T) {
	r := rand.New(rand.NewSource(6))
	for trial := 0; trial < 25; trial++ {
		n := 14 + r.Intn(12)
		xi := 1 + r.Intn(3)
		pts := randPoints(r, n)
		g := dmatrix.ComputeSelf(pts, geo.Euclidean)
		rb := NewRelaxed(g, PointParams(xi, true))
		tb := NewTight(g, xi, true)

		for i := 0; i <= n-2*xi-4; i++ {
			for j := i + xi + 2; j <= n-xi-2; j++ {
				tightLB := tb.SubsetLB(i, j)
				relaxedLB := rb.SubsetLB(g.At(i, j), i, j)
				if relaxedLB > tightLB+1e-9 {
					t.Fatalf("n=%d xi=%d (%d,%d): relaxed %g > tight %g", n, xi, i, j, relaxedLB, tightLB)
				}
				// Check soundness against a few random feasible candidates.
				for k := 0; k < 3; k++ {
					ie := i + xi + 1 + r.Intn(j-i-xi-1)
					je := j + xi + 1 + r.Intn(n-j-xi-1)
					d := exactDFD(pts, pts, i, ie, j, je)
					if tightLB > d+1e-9 {
						t.Fatalf("tight LB %g > DFD %g for (%d,%d,%d,%d), n=%d xi=%d",
							tightLB, d, i, ie, j, je, n, xi)
					}
					if relaxedLB > d+1e-9 {
						t.Fatalf("relaxed LB %g > DFD %g for (%d,%d,%d,%d), n=%d xi=%d",
							relaxedLB, d, i, ie, j, je, n, xi)
					}
					// End-cross: candidates strictly beyond (ie, je) are
					// bounded by EndCross(ie', je') for any ie' < ie, je' < je
					// visited on the way. Spot-check the direct form.
					if ie > i+1 && je > j+1 {
						ec := rb.EndCross(ie-1, je-1)
						if ec > d+1e-9 {
							t.Fatalf("end-cross %g > DFD %g for (%d,%d,%d,%d)", ec, d, i, ie, j, je)
						}
					}
				}
			}
		}
	}
}

// TestBoundSoundnessCross repeats the soundness property for the
// two-trajectory variant, where no ordering constraint applies.
func TestBoundSoundnessCross(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n, m := 10+r.Intn(8), 10+r.Intn(8)
		xi := 1 + r.Intn(3)
		if n < xi+3 || m < xi+3 {
			continue
		}
		a, b := randPoints(r, n), randPoints(r, m)
		g := dmatrix.ComputeCross(a, b, geo.Euclidean)
		rb := NewRelaxed(g, PointParams(xi, false))
		tb := NewTight(g, xi, false)

		for i := 0; i <= n-xi-2; i++ {
			for j := 0; j <= m-xi-2; j++ {
				tightLB := tb.SubsetLB(i, j)
				relaxedLB := rb.SubsetLB(g.At(i, j), i, j)
				if relaxedLB > tightLB+1e-9 {
					t.Fatalf("(%d,%d): relaxed %g > tight %g", i, j, relaxedLB, tightLB)
				}
				ie := i + xi + 1 + r.Intn(n-i-xi-1)
				je := j + xi + 1 + r.Intn(m-j-xi-1)
				d := exactDFD(a, b, i, ie, j, je)
				if tightLB > d+1e-9 {
					t.Fatalf("tight LB %g > DFD %g for (%d,%d,%d,%d)", tightLB, d, i, ie, j, je)
				}
			}
		}
	}
}

// TestCellBoundIsStartDistance pins Eq. (1): LBcell is exactly the
// start-cell ground distance, the first value on every coupling path.
func TestCellBoundIsStartDistance(t *testing.T) {
	g := dmatrix.FromRows([][]float64{
		{0, 2, 8, 9, 7},
		{2, 0, 3, 8, 9},
		{8, 3, 0, 2, 7},
		{9, 8, 2, 0, 3},
		{7, 9, 7, 3, 0},
	})
	tb := NewTight(g, 1, true)
	if got := tb.Cell(0, 3); got != 9 {
		t.Errorf("Cell(0,3) = %g, want 9", got)
	}
	// The candidate (0..1, 3..4) swept through the kernel's row
	// primitives over its grid window.
	prev, cur := make([]float64, 2), make([]float64, 2)
	dist.DFDBoundaryRow(g.Row(0)[3:5], prev)
	dist.DFDRelaxRow(g.Row(1)[3:5], prev, cur)
	if d := cur[1]; d < 9 {
		t.Errorf("DFD %g below LBcell 9", d)
	}
}

func TestGroupParams(t *testing.T) {
	p := GroupParams(100, 32, true)
	if p.Window != 3 { // floor(101/32)
		t.Errorf("Window = %d, want 3", p.Window)
	}
	if p.CrossSep != 3 { // floor(102/32)
		t.Errorf("CrossSep = %d, want 3", p.CrossSep)
	}
	if !p.UseCross {
		t.Error("cross bound should be enabled when window >= 1")
	}
	// When a whole leg fits in one group, cross bounds must be disabled.
	p = GroupParams(5, 32, true)
	if p.UseCross || p.Window != 0 {
		t.Errorf("expected disabled cross/band for tau >> xi, got %+v", p)
	}
	if p.BandSep < 0 {
		t.Errorf("BandSep must be clamped at 0, got %d", p.BandSep)
	}
}

func TestFlyMatchesMatrix(t *testing.T) {
	r := rand.New(rand.NewSource(8))
	pts := randPoints(r, 20)
	m := dmatrix.ComputeSelf(pts, geo.Euclidean)
	f := dmatrix.NewFlySelf(pts, geo.Euclidean)
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			if math.Abs(m.At(i, j)-f.At(i, j)) > 1e-12 {
				t.Fatalf("Fly and Matrix disagree at (%d,%d)", i, j)
			}
		}
	}
	// Relaxed bounds built on either grid must coincide.
	rm := NewRelaxed(m, PointParams(2, true))
	rf := NewRelaxed(f, PointParams(2, true))
	for i := range rm.Cmin {
		if math.Abs(rm.Cmin[i]-rf.Cmin[i]) > 1e-12 {
			t.Fatalf("Cmin[%d] differs between grids", i)
		}
	}
}

func TestSubsetLBNoBoundHandling(t *testing.T) {
	// A grid too small for any band/cross info must still return the cell
	// bound rather than a poisoned value.
	g := dmatrix.FromRows([][]float64{{0, 5}, {5, 0}})
	r := NewRelaxed(g, PointParams(3, true))
	if lb := r.SubsetLB(5, 0, 1); lb != 5 {
		t.Errorf("SubsetLB = %g, want 5 (cell only)", lb)
	}
}

func TestBytesAccounting(t *testing.T) {
	pts := randPoints(rand.New(rand.NewSource(9)), 50)
	g := dmatrix.ComputeSelf(pts, geo.Euclidean)
	if got, want := g.Bytes(), int64(50*50*8); got != want {
		t.Errorf("Matrix.Bytes = %d, want %d", got, want)
	}
	r := NewRelaxed(g, PointParams(4, true))
	if r.Bytes() <= 0 {
		t.Error("Relaxed.Bytes should be positive")
	}
}
