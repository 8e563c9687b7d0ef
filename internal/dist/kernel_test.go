package dist_test

// Cross-package equivalence and property tests for the canonical DFD
// kernel: every public entry point — point form, capped form, decision
// form, windowed-grid form, and the row primitives that
// internal/core and internal/group compose — must agree on the same
// inputs. This suite is what pins every caller in the tree to one
// recurrence.

import (
	"math"
	"math/rand"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// TestKernelCrossPackageEquivalence asserts that all exact entry points
// compute the same value to 1e-12 on randomized trajectories: the fused
// point kernel, the full-table oracle, the windowed form over a
// dmatrix.Matrix (the shape internal/bounds and internal/group consume),
// and the capped form with an infinite cap.
func TestKernelCrossPackageEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(14), 0, 0)
		b := randWalk(r, 1+r.Intn(14), r.Float64()*4, r.Float64()*4)

		want := dist.DFD(a, b, geo.Euclidean)

		dp := dist.DFDMatrix(a, b, geo.Euclidean)
		if got := dp[len(a)-1][len(b)-1]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("DFDMatrix = %g, DFD = %g", got, want)
		}
		m := dmatrix.ComputeCross(a, b, geo.Euclidean)
		got, exceeded := dist.DFDFromGridCapped(m, 0, len(a)-1, 0, len(b)-1, math.Inf(1))
		if exceeded || math.Abs(got-want) > 1e-12 {
			t.Fatalf("DFDFromGridCapped = %g (exceeded=%v), DFD = %g", got, exceeded, want)
		}
		got, exceeded = dist.DFDCapped(a, b, geo.Euclidean, math.Inf(1))
		if exceeded || math.Abs(got-want) > 1e-12 {
			t.Fatalf("DFDCapped(+Inf) = %g (exceeded=%v), DFD = %g", got, exceeded, want)
		}
	}
}

// TestDFDDecisionEquivalence sweeps eps across and around the exact
// distance — including the exact boundary value, where DFD <= eps flips —
// and requires DFDDecision to agree with the exact comparison everywhere.
func TestDFDDecisionEquivalence(t *testing.T) {
	r := rand.New(rand.NewSource(62))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(12), 0, 0)
		b := randWalk(r, 1+r.Intn(12), r.Float64()*4, r.Float64()*4)
		d := dist.DFD(a, b, geo.Euclidean)

		sweep := []float64{
			0, d * 0.25, d * 0.5, math.Nextafter(d, 0), d,
			math.Nextafter(d, math.Inf(1)), d * 1.5, d * 4, -1,
		}
		for _, eps := range sweep {
			want := d <= eps
			if got := dist.DFDDecision(a, b, geo.Euclidean, eps); got != want {
				t.Fatalf("DFDDecision(eps=%g) = %v, want %v (DFD=%g, n=%d, m=%d)",
					eps, got, want, d, len(a), len(b))
			}
		}
	}
}

// TestDFDCappedProperties pins the capped contract:
//   - exceeded == false means the value equals the exact DFD;
//   - exceeded == true means the value is a valid lower bound on the
//     exact DFD and is at least the cap;
//   - a +Inf cap degrades to the exact computation;
//   - a cap strictly above the distance never abandons.
func TestDFDCappedProperties(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(12), 0, 0)
		b := randWalk(r, 1+r.Intn(12), r.Float64()*5, r.Float64()*5)
		exact := dist.DFD(a, b, geo.Euclidean)

		if d, ex := dist.DFDCapped(a, b, geo.Euclidean, math.Inf(1)); ex || d != exact {
			t.Fatalf("+Inf cap: got %g (exceeded=%v), want exact %g", d, ex, exact)
		}
		if d, ex := dist.DFDCapped(a, b, geo.Euclidean, exact*1.5+1); ex || d != exact {
			t.Fatalf("loose cap: got %g (exceeded=%v), want exact %g", d, ex, exact)
		}
		for _, cap := range []float64{0, exact * 0.25, exact * 0.75, exact} {
			d, ex := dist.DFDCapped(a, b, geo.Euclidean, cap)
			if ex {
				if d < cap {
					t.Fatalf("cap %g: abandoned below the cap with %g", cap, d)
				}
				if d > exact {
					t.Fatalf("cap %g: partial %g is not a lower bound on %g", cap, d, exact)
				}
			} else if d != exact {
				t.Fatalf("cap %g: completed with %g, want exact %g", cap, d, exact)
			}
		}
	}
}

// TestDFDFromGridCappedWindows pins the windowed form's indexing: every
// random sub-window of a shared matrix must match the DFD of the copied
// sub-grid and of the corresponding point slices.
func TestDFDFromGridCappedWindows(t *testing.T) {
	r := rand.New(rand.NewSource(64))
	a := randWalk(r, 14, 0, 0)
	b := randWalk(r, 11, 1, 1)
	m := dmatrix.ComputeCross(a, b, geo.Euclidean)
	for trial := 0; trial < 200; trial++ {
		i0 := r.Intn(len(a))
		i1 := i0 + r.Intn(len(a)-i0)
		j0 := r.Intn(len(b))
		j1 := j0 + r.Intn(len(b)-j0)

		got, exceeded := dist.DFDFromGridCapped(m, i0, i1, j0, j1, math.Inf(1))
		if exceeded {
			t.Fatalf("window (%d..%d)x(%d..%d) exceeded an infinite cap", i0, i1, j0, j1)
		}
		want := dist.DFD(a[i0:i1+1], b[j0:j1+1], geo.Euclidean)
		if math.Abs(got-want) > 1e-12 {
			t.Fatalf("window (%d..%d)x(%d..%d) = %g, point form %g", i0, i1, j0, j1, got, want)
		}
	}
}

// TestDFDRowPrimitivesCompose drives the exported row primitives the way
// internal/core's subset sweep does — boundary row, then per-row boundary
// column + relax — and requires the composition to reproduce DFD and its
// row-minimum lower-bound guarantee.
func TestDFDRowPrimitivesCompose(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for trial := 0; trial < 100; trial++ {
		a := randWalk(r, 2+r.Intn(10), 0, 0)
		b := randWalk(r, 2+r.Intn(10), r.Float64()*3, r.Float64()*3)
		g := dmatrix.ComputeCross(a, b, geo.Euclidean)
		n, m := g.Dims()

		want := dist.DFD(a, b, geo.Euclidean)
		prev := make([]float64, m)
		cur := make([]float64, m)
		dist.DFDBoundaryRow(g.Row(0), prev)
		colMax := prev[0]
		for i := 1; i < n; i++ {
			if d := g.At(i, 0); d > colMax {
				colMax = d
			}
			cur[0] = colMax
			rowMin := dist.DFDRelaxRow(g.Row(i), prev, cur)
			if rowMin > want+1e-12 {
				t.Fatalf("row %d minimum %g exceeds final DFD %g", i, rowMin, want)
			}
			prev, cur = cur, prev
		}
		if got := prev[m-1]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("composed primitives = %g, DFD = %g", got, want)
		}
	}
}

// TestKernelDegenerateConventions pins the empty-input conventions of the
// new entry points against DFD's.
func TestKernelDegenerateConventions(t *testing.T) {
	var empty []geo.Point
	one := []geo.Point{{Lng: 1}}

	if d, ex := dist.DFDCapped(empty, empty, geo.Euclidean, 5); d != 0 || ex {
		t.Errorf("DFDCapped(empty, empty) = %g, %v; want 0, false", d, ex)
	}
	if d, ex := dist.DFDCapped(empty, one, geo.Euclidean, 5); !math.IsInf(d, 1) || ex {
		t.Errorf("DFDCapped(empty, a) = %g, %v; want +Inf, false", d, ex)
	}
	if !dist.DFDDecision(empty, empty, geo.Euclidean, 0) {
		t.Error("DFDDecision(empty, empty, 0) = false, want true (distance 0)")
	}
	if dist.DFDDecision(empty, empty, geo.Euclidean, -1) {
		t.Error("DFDDecision(empty, empty, -1) = true, want false")
	}
	if dist.DFDDecision(empty, one, geo.Euclidean, 100) {
		t.Error("DFDDecision(empty, a) = true, want false")
	}
	// Windowed degenerate conventions mirror the grid form's.
	m := dmatrix.ComputeCross(one, one, geo.Euclidean)
	if d, _ := dist.DFDFromGridCapped(m, 1, 0, 1, 0, math.Inf(1)); d != 0 {
		t.Errorf("empty-by-empty window = %g, want 0", d)
	}
	if d, _ := dist.DFDFromGridCapped(m, 0, 0, 1, 0, math.Inf(1)); !math.IsInf(d, 1) {
		t.Errorf("rows-by-no-columns window = %g, want +Inf", d)
	}
}
