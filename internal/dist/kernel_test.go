package dist_test

// Cross-package equivalence and property tests for the canonical DFD
// kernel: every public entry point — point form, capped form, decision
// form, and the row primitives that internal/core and internal/group
// compose over grid rows — must agree on the same inputs, and with the
// independently coded DFDMatrix oracle. This suite is what pins every
// caller in the tree to one recurrence.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// TestKernelCrossPackageEquivalence asserts that all exact entry points
// compute the same value to 1e-12 on randomized trajectories: the fused
// point kernel, the full-table oracle, the row primitives swept over a
// dmatrix.Matrix (the shape internal/core and internal/group consume),
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
		rows := sweepRows(dmatrix.ComputeCross(a, b, geo.Euclidean), 0, 0)
		if got := rows[len(a)-1][len(b)-1]; math.Abs(got-want) > 1e-12 {
			t.Fatalf("row primitives over the matrix = %g, DFD = %g", got, want)
		}
		got, exceeded := dist.DFDCapped(a, b, geo.Euclidean, math.Inf(1))
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
//   - (DFD, false) exactly when DFD < cap, bit for bit;
//   - (cap, true) otherwise, so the value is a lower bound at the cap;
//   - a +Inf cap degrades to the exact computation.
func TestDFDCappedProperties(t *testing.T) {
	r := rand.New(rand.NewSource(63))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(12), 0, 0)
		b := randWalk(r, 1+r.Intn(12), r.Float64()*5, r.Float64()*5)
		exact := dist.DFD(a, b, geo.Euclidean)

		for _, cap := range []float64{0, exact * 0.25, exact * 0.75, exact, math.Nextafter(exact, math.Inf(1)), exact*1.5 + 1, math.Inf(1)} {
			d, ex := dist.DFDCapped(a, b, geo.Euclidean, cap)
			want := exact
			if ex != (exact >= cap) {
				t.Fatalf("cap %g: exceeded=%v, DFD %g", cap, ex, exact)
			} else if ex {
				want = cap
			}
			if math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("cap %g: got %g (exceeded=%v), want %g", cap, d, ex, want)
			}
		}
	}
}

// TestDFDRowPrimitivesCompose drives the exported row primitives the way
// internal/core's subset sweep does — boundary row, then one relax per
// row, each deriving its own boundary-column cell — over windows of a
// Matrix and of a Fly grid, and requires every composed row to equal the
// matching row of the DFDMatrix oracle bit for bit, and each row minimum
// to lower-bound the final distance.
func TestDFDRowPrimitivesCompose(t *testing.T) {
	r := rand.New(rand.NewSource(65))
	for trial := 0; trial < 100; trial++ {
		a := randWalk(r, 2+r.Intn(10), 0, 0)
		b := randWalk(r, 2+r.Intn(10), r.Float64()*3, r.Float64()*3)
		i0, j0 := r.Intn(len(a)), r.Intn(len(b))
		want := dist.DFDMatrix(a[i0:], b[j0:], geo.Euclidean)
		final := want[len(want)-1][len(b)-j0-1]
		for _, g := range []dmatrix.Grid{dmatrix.ComputeCross(a, b, geo.Euclidean), dmatrix.NewFlyCross(a, b, geo.Euclidean)} {
			for i, row := range sweepRows(g, i0, j0) {
				for k, v := range row {
					if math.Float64bits(v) != math.Float64bits(want[i][k]) {
						t.Fatalf("%T window (%d.., %d..): row %d col %d = %g, DFDMatrix %g", g, i0, j0, i, k, v, want[i][k])
					}
				}
				if rowMin := slices.Min(row); rowMin > final {
					t.Fatalf("row %d minimum %g exceeds final DFD %g", i, rowMin, final)
				}
			}
		}
	}
}

// TestGridsFeedKernel pins the contract the searchers rely on: every
// window of a precomputed Matrix and of an on-the-fly Fly grid, swept
// through the row primitives, gives the point-form DFD of the matching
// sub-slices, under both ground distances, and the two grids agree bit
// for bit.
func TestGridsFeedKernel(t *testing.T) {
	a := []geo.Point{{Lng: 116.30, Lat: 39.98}, {Lng: 116.31, Lat: 39.99}, {Lng: 116.33, Lat: 39.97}, {Lng: 116.32, Lat: 40.01}, {Lng: 116.35, Lat: 40.00}}
	b := []geo.Point{{Lng: 116.29, Lat: 39.96}, {Lng: 116.34, Lat: 39.98}, {Lng: 116.36, Lat: 40.02}, {Lng: 116.31, Lat: 39.95}}
	for _, df := range []geo.DistanceFunc{geo.Euclidean, geo.Haversine} {
		m := dmatrix.ComputeCross(a, b, df)
		f := dmatrix.NewFlyCross(a, b, df)
		for i0 := range a {
			for j0 := range b {
				want := dist.DFD(a[i0:], b[j0:], df)
				mr := sweepRows(m, i0, j0)
				dm := mr[len(mr)-1][len(b)-j0-1]
				if math.Abs(dm-want) > 1e-12*math.Max(1, want) {
					t.Errorf("Matrix window (%d.., %d..) = %g, want %g", i0, j0, dm, want)
				}
				fr := sweepRows(f, i0, j0)
				if dfly := fr[len(fr)-1][len(b)-j0-1]; math.Float64bits(dfly) != math.Float64bits(dm) {
					t.Errorf("Fly window (%d.., %d..) = %g, Matrix %g", i0, j0, dfly, dm)
				}
			}
		}
	}
}

// sweepRows composes DFDBoundaryRow and DFDRelaxRow over the rows of g
// from cell (i0, j0) to the far corner, reading ground rows through
// dmatrix.RowRange as internal/core's subset sweep does, and returns
// every DP row. Each row starts as NaN, so a cell the primitives fail to
// write shows up in the comparison.
func sweepRows(g dmatrix.Grid, i0, j0 int) [][]float64 {
	n, m := g.Dims()
	scratch := make([]float64, m-j0)
	rows := make([][]float64, n-i0)
	for i := range rows {
		rows[i] = make([]float64, m-j0)
		for k := range rows[i] {
			rows[i][k] = math.NaN()
		}
	}
	dist.DFDBoundaryRow(dmatrix.RowRange(g, i0, j0, m-1, scratch), rows[0])
	for i := 1; i < len(rows); i++ {
		dist.DFDRelaxRow(dmatrix.RowRange(g, i0+i, j0, m-1, scratch), rows[i-1], rows[i])
	}
	return rows
}

// TestDFDWindowRowMatchesOracle sweeps the live-window primitive over
// random pairs at caps drawn from each pair's own table (a cell, the
// float above it, the distance, 0 and +Inf) and holds it to the
// DFDMatrix oracle through checkWindowRows.
func TestDFDWindowRowMatchesOracle(t *testing.T) {
	r := rand.New(rand.NewSource(66))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(14), 0, 0)
		b := randWalk(r, 1+r.Intn(14), r.Float64()*3, r.Float64()*3)
		dp := dist.DFDMatrix(a, b, geo.Euclidean)
		v := dp[r.Intn(len(a))][r.Intn(len(b))]
		for _, c := range []float64{v, math.Nextafter(v, math.Inf(1)), dp[len(a)-1][len(b)-1], 0, math.Inf(1)} {
			checkWindowRows(t, a, b, dp, c)
		}
	}
}

// TestGreedyBound pins the heap-filling cap knn relies on: the greedy
// coupling's bottleneck is at least DFD, so DFDCapped at the next float
// above it completes with DFD's bits, and identical sequences bound at 0.
func TestGreedyBound(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 200; trial++ {
		a := randWalk(r, 1+r.Intn(30), 0, 0)
		b := randWalk(r, 1+r.Intn(30), r.Float64()*3, r.Float64()*3)
		d := dist.DFD(a, b, geo.Euclidean)
		gb := dist.GreedyBound(a, b, geo.Euclidean)
		if !(d <= gb) {
			t.Fatalf("GreedyBound = %g below DFD %g", gb, d)
		}
		if got, ex := dist.DFDCapped(a, b, geo.Euclidean, math.Nextafter(gb, math.Inf(1))); ex || math.Float64bits(got) != math.Float64bits(d) {
			t.Fatalf("DFDCapped at the greedy bound = %g (exceeded=%v), DFD = %g", got, ex, d)
		}
		if gb := dist.GreedyBound(a, a, geo.Euclidean); gb != 0 {
			t.Fatalf("GreedyBound(a, a) = %g, want 0", gb)
		}
	}
}

// checkWindowRows sweeps DFDWindowRow over the Fly grid of a and b under
// cap, as DFDCapped does but keeping every row, each pre-filled with NaN
// so an unvisited cell shows. It requires every cell the oracle dp puts
// below cap to hold the oracle's bits, every other cell to be unvisited
// or dead (+Inf), and each row's returned window and minimum to be the
// first and last live column and the least live value.
func checkWindowRows(t *testing.T, a, b []geo.Point, dp [][]float64, cap float64) {
	t.Helper()
	g := dmatrix.NewFlyCross(a, b, geo.Euclidean)
	n, m := len(a), len(b)
	rows := make([][]float64, n)
	for i := range rows {
		rows[i] = make([]float64, m)
		for k := range rows[i] {
			rows[i][k] = math.NaN()
		}
	}
	scratch := make([]float64, m)
	i := 0
	ground := func(j0, j1 int) []float64 { return g.Row(i, j0, j1, scratch) }
	lo, hi := 0, 0
	for ; i < n && lo <= hi; i++ {
		var prev []float64
		if i > 0 {
			prev = rows[i-1]
		}
		var rowMin float64
		lo, hi, rowMin = dist.DFDWindowRow(ground, prev, rows[i], lo, hi, cap)
		wantLo, wantHi, wantMin := m, -1, math.Inf(1)
		for k, v := range dp[i] {
			if v < cap {
				wantLo, wantHi, wantMin = min(wantLo, k), k, min(wantMin, v)
			}
		}
		if wantHi >= 0 && (lo != wantLo || hi != wantHi || rowMin != wantMin) {
			t.Fatalf("cap %g row %d: window [%d, %d] min %g, oracle [%d, %d] min %g", cap, i, lo, hi, rowMin, wantLo, wantHi, wantMin)
		}
		if wantHi < 0 && (lo <= hi || !math.IsInf(rowMin, 1)) {
			t.Fatalf("cap %g row %d: window [%d, %d] min %g on a dead row", cap, i, lo, hi, rowMin)
		}
	}
	for i, row := range rows {
		for k, v := range row {
			if dp[i][k] < cap {
				if math.Float64bits(v) != math.Float64bits(dp[i][k]) {
					t.Fatalf("cap %g: live cell (%d, %d) = %g, DFDMatrix %g", cap, i, k, v, dp[i][k])
				}
			} else if !math.IsNaN(v) && !math.IsInf(v, 1) {
				t.Fatalf("cap %g: cell (%d, %d) = %g, DFDMatrix %g at or above the cap, not dead", cap, i, k, v, dp[i][k])
			}
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
}
