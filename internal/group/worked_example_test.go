package group

import (
	"math"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
)

// These tests pin the worked-example mechanics of the paper's §5 figures
// on a hand-built grid where every quantity can be checked by eye. (The
// literal numbers of Figures 10-12 are unrecoverable from the provided
// text — see DESIGN.md §1.5 — so the grid here is ours, but the relations
// it exercises are exactly the figures'.)
//
// Grid (8x8, symmetric, zero diagonal), tau = 2 -> four groups
// g0={0,1}, g1={2,3}, g2={4,5}, g3={6,7}.
var exampleRows = [][]float64{
	{0, 1, 4, 5, 9, 8, 3, 2},
	{1, 0, 3, 4, 8, 7, 2, 3},
	{4, 3, 0, 1, 5, 4, 6, 7},
	{5, 4, 1, 0, 4, 3, 7, 8},
	{9, 8, 5, 4, 0, 1, 9, 9},
	{8, 7, 4, 3, 1, 0, 8, 9},
	{3, 2, 6, 7, 9, 8, 0, 1},
	{2, 3, 7, 8, 9, 9, 1, 0},
}

func exampleLevel() (*Level, *dmatrix.Matrix) {
	g := dmatrix.FromRows(exampleRows)
	return BuildLevel(g, 2), g
}

// windowDFD is the DFD of the candidate rows i0..i1, columns j0..j1 of g,
// swept through the kernel's row primitives over the grid window.
func windowDFD(g *dmatrix.Matrix, i0, i1, j0, j1 int) float64 {
	prev, cur := make([]float64, j1-j0+1), make([]float64, j1-j0+1)
	dist.DFDBoundaryRow(g.Row(i0)[j0:j1+1], prev)
	for i := i0 + 1; i <= i1; i++ {
		dist.DFDRelaxRow(g.Row(i)[j0:j1+1], prev, cur)
		prev, cur = cur, prev
	}
	return prev[j1-j0]
}

// TestFigure10GroupDistances pins dminG/dmaxG (Eqs. 16-17) — the Step 1-2
// quantities of the Figure 10 walkthrough.
func TestFigure10GroupDistances(t *testing.T) {
	lv, _ := exampleLevel()
	// dminG(g0, g3) = min over {0,1}x{6,7} = min(3,2,2,3) = 2.
	if got := lv.Dmin(0, 3); got != 2 {
		t.Errorf("Dmin(0,3) = %g, want 2", got)
	}
	// dmaxG(g0, g3) = max(3,2,2,3) = 3.
	if got := lv.Dmax(0, 3); got != 3 {
		t.Errorf("Dmax(0,3) = %g, want 3", got)
	}
	// dminG(g0, g2) = min(9,8,8,7) = 7; dmaxG = 9.
	if got := lv.Dmin(0, 2); got != 7 {
		t.Errorf("Dmin(0,2) = %g, want 7", got)
	}
	if got := lv.Dmax(0, 2); got != 9 {
		t.Errorf("Dmax(0,2) = %g, want 9", got)
	}
}

// TestFigure12IntervalBracketing pins the Figure 12 relation: the interval
// DFD of full subtrajectory groups brackets the DFD of the concrete
// full-group pair.
func TestFigure12IntervalBracketing(t *testing.T) {
	lv, g := exampleLevel()
	n := 8
	// Pair of subtrajectory groups G_{0,0} vs G_{3,3} (points 0-1 vs 6-7).
	glb, gub, _ := lv.DFDBounds(0, 3, 0, true, n, n, nil)

	// The concrete pair S[0..1], S[6..7]: its DFD straight from the shared
	// grid window via the canonical kernel.
	d := windowDFD(g, 0, 1, 6, 7)
	if glb > d+1e-12 {
		t.Errorf("GLB %g > concrete DFD %g", glb, d)
	}
	// gub minimizes over candidate end groups, so it may be tighter than
	// this particular pair's DFD, but never below the lower bound.
	if !math.IsInf(gub, 1) && glb > gub+1e-12 {
		t.Errorf("GLB %g > GUB %g", glb, gub)
	}
}

// TestHalvingRefinesBounds shows the multi-level idea of Figure 9/§5.4:
// at smaller tau, group bounds can only get tighter (dmin rises toward the
// true cell values, dmax falls).
func TestHalvingRefinesBounds(t *testing.T) {
	g := dmatrix.FromRows(exampleRows)
	lv4 := BuildLevel(g, 4) // two groups of 4
	lv2 := BuildLevel(g, 2) // four groups of 2
	// Every tau=2 pair nested inside a tau=4 pair must have
	// dmin >= parent's dmin and dmax <= parent's dmax.
	for u := 0; u < lv2.NA; u++ {
		for v := 0; v < lv2.NB; v++ {
			pu, pv := u/2, v/2
			if lv2.Dmin(u, v) < lv4.Dmin(pu, pv)-1e-12 {
				t.Errorf("child dmin(%d,%d)=%g below parent %g", u, v, lv2.Dmin(u, v), lv4.Dmin(pu, pv))
			}
			if lv2.Dmax(u, v) > lv4.Dmax(pu, pv)+1e-12 {
				t.Errorf("child dmax(%d,%d)=%g above parent %g", u, v, lv2.Dmax(u, v), lv4.Dmax(pu, pv))
			}
		}
	}
}
