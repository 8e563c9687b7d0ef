package dist_test

import (
	"encoding/binary"
	"math"
	"testing"

	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// fuzzCoord decodes 8 bytes into a finite coordinate, mapping NaN and
// infinities to large finite values and clamping the magnitude so squared
// Euclidean terms stay representable — the kernel's contract assumes
// NaN-free ground distances, and the clamp still exercises extreme
// (1e150-scale) coordinates.
func fuzzCoord(b []byte) float64 {
	v := math.Float64frombits(binary.LittleEndian.Uint64(b))
	if math.IsNaN(v) {
		return 0
	}
	const lim = 1e150
	if v > lim {
		return lim
	}
	if v < -lim {
		return -lim
	}
	return v
}

// FuzzDFDKernel feeds the kernel degenerate and adversarial inputs —
// empty and single-point sequences, extreme but NaN-free coordinates,
// arbitrary caps and radii — and asserts that nothing panics and that the
// exact, capped, decision and full-table forms stay mutually consistent.
func FuzzDFDKernel(f *testing.F) {
	f.Add([]byte{}, 0, 1.0)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, 0, 0.0)
	f.Add(make([]byte, 96), 2, 2.5)
	f.Add(make([]byte, 160), 4, -1.0)
	f.Fuzz(func(t *testing.T, data []byte, split int, eps float64) {
		// Decode consecutive 16-byte chunks into points, splitting the
		// sequence at the fuzzed index.
		var pts []geo.Point
		for len(data) >= 16 {
			pts = append(pts, geo.Point{
				Lat: fuzzCoord(data[:8]),
				Lng: fuzzCoord(data[8:16]),
			})
			data = data[16:]
		}
		if split < 0 {
			split = 0
		}
		if split > len(pts) {
			split = len(pts)
		}
		a, b := pts[:split], pts[split:]
		if math.IsNaN(eps) || math.IsInf(eps, 0) {
			eps = 0
		}

		d := dist.DFD(a, b, geo.Euclidean)
		if math.IsNaN(d) {
			t.Fatalf("DFD returned NaN for finite coordinates")
		}

		// Decision and exact agreement, including at the boundary, on
		// both of the decision's paths: a greedy certificate must be a
		// true "within", and when the walk gets stuck the live-cell DP
		// must still give the exact answer.
		for _, e := range []float64{eps, d, math.Nextafter(d, math.Inf(-1))} {
			if math.IsInf(e, 0) {
				continue
			}
			want := d <= e
			if dist.GreedyWithin(a, b, geo.Euclidean, e) && !want {
				t.Fatalf("greedy walk certified eps=%g, DFD = %g (lens %d, %d)", e, d, len(a), len(b))
			}
			if got := dist.DFDDecision(a, b, geo.Euclidean, e); got != want {
				t.Fatalf("DFDDecision(eps=%g) = %v, DFD = %g wants %v (lens %d, %d)",
					e, got, d, want, len(a), len(b))
			}
		}

		// Capped agreement: +Inf cap is exact; a fuzzed cap either
		// completes exactly or abandons with a lower bound at or above it.
		if dc, ex := dist.DFDCapped(a, b, geo.Euclidean, math.Inf(1)); ex || dc != d {
			t.Fatalf("DFDCapped(+Inf) = %g (exceeded=%v), DFD = %g", dc, ex, d)
		}
		dc, ex := dist.DFDCapped(a, b, geo.Euclidean, eps)
		if ex {
			if dc < eps || dc > d {
				t.Fatalf("abandoned value %g outside [cap %g, DFD %g]", dc, eps, d)
			}
		} else if dc != d {
			t.Fatalf("DFDCapped(%g) completed with %g, DFD = %g", eps, dc, d)
		}

		// The full-table oracle agrees cell-for-cell at the corner.
		if len(a) > 0 && len(b) > 0 {
			dp := dist.DFDMatrix(a, b, geo.Euclidean)
			if got := dp[len(a)-1][len(b)-1]; got != d {
				t.Fatalf("DFDMatrix corner = %g, DFD = %g", got, d)
			}
		}

		// The slice-row primitives swept over matrix rows equal the
		// grid-windowed kernel bit for bit, on the full grid and on the
		// window starting at the middle cell.
		if len(a) > 0 && len(b) > 0 {
			g := dmatrix.ComputeCross(a, b, geo.Euclidean)
			for _, w := range [][2]int{{0, 0}, {len(a) / 2, len(b) / 2}} {
				i0, j0 := w[0], w[1]
				want, _ := dist.DFDFromGridCapped(g, i0, len(a)-1, j0, len(b)-1, math.Inf(1))
				if got := sliceSweep(g, i0, j0); math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("slice rows from (%d, %d) = %g, DFDFromGridCapped = %g", i0, j0, got, want)
				}
			}
		}
	})
}

// sliceSweep composes DFDBoundaryRow and DFDRelaxRow over the rows of g
// from cell (i0, j0) to the far corner, as internal/core's subset sweep
// does, and returns the corner value.
func sliceSweep(g *dmatrix.Matrix, i0, j0 int) float64 {
	n, m := g.Dims()
	prev := make([]float64, m-j0)
	cur := make([]float64, m-j0)
	dist.DFDBoundaryRow(g.Row(i0)[j0:], prev)
	colMax := prev[0]
	for i := i0 + 1; i < n; i++ {
		ground := g.Row(i)[j0:]
		if ground[0] > colMax {
			colMax = ground[0]
		}
		cur[0] = colMax
		dist.DFDRelaxRow(ground, prev, cur)
		prev, cur = cur, prev
	}
	return prev[m-j0-1]
}
