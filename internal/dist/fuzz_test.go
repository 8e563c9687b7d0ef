package dist_test

import (
	"encoding/binary"
	"math"
	"slices"
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

// fuzzPoints encodes (lat, lng) pairs the way FuzzDFDKernel decodes
// them: 16 little-endian bytes per point.
func fuzzPoints(latLng ...float64) []byte {
	var out []byte
	for _, v := range latLng {
		out = binary.LittleEndian.AppendUint64(out, math.Float64bits(v))
	}
	return out
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
	// Two diverging walks: the DP row minima rise strictly, so a cap
	// equal to a later row's minimum abandons exactly there.
	f.Add(fuzzPoints(0, 0, 0, 1, 0, 2, 0, 4, 0, 7, 1, 0, 1, 2, 2, 5), 5, 1.5)
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

		if len(a) == 0 || len(b) == 0 {
			return
		}
		// The full-table oracle agrees at the corner.
		dp := dist.DFDMatrix(a, b, geo.Euclidean)
		if got := dp[len(a)-1][len(b)-1]; got != d {
			t.Fatalf("DFDMatrix corner = %g, DFD = %g", got, d)
		}

		// The row primitives swept over matrix rows reproduce every row
		// of the oracle bit for bit, on the full grid and on the window
		// starting at the middle cell.
		g := dmatrix.ComputeCross(a, b, geo.Euclidean)
		for _, w := range [][2]int{{0, 0}, {len(a) / 2, len(b) / 2}} {
			i0, j0 := w[0], w[1]
			want := dp
			if i0 > 0 || j0 > 0 {
				want = dist.DFDMatrix(a[i0:], b[j0:], geo.Euclidean)
			}
			for i, row := range sweepRows(g, i0, j0) {
				for k, v := range row {
					if math.Float64bits(v) != math.Float64bits(want[i][k]) {
						t.Fatalf("window (%d.., %d..): row %d col %d = %g, DFDMatrix %g", i0, j0, i, k, v, want[i][k])
					}
				}
			}
		}

		// The abandon row: DFDCapped stops at the first DP row, boundary
		// row included, whose minimum reaches the cap and returns that
		// minimum; when it completes, no row reached the cap. The oracle
		// table is oriented as DFDCapped rolls its rows, over the longer
		// sequence. Besides the fuzzed cap, the distance itself, the
		// boundary row's minimum (its first cell) and a middle row's
		// minimum are caps that some row meets exactly.
		if len(b) > len(a) {
			dp = dist.DFDMatrix(b, a, geo.Euclidean)
		}
		for _, c := range []float64{eps, d, dp[0][0], slices.Min(dp[len(dp)/2])} {
			dc, ex := dist.DFDCapped(a, b, geo.Euclidean, c)
			first := slices.IndexFunc(dp, func(row []float64) bool { return slices.Min(row) >= c })
			switch {
			case !ex && first >= 0:
				t.Fatalf("DFDCapped(%g) completed, but DP row %d reaches the cap", c, first)
			case ex && first < 0:
				t.Fatalf("DFDCapped(%g) abandoned, but no DP row reaches the cap", c)
			case ex && math.Float64bits(dc) != math.Float64bits(slices.Min(dp[first])):
				t.Fatalf("DFDCapped(%g) abandoned with %g, first capped row %d has minimum %g", c, dc, first, slices.Min(dp[first]))
			}
		}
	})
}
