package dist_test

import (
	"encoding/binary"
	"math"
	"math/rand"
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

		// A +Inf cap is DFD exactly, empty-sequence conventions included.
		if dc, ex := dist.DFDCapped(a, b, geo.Euclidean, math.Inf(1)); ex || dc != d {
			t.Fatalf("DFDCapped(+Inf) = %g (exceeded=%v), DFD = %g", dc, ex, d)
		}
		if gb := dist.GreedyBound(a, b, geo.Euclidean); !(d <= gb) {
			t.Fatalf("GreedyBound = %g below DFD %g (lens %d, %d)", gb, d, len(a), len(b))
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

		// The capped contract: (DFD, false) exactly when DFD < cap, else
		// (cap, true), both bit for bit. Besides the fuzzed cap, the
		// distance and the float below it, the first cell and a middle
		// row's minimum are caps some DP row meets exactly.
		for _, c := range []float64{eps, d, math.Nextafter(d, math.Inf(-1)), dp[0][0], slices.Min(dp[len(dp)/2])} {
			dc, ex := dist.DFDCapped(a, b, geo.Euclidean, c)
			want := d
			if ex != (d >= c) {
				t.Fatalf("DFDCapped(%g) exceeded=%v, DFD = %g", c, ex, d)
			} else if ex {
				want = c
			}
			if math.Float64bits(dc) != math.Float64bits(want) {
				t.Fatalf("DFDCapped(%g) = %g (exceeded=%v), want %g", c, dc, ex, want)
			}
		}

		// The live-window rows: for caps drawn from the table, every cell
		// below the cap is the oracle's, every other visited cell is dead.
		r := rand.New(rand.NewSource(int64(math.Float64bits(eps)) ^ int64(split)))
		caps := []float64{eps, d, math.Inf(1)}
		for range 3 {
			v := dp[r.Intn(len(a))][r.Intn(len(b))]
			caps = append(caps, v, math.Nextafter(v, math.Inf(1)))
		}
		for _, c := range caps {
			checkWindowRows(t, a, b, dp, c)
		}
	})
}
