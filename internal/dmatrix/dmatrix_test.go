package dmatrix

import (
	"math"
	"testing"

	"trajmotif/internal/geo"
)

func pts(xy ...float64) []geo.Point {
	out := make([]geo.Point, len(xy)/2)
	for i := range out {
		out[i] = geo.Point{Lng: xy[2*i], Lat: xy[2*i+1]}
	}
	return out
}

// TestComputeSelfSymmetric: the self grid has a zero diagonal, is
// symmetric, and holds the ground distance of each unordered pair bit
// for bit, under both ground distances.
func TestComputeSelfSymmetric(t *testing.T) {
	p := pts(0, 0, 3, 4, 6, 8, 1, 1)
	for _, df := range []geo.DistanceFunc{geo.Euclidean, geo.Haversine} {
		m := ComputeSelf(p, df)
		n, mm := m.Dims()
		if n != 4 || mm != 4 {
			t.Fatalf("Dims = %d,%d", n, mm)
		}
		for i := 0; i < 4; i++ {
			if m.At(i, i) != 0 {
				t.Errorf("diagonal At(%d,%d) = %g", i, i, m.At(i, i))
			}
			for j := 0; j < 4; j++ {
				if m.At(i, j) != m.At(j, i) {
					t.Errorf("asymmetric at (%d,%d)", i, j)
				}
				if i == j {
					continue
				}
				want := df(p[min(i, j)], p[max(i, j)])
				if math.Float64bits(m.At(i, j)) != math.Float64bits(want) {
					t.Errorf("At(%d,%d) = %g, want %g", i, j, m.At(i, j), want)
				}
			}
		}
	}
}

func TestComputeCross(t *testing.T) {
	a := pts(0, 0, 1, 0)
	b := pts(0, 3, 4, 0, 0, 0)
	m := ComputeCross(a, b, geo.Euclidean)
	n, mm := m.Dims()
	if n != 2 || mm != 3 {
		t.Fatalf("Dims = %d,%d", n, mm)
	}
	if m.At(0, 0) != 3 || m.At(0, 1) != 4 || m.At(0, 2) != 0 {
		t.Errorf("first row wrong: %g %g %g", m.At(0, 0), m.At(0, 1), m.At(0, 2))
	}
	if m.Bytes() != 6*8 {
		t.Errorf("Bytes = %d", m.Bytes())
	}
}

func TestFromRows(t *testing.T) {
	m := FromRows([][]float64{{1, 2}, {3, 4}})
	if m.At(1, 0) != 3 {
		t.Errorf("At(1,0) = %g", m.At(1, 0))
	}
	defer func() {
		if recover() == nil {
			t.Error("ragged rows should panic")
		}
	}()
	FromRows([][]float64{{1, 2}, {3}})
}

func TestFlyEquivalence(t *testing.T) {
	a := pts(0, 0, 1, 2, 3, 4)
	b := pts(5, 5, 6, 6)
	m := ComputeCross(a, b, geo.Euclidean)
	f := NewFlyCross(a, b, geo.Euclidean)
	fn, fm := f.Dims()
	if fn != 3 || fm != 2 {
		t.Fatalf("Fly dims = %d,%d", fn, fm)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			if m.At(i, j) != f.At(i, j) {
				t.Errorf("mismatch at (%d,%d)", i, j)
			}
		}
	}
	fs := NewFlySelf(a, geo.Euclidean)
	if got := fs.At(1, 1); got != 0 {
		t.Errorf("self Fly diagonal = %g", got)
	}
}

// TestRowRangeMatrixFly: RowRange returns the same values for a Matrix
// (an alias of its storage) and a Fly (filled through Fly.Row) over every
// window of every row, haversine and Euclidean; every value is the
// ground distance itself, bit for bit, and Fly.At agrees; and a Matrix
// row aliases rather than copies.
func TestRowRangeMatrixFly(t *testing.T) {
	a := pts(116.30, 39.98, 116.31, 39.99, 116.33, 39.97, 116.32, 40.01, 116.35, 40.00)
	b := pts(116.29, 39.96, 116.34, 39.98, 116.36, 40.02, 116.31, 39.95)
	for _, df := range []geo.DistanceFunc{geo.Haversine, geo.Euclidean} {
		m := ComputeCross(a, b, df)
		f := NewFlyCross(a, b, df)
		scratch := make([]float64, len(b))
		for i := range a {
			for j0 := range b {
				for j1 := j0; j1 < len(b); j1++ {
					want := RowRange(m, i, j0, j1, nil)
					got := RowRange(f, i, j0, j1, scratch)
					if len(got) != j1-j0+1 || len(want) != len(got) {
						t.Fatalf("row %d [%d, %d]: lengths %d (Matrix) and %d (Fly)", i, j0, j1, len(want), len(got))
					}
					for k := range got {
						d := df(a[i], b[j0+k])
						if math.Float64bits(got[k]) != math.Float64bits(d) || math.Float64bits(want[k]) != math.Float64bits(d) || f.At(i, j0+k) != d {
							t.Fatalf("row %d col %d: Fly row %v, Matrix row %v, Fly.At %v, ground %v", i, j0+k, got[k], want[k], f.At(i, j0+k), d)
						}
					}
				}
			}
		}
		if &m.Row(2)[1] != &RowRange(m, 2, 1, 3, nil)[0] {
			t.Error("RowRange copied a Matrix row instead of aliasing it")
		}
	}
}
