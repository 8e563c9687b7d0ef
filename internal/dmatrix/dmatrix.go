// Package dmatrix provides the ground-distance grid dG underlying every
// algorithm in the paper: dG(i,j) is the ground distance between the i-th
// point of the first leg's trajectory and the j-th point of the second
// leg's trajectory (§3). BruteDP, BTM and GTM precompute the full matrix
// for O(1) access (the paper's "precompute all pairs of ground distances"
// optimization); GTM* instead evaluates distances on the fly through the
// same Grid interface to achieve its O(n) space bound (§5.5, Idea i).
package dmatrix

import (
	"sync"

	"trajmotif/internal/geo"
)

// Grid is read-only access to ground distances between two point
// sequences. Dims returns (n, m): At accepts 0 <= i < n, 0 <= j < m.
type Grid interface {
	At(i, j int) float64
	Dims() (n, m int)
}

// Matrix is a fully materialized n x m ground-distance grid, stored
// row-major in float64.
type Matrix struct {
	n, m int
	vals []float64
}

// ComputeCross materializes the grid between two trajectories' points.
func ComputeCross(a, b []geo.Point, df geo.DistanceFunc) *Matrix {
	return ComputeCrossParallel(a, b, df, 1)
}

// ComputeCrossParallel is ComputeCross with the row fill sharded across
// workers. Each row is filled by Fly.Row, so the matrix holds exactly
// the values GTM*'s on-the-fly grid computes, and the result is
// bit-identical for every worker count; df must be safe for concurrent
// use when workers > 1.
func ComputeCrossParallel(a, b []geo.Point, df geo.DistanceFunc, workers int) *Matrix {
	m := &Matrix{n: len(a), m: len(b), vals: make([]float64, len(a)*len(b))}
	f := NewFlyCross(a, b, df)
	fillRows(workers, len(a), func(i int) { f.Row(i, 0, m.m-1, m.Row(i)) })
	return m
}

// ComputeSelf materializes the symmetric grid of a single trajectory,
// computing each unordered pair once.
func ComputeSelf(pts []geo.Point, df geo.DistanceFunc) *Matrix {
	return ComputeSelfParallel(pts, df, 1)
}

// ComputeSelfParallel is ComputeSelf sharded across workers: the strict
// upper triangle is filled row-parallel (disjoint writes), then mirrored
// row-parallel after a barrier. Bit-identical for every worker count.
func ComputeSelfParallel(pts []geo.Point, df geo.DistanceFunc, workers int) *Matrix {
	n := len(pts)
	m := &Matrix{n: n, m: n, vals: make([]float64, n*n)}
	f := NewFlySelf(pts, df)
	fillRows(workers, n, func(i int) { f.Row(i, i+1, n-1, m.Row(i)[i+1:]) })
	fillRows(workers, n, func(i int) {
		row := m.vals[i*n : (i+1)*n]
		for j := 0; j < i; j++ {
			row[j] = m.vals[j*n+i]
		}
	})
	return m
}

// fillRows runs fn(i) for every row 0 <= i < n, fanning the rows over a
// bounded worker pool in contiguous chunks. fn must write only its own
// row. workers <= 1 (or a trivial n) runs inline.
func fillRows(workers, n int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo, hi := w*n/workers, (w+1)*n/workers
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				fn(i)
			}
		}(lo, hi)
	}
	wg.Wait()
}

// FromRows builds a matrix from explicit row data; rows must be rectangular.
// It backs unit tests that exercise hand-built grids.
func FromRows(rows [][]float64) *Matrix {
	if len(rows) == 0 {
		return &Matrix{}
	}
	m := &Matrix{n: len(rows), m: len(rows[0]), vals: make([]float64, 0, len(rows)*len(rows[0]))}
	for _, r := range rows {
		if len(r) != m.m {
			panic("dmatrix: ragged rows")
		}
		m.vals = append(m.vals, r...)
	}
	return m
}

// At returns dG(i, j).
func (m *Matrix) At(i, j int) float64 { return m.vals[i*m.m+j] }

// Dims returns the grid dimensions.
func (m *Matrix) Dims() (int, int) { return m.n, m.m }

// Row returns row i of the grid, dG(i, 0..m-1). It aliases the matrix
// storage, so callers must treat it as read-only.
func (m *Matrix) Row(i int) []float64 { return m.vals[i*m.m : (i+1)*m.m : (i+1)*m.m] }

// RowRange returns dG(i, j0..j1) of g, which must be a *Matrix or a
// *Fly, as a slice. A *Matrix answers with an alias of its storage
// (read-only, like Row); GTM*'s on-the-fly *Fly fills scratch, which
// must hold j1-j0+1 values, through Fly.Row. Row-sweeping DPs read grids
// through this so neither grid pays a per-cell interface call.
func RowRange(g Grid, i, j0, j1 int, scratch []float64) []float64 {
	if m, ok := g.(*Matrix); ok {
		return m.Row(i)[j0 : j1+1]
	}
	return g.(*Fly).Row(i, j0, j1, scratch)
}

// Bytes returns the memory footprint of the value storage, used by the
// space-consumption experiment (Figure 19) and the store's byte budget.
func (m *Matrix) Bytes() int64 { return int64(len(m.vals)) * 8 }

// Transposed materializes the transpose of m — the grid of (b, a) given
// the grid of (a, b) — by copying values instead of re-evaluating the
// ground distance per cell. Ground distances are symmetric (the
// geo.DistanceFunc contract), so the result is bit-identical to
// ComputeCross(b, a, df) at a fraction of the cost; the serve-mode store
// uses it to answer swapped-pair grid requests from one cached matrix.
func (m *Matrix) Transposed() *Matrix {
	t := &Matrix{n: m.m, m: m.n, vals: make([]float64, len(m.vals))}
	for i := 0; i < m.n; i++ {
		row := m.vals[i*m.m : (i+1)*m.m]
		for j, v := range row {
			t.vals[j*t.m+i] = v
		}
	}
	return t
}

// Fly evaluates ground distances on demand without storing them. It is the
// grid used by GTM* (§5.5, Idea i): each cell costs one ground-distance
// evaluation, trading CPU for the O(n^2) matrix memory. It is also the
// one place a ground-distance row is computed from points: the matrix
// builders fill their rows through Row, and internal/dist's value DP
// sweeps Row over point pairs. The constructors detect the haversine
// metric and cache one cos(lat) per point, so each cell pays two table
// lookups instead of two cos calls — bit-identical, since
// HaversinePrepared runs the same core.
type Fly struct {
	A, B []geo.Point
	DF   geo.DistanceFunc

	cosA, cosB []float64
}

// NewFlySelf returns an on-the-fly grid over a single trajectory.
func NewFlySelf(pts []geo.Point, df geo.DistanceFunc) *Fly {
	f := &Fly{A: pts, B: pts, DF: df}
	if geo.IsHaversine(df) {
		f.cosA = geo.CosLats(pts)
		f.cosB = f.cosA
	}
	return f
}

// NewFlyCross returns an on-the-fly grid between two trajectories.
func NewFlyCross(a, b []geo.Point, df geo.DistanceFunc) *Fly {
	f := &Fly{A: a, B: b, DF: df}
	if geo.IsHaversine(df) {
		f.cosA = geo.CosLats(a)
		f.cosB = geo.CosLats(b)
	}
	return f
}

// haversine is dG(i, j) through the cached cosines, for a row point
// pa = A[i] with cosine ca = cosA[i] that the caller hoists.
func (f *Fly) haversine(pa geo.Point, ca float64, j int) float64 {
	//lint:ignore preparedgate cosA is non-nil only when NewFlySelf/NewFlyCross saw geo.IsHaversine(df); the gate lives in the constructors, and At and Row call this only when cosA != nil
	return geo.HaversinePrepared(pa, f.B[j], ca, f.cosB[j])
}

// At computes dG(i, j) directly from the points.
func (f *Fly) At(i, j int) float64 {
	if f.cosA != nil {
		return f.haversine(f.A[i], f.cosA[i], j)
	}
	return f.DF(f.A[i], f.B[j])
}

// Row fills dst[0..j1-j0] with dG(i, j0..j1) and returns that prefix of
// dst, which must hold j1-j0+1 values. Each value equals At(i, j); the
// row point and its cosine are read once per row, and j1 = j0-1 fills
// nothing.
func (f *Fly) Row(i, j0, j1 int, dst []float64) []float64 {
	dst = dst[:j1-j0+1]
	pa := f.A[i]
	if f.cosA != nil {
		ca := f.cosA[i]
		for k := range dst {
			dst[k] = f.haversine(pa, ca, j0+k)
		}
		return dst
	}
	for k := range dst {
		dst[k] = f.DF(pa, f.B[j0+k])
	}
	return dst
}

// Dims returns the grid dimensions.
func (f *Fly) Dims() (int, int) { return len(f.A), len(f.B) }
