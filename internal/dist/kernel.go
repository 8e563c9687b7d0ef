package dist

// This file is the canonical discrete Fréchet kernel: every DFD dynamic
// program in the repository — exact, early-abandoning (capped), and
// decision — reduces to the row recurrence below, which lives once, in
// DFDBoundaryRow and DFDRelaxRow over a ground row already in memory.
// The value DPs read their ground rows from internal/dmatrix: DFDCapped
// (and so DFD) sweeps dmatrix.Fly rows computed from the point pairs,
// internal/core's subset sweep reads matrix or Fly rows through
// dmatrix.RowRange, and internal/group's interval DP reads level rows.
// decision is the boolean twin behind DFDDecision and
// DFDDecisionProjected, generic over the grid so the projected tri-state
// cells need no row fill. internal/join, internal/knn, internal/core and
// internal/group all route through these entry points; no other package
// carries its own Fréchet recurrence, so an optimization here speeds
// every caller.
//
// The recurrence (Eiter & Mannila 1994) over a ground-distance source g is
//
//	dF[i][j] = max(g(i, j), min(dF[i-1][j], dF[i][j-1], dF[i-1][j-1]))
//
// swept with two rolling rows in O(n·m) time and O(m) working space. Two
// facts about the table back the capped variants:
//
//   - row crossing: every coupling advances the first cursor one row at a
//     time, so any path to the final cell passes through every row; table
//     values are non-decreasing along a path, hence the minimum of any
//     completed row lower-bounds the final value. Once a row's minimum
//     reaches the cap, no coupling can finish below it (early abandoning).
//   - the same holds per column, which the decision DP exploits by killing
//     cells above eps and abandoning when a whole row is dead.
//
// The decision DP is preceded by a certificate in the other direction:
// any one coupling whose cells are all within eps proves DFD <= eps, so
// a greedy walk that reaches the final cell answers "yes" in O(n+m).

import (
	"math"

	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// projDecGrid adapts a projected point pair to the decision DP's
// "At(i, j) <= eps" comparisons as a tri-state: a squared planar
// distance inside the frame's certified band returns a sentinel that
// compares the same way the true haversine would (-1 for certainly
// within, +Inf for certainly beyond), and only the narrow uncertain
// band pays a real haversine call, counted in *fallbacks. Requires
// eps >= 0 so the -1 sentinel always satisfies "<= eps".
type projDecGrid struct {
	a, b             []geo.Point
	pa, pb           []geo.Projected
	within2, beyond2 float64
	fallbacks        *int64
}

func (g *projDecGrid) At(i, j int) float64 {
	dx := g.pa[i].X - g.pb[j].X
	dy := g.pa[i].Y - g.pb[j].Y
	d2 := dx*dx + dy*dy
	if d2 <= g.within2 {
		return -1
	}
	if d2 > g.beyond2 {
		return math.Inf(1)
	}
	*g.fallbacks++
	return geo.Haversine(g.a[i], g.b[j])
}
func (g *projDecGrid) Dims() (int, int) { return len(g.a), len(g.b) }

// greedyWithin walks one monotone coupling from (0, 0) to (n-1, m-1),
// stepping diagonally while that cell is within eps, otherwise to the
// row or column neighbour nearer the table's diagonal, otherwise to the
// other one. Arriving certifies DFD <= eps: the walk is a coupling and
// every cell on it is within eps. Getting stuck concludes nothing. It
// evaluates O(n+m) cells, against the decision DP's O(n·m) for a "yes".
func greedyWithin[G dmatrix.Grid](g G, n, m int, eps float64) bool {
	if !(g.At(0, 0) <= eps) {
		return false
	}
	i, j := 0, 0
	for i < n-1 || j < m-1 {
		switch {
		case i == n-1:
			j++
		case j == m-1:
			i++
		case g.At(i+1, j+1) <= eps:
			i, j = i+1, j+1
			continue
		default:
			// Try first the step that keeps (i, j) nearer the line from
			// (0, 0) to (n-1, m-1): the row step when i lags behind it.
			di, dj := 1, 0
			if i*(m-1) > j*(n-1) {
				di, dj = 0, 1
			}
			if g.At(i+di, j+dj) <= eps {
				i, j = i+di, j+dj
				continue
			}
			i, j = i+dj, j+di
		}
		if !(g.At(i, j) <= eps) {
			return false
		}
	}
	return true
}

// decision answers dF[n-1][m-1] <= eps. It first tries greedyWithin's
// O(n+m) certificate, which settles most "yes" answers; otherwise a
// boolean live-cell DP decides, where a cell is live when some coupling
// reaches it with every pair within eps. The DP abandons as soon as a
// full row dies, usually long before the O(n·m) table is complete.
func decision[G dmatrix.Grid](g G, n, m int, eps float64) bool {
	if greedyWithin(g, n, m, eps) {
		return true
	}
	prev := make([]bool, m)
	cur := make([]bool, m)

	if !(g.At(0, 0) <= eps) {
		return false // endpoint rule: (0, 0) is on every coupling
	}
	prev[0] = true
	for j := 1; j < m; j++ {
		prev[j] = prev[j-1] && g.At(0, j) <= eps
	}
	for i := 1; i < n; i++ {
		cur[0] = prev[0] && g.At(i, 0) <= eps
		alive := cur[0]
		for j := 1; j < m; j++ {
			if (prev[j] || prev[j-1] || cur[j-1]) && g.At(i, j) <= eps {
				cur[j] = true
				alive = true
			} else {
				cur[j] = false
			}
		}
		if !alive {
			return false // no coupling can continue past this row
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// DFDCapped computes the discrete Fréchet distance with early abandoning:
// it returns the exact DFD with exceeded == false, unless it can prove
// DFD(a, b) >= cap partway through, in which case it stops and returns a
// partial value with exceeded == true. The partial value is a valid lower
// bound on the true distance and is itself >= cap. A cap of +Inf never
// abandons, so DFDCapped(a, b, df, +Inf) equals DFD(a, b, df) exactly.
// When the DP completes, the returned distance is exact and may exceed a
// finite cap only if the final cell alone does.
//
// Searchers use this to verify candidates against a best-so-far bound:
// hopeless candidates die after a few rows instead of O(n·m) cells.
// Empty-sequence conventions follow DFD, with exceeded == false.
func DFDCapped(a, b []geo.Point, df geo.DistanceFunc, cap float64) (d float64, exceeded bool) {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0, false
		}
		return math.Inf(1), false
	}
	if len(b) > len(a) {
		a, b = b, a // roll rows over the shorter sequence: O(min(n,m)) space
	}
	g := dmatrix.NewFlyCross(a, b, df)
	m := len(b)
	rows := make([]float64, 3*m)
	ground, prev, cur := rows[:m], rows[m:2*m], rows[2*m:]
	capped := !math.IsInf(cap, 1)

	DFDBoundaryRow(g.Row(0, 0, m-1, ground), prev)
	// The boundary row is a running maximum, so its minimum is its first
	// cell.
	if capped && prev[0] >= cap {
		return prev[0], true
	}
	for i := 1; i < len(a); i++ {
		rowMin := DFDRelaxRow(g.Row(i, 0, m-1, ground), prev, cur)
		if capped && rowMin >= cap {
			return rowMin, true
		}
		prev, cur = cur, prev
	}
	return prev[m-1], false
}

// DFDDecision decides DFD(a, b) <= eps without computing the distance,
// abandoning as soon as no coupling within eps can continue. For finite
// eps it agrees exactly with DFD(a, b, df) <= eps, including at boundary
// values: two empty sequences (distance 0) are within any eps >= 0, and an
// empty sequence is within no finite radius of a non-empty one.
func DFDDecision(a, b []geo.Point, df geo.DistanceFunc, eps float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b) && eps >= 0
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	return decision(dmatrix.NewFlyCross(a, b, df), len(a), len(b), eps)
}

// DFDDecisionProjected decides DFD(a, b) <= eps for the haversine
// ground distance using planar squared distances in frame f for the
// per-cell comparisons, falling back to a real haversine evaluation for
// the cells the frame's certified band cannot decide (each fallback
// increments *fallbacks; nil is allowed). Every per-cell boolean equals
// the haversine comparison, so the result is byte-identical to
// DFDDecision(a, b, geo.Haversine, eps) by construction. pa and pb must
// be a's and b's points projected in f (or any frame with the same
// RefKey); an invalid frame or a negative eps routes the whole pair to
// DFDDecision, counted as one fallback.
func DFDDecisionProjected(a, b []geo.Point, pa, pb []geo.Projected, f geo.Frame, eps float64, fallbacks *int64) bool {
	if len(a) == 0 || len(b) == 0 {
		return len(a) == len(b) && eps >= 0
	}
	var scratch int64
	if fallbacks == nil {
		fallbacks = &scratch
	}
	if !f.OK() || !(eps >= 0) {
		*fallbacks++
		return DFDDecision(a, b, geo.Haversine, eps)
	}
	within2, beyond2 := f.Thresholds(eps)
	if len(b) > len(a) {
		a, b = b, a
		pa, pb = pb, pa
	}
	g := &projDecGrid{a: a, b: b, pa: pa, pb: pb, within2: within2, beyond2: beyond2, fallbacks: fallbacks}
	return decision(g, len(a), len(b), eps)
}

// DFDBoundaryRow is the first-row primitive: ground holds
// dG(i0, j0..j1), and dp[0..len(ground)-1] receives its running maximum,
// the DP boundary dF[i0][j0..j1]. Every value DP in the repository
// starts its sweep with this and continues it with DFDRelaxRow.
func DFDBoundaryRow(ground, dp []float64) {
	dp = dp[:len(ground)]
	run := math.Inf(-1)
	for k, d := range ground {
		if d > run {
			run = d
		}
		dp[k] = run
	}
}

// DFDRelaxRow advances the recurrence by one row: ground holds
// dG(ie, j0..j1) and prev the previous DP row dF[ie-1][j0..j1]. It fills
// cur[0..len(ground)-1] with dF[ie][j0..j1] — cur[0] is the boundary
// column max(dF[ie-1][j0], dG(ie, j0)), the rest follow the recurrence
// — and returns the row minimum, a lower bound on every cell of all
// later rows, which callers compare against a best-so-far bound to
// abandon early.
func DFDRelaxRow(ground, prev, cur []float64) (rowMin float64) {
	prev = prev[:len(ground)]
	cur = cur[:len(ground)]
	left := prev[0]
	if g := ground[0]; g > left {
		left = g
	}
	cur[0] = left
	rowMin = left
	for k := 1; k < len(ground); k++ {
		reach := prev[k]
		if v := prev[k-1]; v < reach {
			reach = v
		}
		if left < reach {
			reach = left
		}
		v := ground[k]
		if reach > v {
			v = reach
		}
		cur[k] = v
		left = v
		if v < rowMin {
			rowMin = v
		}
	}
	return rowMin
}
