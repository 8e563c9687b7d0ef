package dist

// This file is the canonical discrete Fréchet kernel: every DFD dynamic
// program in the repository — exact, capped, and decision — reduces to
// the row recurrence below. It lives in two forms over a ground row:
// DFDBoundaryRow and DFDRelaxRow fill a whole row already in memory, and
// DFDWindowRow fills only the live window of a row under a cap, asking
// for the ground distances of the columns it visits. DFDCapped (and so
// DFD) sweeps DFDWindowRow over dmatrix.Fly rows computed from the point
// pairs; internal/core's subset sweep reads matrix or Fly rows through
// dmatrix.RowRange, and internal/group's interval DP reads level rows,
// both through DFDRelaxRow. decision is the boolean twin behind
// DFDDecision and DFDDecisionProjected, generic over the grid so the
// projected tri-state cells need no row fill. internal/join,
// internal/knn, internal/core and internal/group all route through these
// entry points; no other package carries its own Fréchet recurrence, so
// an optimization here speeds every caller.
//
// The recurrence (Eiter & Mannila 1994) over a ground-distance source g is
//
//	dF[i][j] = max(g(i, j), min(dF[i-1][j], dF[i][j-1], dF[i-1][j-1]))
//
// swept with two rolling rows in O(n·m) time and O(m) working space. Three
// facts about the table back the capped variants:
//
//   - row crossing: every coupling advances the first cursor one row at a
//     time, so any path to the final cell passes through every row; table
//     values are non-decreasing along a path, hence the minimum of any
//     completed row lower-bounds the final value. Once a row's minimum
//     reaches the cap, no coupling can finish below it (early abandoning).
//   - dead cells stay dead: a cell at or above the cap cannot lower any
//     cell it feeds below the cap, since every cell is the maximum of its
//     ground distance and its cheapest predecessor. So a row only needs
//     the columns some live cell of the previous row, or its own live
//     left neighbour, reaches (the live window), and +Inf can stand in
//     for every dead cell without changing a live one (Alt & Godau 1995;
//     Bringmann, Künnemann & Nusser, SoCG 2019).
//   - the same holds per column, which the decision DP exploits by killing
//     cells above eps and abandoning when a whole row is dead.
//
// The decision DP is preceded by a certificate in the other direction:
// any one coupling whose cells are all within eps proves DFD <= eps, so
// a greedy walk that reaches the final cell answers "yes" in O(n+m).
// GreedyBound turns the same idea into a value: the bottleneck of one
// greedy coupling, an upper bound on DFD that lets a caller measure a
// candidate inside a radius it has already certified.

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

// GreedyBound returns the bottleneck of one monotone coupling of a and
// b, walked in O(n+m) ground distances: from (0, 0), step to the cheapest
// of the diagonal, row and column successors (the diagonal on ties) until
// (n-1, m-1). DFD(a, b, df) <= GreedyBound(a, b, df) holds in floats, not
// just in reals: the DP's minima and maxima only select among the same
// ground values, so its corner is the bottleneck of its best coupling and
// can be no larger than this one's. DFDCapped at the next float above it
// therefore never abandons. Empty-sequence conventions follow DFD.
func GreedyBound(a, b []geo.Point, df geo.DistanceFunc) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return math.Inf(1)
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	g := dmatrix.NewFlyCross(a, b, df)
	n, m := len(a), len(b)
	i, j := 0, 0
	bound := g.At(0, 0)
	for i < n-1 || j < m-1 {
		var d float64
		switch {
		case i == n-1:
			j++
			d = g.At(i, j)
		case j == m-1:
			i++
			d = g.At(i, j)
		default:
			d = g.At(i+1, j+1)
			di, dj := 1, 1
			if v := g.At(i+1, j); v < d {
				d, di, dj = v, 1, 0
			}
			if v := g.At(i, j+1); v < d {
				d, di, dj = v, 0, 1
			}
			i, j = i+di, j+dj
		}
		if d > bound {
			bound = d
		}
	}
	return bound
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

// DFDCapped computes the discrete Fréchet distance inside a radius: it
// returns (DFD(a, b), false) exactly when DFD(a, b) < cap, and
// (cap, true) otherwise, so an abandoned result is still a lower bound at
// or above the cap. A cap of +Inf is DFD(a, b) exactly. It sweeps
// DFDWindowRow, filling each ground row through dmatrix.Fly.Row over the
// columns the previous row's live window reaches: a cell whose value
// reaches the cap is dead, a column no live cell reaches never computes
// its ground distance, and the sweep stops at the first dead row.
//
// Searchers use this to verify candidates against a best-so-far bound,
// and to measure candidates already certified within a radius at the
// cost of the cells inside it. Empty-sequence conventions follow DFD,
// with exceeded == false.
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
	scratch, prev, cur := rows[:m], rows[m:2*m], rows[2*m:]
	i := 0
	ground := func(j0, j1 int) []float64 { return g.Row(i, j0, j1, scratch) }

	lo, hi, _ := DFDWindowRow(ground, nil, prev, 0, 0, cap)
	for i = 1; i < len(a) && lo <= hi; i++ {
		lo, hi, _ = DFDWindowRow(ground, prev, cur, lo, hi, cap)
		prev, cur = cur, prev
	}
	if hi < m-1 {
		return cap, true // the corner is dead, or no coupling got that far
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

// DFDWindowRow is the capped, live-window row primitive. A cell is live
// when its DP value is below cap and dead otherwise; a dead cell never
// feeds a live one, since every cell is at least its cheapest
// predecessor. The call advances the recurrence by one row i:
//
//   - prev holds dF[i-1][·] with every live cell inside [lo, hi] and
//     +Inf in prev[hi+1] (when it exists); nothing else of prev is read.
//     prev == nil selects the boundary row i = 0, the running maximum of
//     dG(0, ·), and ignores lo and hi. An empty window (lo > hi) comes
//     back unchanged: a dead row only feeds dead rows.
//   - ground(j0, j1) returns dG(i, j0..j1). It is called once for the
//     columns lo..hi+1 the previous window reaches, then once per column
//     while the left neighbour stays live, so a column no live cell can
//     reach never computes its ground distance.
//   - cur receives the row on every visited column, +Inf in each dead
//     cell. When the row has a live cell, cur[nhi+1] (when it exists) is
//     visited, so it holds the +Inf the next call reads.
//
// It returns the new live window [nlo, nhi] — nlo > nhi when the whole
// row is dead and no coupling can finish below cap — and the minimum of
// its live cells (+Inf when there are none). Every live cell equals the
// full recurrence bit for bit; at cap +Inf each visited cell equals
// DFDBoundaryRow/DFDRelaxRow's, since only a +Inf cell is dead.
func DFDWindowRow(ground func(j0, j1 int) []float64, prev, cur []float64, lo, hi int, cap float64) (nlo, nhi int, rowMin float64) {
	m := len(cur)
	dead := math.Inf(1)
	if prev != nil && lo > hi {
		return lo, hi, dead // a dead row only feeds dead rows
	}
	nhi, rowMin = -1, dead
	// left is cur[k-1] for the next column k; (0, 0) has no predecessor.
	left, k := math.Inf(-1), 0
	if prev != nil {
		end := min(hi+1, m-1)
		g := ground(lo, end)
		p, c := prev[lo:end+1], cur[lo:end+1]
		p, c = p[:len(g)], c[:len(g)]
		// prev[lo-1] and cur[lo-1] are dead: column lo is reached from
		// prev[lo] alone, the boundary column's rule.
		diag := dead
		left = dead
		for j, up := range p {
			reach := up
			if diag < reach {
				reach = diag
			}
			if left < reach {
				reach = left
			}
			diag = up
			v := g[j]
			if reach > v {
				v = reach
			}
			if v < cap {
				nhi = lo + j
				if v < rowMin {
					rowMin = v
				}
			} else {
				v = dead
			}
			c[j] = v
			left = v
		}
		k = end + 1
	}
	// Past the window only the left neighbour reaches a cell.
	for ; k < m && left < cap; k++ {
		v := ground(k, k)[0]
		if left > v {
			v = left
		}
		if v < cap {
			nhi = k
			if v < rowMin {
				rowMin = v
			}
		} else {
			v = dead
		}
		cur[k] = v
		left = v
	}
	if prev == nil {
		lo = 0
	}
	for nlo = lo; nlo <= nhi && !(cur[nlo] < cap); nlo++ {
	}
	return nlo, nhi, rowMin
}
