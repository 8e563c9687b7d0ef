// Package group implements the paper's grouping-based solutions (§5): the
// multi-level GTM algorithm (Algorithm 3) and its space-efficient variant
// GTM* (§5.5).
//
// A trajectory is partitioned into groups of τ consecutive samples
// (Definition 4). For each pair of groups the minimum and maximum ground
// distances (dminG, dmaxG) bracket every point-pair distance between them
// (Corollary 1), which lifts the point-level lower bounds of §4 to group
// granularity (§5.2) and, through the interval DFD recurrence dFmin/dFmax
// (Definition 5, Lemma 3), yields a lower bound GLB_DFD that prunes whole
// group pairs and an upper bound GUB_DFD that tightens the best-so-far
// distance before any exact DFD is computed (§5.3, Lemma 4).
//
// GTM repeats grouping with halved τ on the surviving pairs until τ = 1,
// then finishes with the BTM search engine on the surviving candidate
// subsets. GTM* performs a single grouping pass and computes ground
// distances on the fly, bounding memory by O(max((n/τ)², n)).
//
// Both algorithms shard across core's worker pool (core.Options.Workers):
// level scans split by group row, the interval-DFD bound evaluations fan
// out per block of LB-sorted pairs with the tighten/prune bookkeeping
// replayed in canonical order, and the final point-level sweep runs on
// the block-synchronous core engine — so results and counters match the
// sequential run bit-for-bit at any worker count.
package group

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"time"

	"trajmotif/internal/bounds"
	"trajmotif/internal/core"
	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

// Level holds the τ-grouping of one ground-distance grid: for group pair
// (u, v), Dmin and Dmax are dminG(g_u, g_v) and dmaxG(g_u, g_v)
// (Eqs. 16-17).
type Level struct {
	Tau    int
	NA, NB int // group counts along each axis
	dmin   []float64
	dmax   []float64
}

// BuildLevel scans the grid once (O(n·m) distance evaluations) and folds
// every cell into its group pair's min/max.
func BuildLevel(g dmatrix.Grid, tau int) *Level {
	return buildLevel(g, tau, 1)
}

// newLevel allocates an na×nb level with every min at +Inf and every max
// at -Inf, the identities of the folds that fill it.
func newLevel(tau, na, nb int) *Level {
	lv := &Level{Tau: tau, NA: na, NB: nb, dmin: make([]float64, na*nb), dmax: make([]float64, na*nb)}
	for k := range lv.dmin {
		lv.dmin[k] = math.Inf(1)
		lv.dmax[k] = math.Inf(-1)
	}
	return lv
}

// buildLevel is BuildLevel with the scan sharded by group row: each
// worker owns a disjoint band of tau point rows, so the folds race on
// nothing, and min/max folding makes the result bit-identical for every
// worker count. Rows are read through dmatrix.RowRange, so a Matrix is
// scanned over its storage and a Fly fills one scratch row per worker.
func buildLevel(g dmatrix.Grid, tau, workers int) *Level {
	n, m := g.Dims()
	lv := newLevel(tau, (n+tau-1)/tau, (m+tau-1)/tau)
	scratch := make([][]float64, max(workers, 1))
	core.ParallelFor(workers, lv.NA, func(w, gi int) {
		if scratch[w] == nil {
			scratch[w] = make([]float64, m)
		}
		dmin := lv.dmin[gi*lv.NB : (gi+1)*lv.NB]
		dmax := lv.dmax[gi*lv.NB : (gi+1)*lv.NB]
		for i := gi * tau; i < min((gi+1)*tau, n); i++ {
			row := dmatrix.RowRange(g, i, 0, m-1, scratch[w])
			for gj := range dmin {
				lo, hi := dmin[gj], dmax[gj]
				for _, d := range row[gj*tau : min((gj+1)*tau, m)] {
					if d < lo {
						lo = d
					}
					if d > hi {
						hi = d
					}
				}
				dmin[gj], dmax[gj] = lo, hi
			}
		}
	})
	return lv
}

// foldLevel builds level 2τ from level τ. Group u at 2τ holds points
// [2uτ, 2uτ+2τ), which are exactly groups 2u and 2u+1 at τ — the second
// short or absent when the trajectory ends inside the pair, in which case
// the coarse group is short by the same points. Each coarse min/max is
// therefore the min/max of the same ground distances a direct scan would
// fold, taken over up to four fine pairs, and bit-identical to it.
func foldLevel(f *Level, workers int) *Level {
	lv := newLevel(2*f.Tau, (f.NA+1)/2, (f.NB+1)/2)
	core.ParallelFor(workers, lv.NA, func(_, u int) {
		dmin := lv.dmin[u*lv.NB : (u+1)*lv.NB]
		dmax := lv.dmax[u*lv.NB : (u+1)*lv.NB]
		for fu := 2 * u; fu < min(2*u+2, f.NA); fu++ {
			fmax := f.dmax[fu*f.NB : (fu+1)*f.NB]
			for fv, d := range f.dmin[fu*f.NB : (fu+1)*f.NB] {
				if d < dmin[fv>>1] {
					dmin[fv>>1] = d
				}
				if d := fmax[fv]; d > dmax[fv>>1] {
					dmax[fv>>1] = d
				}
			}
		}
	})
	return lv
}

// pyramid returns GTM's levels τ, τ/2, …, 2 — coarse first, the order
// Algorithm 3 consumes them — from one grid scan at τ = 2 and a 2×2 fold
// per coarser level. tau must be a power of two of at least 2.
func pyramid(g dmatrix.Grid, tau, workers int) []*Level {
	levels := []*Level{buildLevel(g, 2, workers)}
	for lv := levels[0]; lv.Tau < tau; {
		lv = foldLevel(lv, workers)
		levels = append(levels, lv)
	}
	slices.Reverse(levels)
	return levels
}

// Dmin returns dminG(g_u, g_v).
func (lv *Level) Dmin(u, v int) float64 { return lv.dmin[u*lv.NB+v] }

// Dmax returns dmaxG(g_u, g_v).
func (lv *Level) Dmax(u, v int) float64 { return lv.dmax[u*lv.NB+v] }

// Bytes returns the level's storage footprint (Figure 19 accounting).
func (lv *Level) Bytes() int64 { return int64(len(lv.dmin)+len(lv.dmax)) * 8 }

// minGrid adapts the Dmin matrix to the bounds.Grid interface so the
// relaxed bound machinery of §4.3 runs unchanged at group granularity
// (§5.2, "relaxed lower bounds for groups").
type minGrid struct{ lv *Level }

func (g minGrid) At(u, v int) float64 { return g.lv.Dmin(u, v) }
func (g minGrid) Dims() (int, int)    { return g.lv.NA, g.lv.NB }

// DFDBounds computes GLB_DFD(u, v) and GUB_DFD(u, v) (Eqs. 19-20) by the
// interval DFD dynamic program of Definition 5 — two runs of the canonical
// kernel's row recurrence over the level's rows, one over dminG and one
// over dmaxG — with the early-termination rule of §5.3: once the minimum
// over the DP frontier row can no longer improve either bound, the
// computation stops. cells counts the interval-DP cells filled (each
// holds a dFmin/dFmax pair).
//
// glb lower-bounds the DFD of every candidate rooted in (g_u, g_v)
// (subject to the minimum length ξ); gub, when finite, is the exact-DFD
// upper bound of a concrete feasible full-group pair and may therefore be
// used to tighten bsf. nPoints/mPoints are the underlying trajectory
// lengths, needed to honor length and overlap constraints on partial last
// groups. scratch holds the four DP rows when it has room for 4·(NB−v)
// values; otherwise they are allocated.
func (lv *Level) DFDBounds(u, v, xi int, self bool, nPoints, mPoints int, scratch []float64) (glb, gub float64, cells int64) {
	gxi := (xi + 1) / lv.Tau
	ueHi := lv.NA - 1
	if self && v < ueHi {
		ueHi = v // the first leg ends before the second starts (ie < j)
	}

	glb, gub = math.Inf(1), math.Inf(1)
	width := lv.NB - v
	if len(scratch) < 4*width {
		scratch = make([]float64, 4*width)
	}
	prevMin, curMin := scratch[:width], scratch[width:2*width]
	prevMax, curMax := scratch[2*width:3*width], scratch[3*width:4*width]
	// Level rows ue over columns v..NB-1.
	minRow := func(ue int) []float64 { return lv.dmin[ue*lv.NB+v : (ue+1)*lv.NB] }
	maxRow := func(ue int) []float64 { return lv.dmax[ue*lv.NB+v : (ue+1)*lv.NB] }

	// The feasibility tests split into a row part and a column part.
	// glb needs both legs at least gxi groups long: rows ue-u >= gxi and
	// columns k >= kGlb. gub needs the full-group pair itself to be a
	// feasible candidate — both legs longer than ξ steps and, for
	// Problem 1, strictly ordered — which holds on a row when gubRow(ue)
	// and on columns k >= kGub, since the last point index endB(v+k) of
	// column group v+k never decreases in k.
	endA := func(x int) int { return min((x+1)*lv.Tau-1, nPoints-1) }
	gubRow := func(ue int) bool {
		return endA(ue)-u*lv.Tau > xi && (!self || endA(ue) < v*lv.Tau)
	}
	kGlb := min(gxi, width)
	kGub := 0
	for kGub < width && min((v+kGub+1)*lv.Tau-1, mPoints-1)-v*lv.Tau <= xi {
		kGub++
	}
	consider := func(ue int, dmin, dmax []float64) {
		if ue-u >= gxi {
			glb = lowered(glb, dmin[kGlb:])
		}
		if gubRow(ue) {
			gub = lowered(gub, dmax[kGub:])
		}
	}

	// Boundary row ue = u: running max along ve.
	dist.DFDBoundaryRow(minRow(u), prevMin)
	dist.DFDBoundaryRow(maxRow(u), prevMax)
	cells = int64(width)
	consider(u, prevMin, prevMax)

	for ue := u + 1; ue <= ueHi; ue++ {
		frontier := dist.DFDRelaxRow(minRow(ue), prevMin, curMin)
		frontierMax := dist.DFDRelaxRow(maxRow(ue), prevMax, curMax)
		cells += int64(width)
		consider(ue, curMin, curMax)
		// Early termination: every later cell is at least the minimum of
		// this completed row (the kernel's row-crossing argument), so once
		// neither bound can improve, stop.
		if frontier >= glb && frontierMax >= gub {
			break
		}
		prevMin, curMin = curMin, prevMin
		prevMax, curMax = curMax, prevMax
	}
	return glb, gub, cells
}

// lowered returns the least of bound and the values of row below it.
func lowered(bound float64, row []float64) float64 {
	for _, f := range row {
		if f < bound {
			bound = f
		}
	}
	return bound
}

// pair is a candidate group pair with its pattern-bound LB.
type pair struct {
	lb   float64
	u, v int32
}

// Stats extends the core search statistics with grouping-phase counters.
type Stats struct {
	core.Stats
	// Levels actually executed (GTM halves τ; GTM* runs one).
	Levels int
	// GroupPairs evaluated across all levels; GroupPairsPruned were
	// eliminated by pattern bounds or GLB_DFD before reaching the next
	// level.
	GroupPairs       int64
	GroupPairsPruned int64
	// BsfTightenings counts successful GUB_DFD updates of bsf.
	BsfTightenings int64
	// PointCells that survived to the final point-level phase.
	PointCells int64
	// IntervalCells counts the interval-DFD cells (dFmin/dFmax pairs)
	// filled by the DFDBounds evaluations the canonical replay consumes,
	// so it is the same at every worker count.
	IntervalCells int64
}

// Result bundles the motif with grouping statistics.
type Result struct {
	core.Result
	Group Stats
}

// GTM is Algorithm 3 on a single trajectory: multi-level group pruning
// with initial group size tau, then the BTM engine on the survivors.
func GTM(t *traj.Trajectory, xi, tau int, opt *core.Options) (*Result, error) {
	return gtm(t.Points, t.Points, xi, tau, true, opt, false)
}

// GTMCross is Algorithm 3 for the two-trajectory variant.
func GTMCross(t, u *traj.Trajectory, xi, tau int, opt *core.Options) (*Result, error) {
	return gtm(t.Points, u.Points, xi, tau, false, opt, false)
}

// GTMStar is the space-efficient variant (§5.5): ground distances on the
// fly, O(n)-space DFD rows, and a single grouping pass for the given τ.
func GTMStar(t *traj.Trajectory, xi, tau int, opt *core.Options) (*Result, error) {
	return gtm(t.Points, t.Points, xi, tau, true, opt, true)
}

// GTMStarCross is GTM* for the two-trajectory variant.
func GTMStarCross(t, u *traj.Trajectory, xi, tau int, opt *core.Options) (*Result, error) {
	return gtm(t.Points, u.Points, xi, tau, false, opt, true)
}

func gtm(a, b []geo.Point, xi, tau int, self bool, opt *core.Options, star bool) (*Result, error) {
	if xi < 0 {
		return nil, fmt.Errorf("group: negative minimum motif length %d", xi)
	}
	if tau < 1 {
		return nil, fmt.Errorf("group: group size %d must be at least 1", tau)
	}
	if opt == nil {
		opt = &core.Options{}
	}
	df := geo.Haversine
	if opt.Dist != nil {
		df = opt.Dist
	}
	// GTM halves τ level by level; normalize to a power of two so halving
	// lands exactly on 1.
	for tau&(tau-1) != 0 {
		tau &= tau - 1
	}

	workers := core.ResolveWorkers(opt.Workers)
	start := time.Now()
	var grid dmatrix.Grid
	var gridBytes int64
	var rbPoint *bounds.Relaxed
	var reused int
	if star {
		// GTM* never materializes the grid (§5.5, Idea i), so there is
		// nothing for an ArtifactSource to reuse.
		grid = dmatrix.NewFlyCross(a, b, df)
		rbPoint = bounds.NewRelaxed(grid, bounds.PointParams(xi, self))
	} else {
		var m *dmatrix.Matrix
		m, rbPoint, reused = core.ResolveArtifacts(opt.Artifacts).Artifacts(core.ArtifactRequest{
			A: a, B: b, Self: self, Xi: xi, WithBounds: true, Dist: df, Workers: workers,
		})
		grid = m
		gridBytes = m.Bytes()
	}

	s := core.NewSearcher(grid, xi, self, rbPoint, !opt.DisableEndCross)
	s.SetWorkers(workers)
	s.SetEpsilon(opt.Epsilon)
	s.SetEarlyAbandon(!opt.DisableEarlyAbandon)
	if !s.Feasible() {
		return nil, core.ErrTooShort
	}
	n, m := grid.Dims()
	gst := Stats{}
	st := s.Stats()
	st.N, st.M, st.Xi = n, m, xi
	st.GridRebuildsAvoided = int64(reused)
	st.PeakBytes = gridBytes + rbPoint.Bytes()

	// levels lists the grouping levels coarse to fine: GTM's whole
	// pyramid τ, τ/2, …, 2, or GTM*'s single pass at τ (§5.5, Idea iii),
	// scanned directly from its on-the-fly grid.
	var levels []*Level
	switch {
	case tau < 2:
	case star:
		levels = []*Level{buildLevel(grid, tau, workers)}
	default:
		levels = pyramid(grid, tau, workers)
	}

	// survivors tracks surviving group pairs at the current τ.
	var survivors []pair
	for li, lv := range levels {
		grb := bounds.NewRelaxed(minGrid{lv}, bounds.GroupParams(xi, lv.Tau, self))
		st.PeakBytes += lv.Bytes() + grb.Bytes()
		gst.Levels++

		var cand []pair
		if li == 0 {
			cand = enumerateFeasible(lv, s)
		} else {
			cand = childPairs(survivors, lv, s)
		}
		for k := range cand {
			u, v := int(cand[k].u), int(cand[k].v)
			cand[k].lb = grb.SubsetLB(lv.Dmin(u, v), u, v)
		}
		slices.SortFunc(cand, func(x, y pair) int {
			if c := cmp.Compare(x.lb, y.lb); c != 0 {
				return c
			}
			if c := cmp.Compare(x.u, y.u); c != 0 {
				return c
			}
			return cmp.Compare(x.v, y.v)
		})

		gst.GroupPairs += int64(len(cand))
		survivors = refineLevel(s, lv, cand, survivors[:0], &gst, xi, self, n, m)
	}

	// Expand surviving group pairs to point-level candidate subsets. When
	// grouping never ran (tau == 1), fall back to every feasible cell.
	var cells []core.Entry
	if len(levels) == 0 {
		// No grouping level executed (tau == 1): enumerate all subsets.
		for i := 0; i <= s.IMax(); i++ {
			lo, hi := s.JRange(i)
			for j := lo; j <= hi; j++ {
				cells = append(cells, core.Entry{LB: rbPoint.SubsetLB(grid.At(i, j), i, j), I: int32(i), J: int32(j)})
			}
		}
	} else {
		// Distinct surviving pairs cover disjoint (i, j) regions, so no
		// dedup is needed when expanding to point cells.
		lastTau := levels[len(levels)-1].Tau
		for _, pr := range survivors {
			iLo, iHi := int(pr.u)*lastTau, min((int(pr.u)+1)*lastTau-1, n-1)
			for i := iLo; i <= iHi && i <= s.IMax(); i++ {
				jLo, jHi := s.JRange(i)
				jLo = max(jLo, int(pr.v)*lastTau)
				jHi = min(jHi, (int(pr.v)+1)*lastTau-1)
				for j := jLo; j <= jHi; j++ {
					cells = append(cells, core.Entry{LB: rbPoint.SubsetLB(grid.At(i, j), i, j), I: int32(i), J: int32(j)})
				}
			}
		}
	}
	core.SortEntries(cells, workers)
	gst.PointCells = int64(len(cells))
	st.Subsets = int64(len(cells))
	st.PeakBytes += int64(len(cells)) * 16
	st.Precompute = time.Since(start)

	searchStart := time.Now()
	s.ProcessList(cells, true)
	st.Search = time.Since(searchStart)

	res, err := s.Result()
	if err != nil {
		return nil, err
	}
	gst.Stats = res.Stats
	return &Result{Result: *res, Group: gst}, nil
}

// pairBlock is the barrier interval of the group-pair feed. Like the
// core engine's listBlock it must not depend on the worker count: block
// boundaries define the deterministic snapshot sequence.
const pairBlock = 64

// refineLevel runs one grouping level's prune/refine pass over the
// LB-sorted candidate pairs: interval-DFD bounds (GLB_DFD/GUB_DFD) for
// every pair that survives its lower bound, GUB tightenings of bsf, and
// the sorted stopping rule. The expensive part — DFDBounds, a pure
// function of the pair — is fanned across the searcher's workers in
// blocks; the bookkeeping (tighten, prune, survive, the Figure-15-style
// counters) is then replayed sequentially in canonical order against the
// live bound, so the outcome, including every counter, is exactly the
// sequential algorithm's for any worker count.
func refineLevel(s *core.Searcher, lv *Level, cand, next []pair, gst *Stats, xi int, self bool, n, m int) []pair {
	type pairBounds struct {
		glb, gub float64
		cells    int64
	}
	workers := s.Workers()
	// One buffer of four DP rows per worker, reused across pairs.
	scratch := make([][]float64, max(workers, 1))
	for w := range scratch {
		scratch[w] = make([]float64, 4*lv.NB)
	}
	for base := 0; base < len(cand); base += pairBlock {
		hi := min(base+pairBlock, len(cand))
		block := cand[base:hi]
		snap := s.Snapshot()

		// Speculatively evaluate the interval DFD for the block's
		// lb-survivors under the frozen snapshot. The replay below prunes
		// with the live (tighter or, in the ε corner after an unwitnessed
		// GUB tightening, differently-relaxed) bound, so it may use fewer
		// of these — or, rarely, need one the speculation skipped, which
		// it then computes inline.
		cut := sort.Search(len(block), func(k int) bool { return snap.Prunable(block[k].lb) })
		bnds := make([]pairBounds, cut)
		core.ParallelFor(workers, cut, func(w, k int) {
			b := &bnds[k]
			b.glb, b.gub, b.cells = lv.DFDBounds(int(block[k].u), int(block[k].v), xi, self, n, m, scratch[w])
		})

		// Replay Algorithm 3's bookkeeping in canonical order.
		for k, pr := range block {
			if s.Prunable(pr.lb) {
				gst.GroupPairsPruned += int64(len(cand) - (base + k))
				return next
			}
			var b pairBounds
			if k < cut {
				b = bnds[k]
			} else {
				b.glb, b.gub, b.cells = lv.DFDBounds(int(pr.u), int(pr.v), xi, self, n, m, scratch[0])
			}
			gst.IntervalCells += b.cells
			if !math.IsInf(b.gub, 1) && b.gub < s.Bsf() {
				s.TightenBsf(b.gub)
				gst.BsfTightenings++
			}
			if s.Prunable(b.glb) {
				gst.GroupPairsPruned++
				continue
			}
			next = append(next, pair{u: pr.u, v: pr.v})
		}
	}
	return next
}

// enumerateFeasible lists every group pair that can contain a feasible
// candidate start cell.
func enumerateFeasible(lv *Level, s *core.Searcher) []pair {
	var out []pair
	for u := 0; u < lv.NA; u++ {
		iLo := u * lv.Tau
		if iLo > s.IMax() {
			break
		}
		jLo, jHi := s.JRange(iLo)
		vLo, vHi := jLo/lv.Tau, min(jHi/lv.Tau, lv.NB-1)
		for v := vLo; v <= vHi; v++ {
			out = append(out, pair{u: int32(u), v: int32(v)})
		}
	}
	return out
}

// childPairs splits each surviving pair at size 2τ into its up-to-four
// children at size τ, keeping those that still contain feasible starts.
// Survivors are distinct and a child (u, v) has the one parent
// (u/2, v/2), so the children are distinct too.
func childPairs(parents []pair, lv *Level, s *core.Searcher) []pair {
	var out []pair
	for _, p := range parents {
		for du := 0; du < 2; du++ {
			for dv := 0; dv < 2; dv++ {
				u, v := 2*int(p.u)+du, 2*int(p.v)+dv
				if u >= lv.NA || v >= lv.NB {
					continue
				}
				iLo := u * lv.Tau
				if iLo > s.IMax() {
					continue
				}
				jLo, jHi := s.JRange(iLo)
				if (v+1)*lv.Tau-1 < jLo || v*lv.Tau > jHi {
					continue
				}
				out = append(out, pair{u: int32(u), v: int32(v)})
			}
		}
	}
	return out
}
