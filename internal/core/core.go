// Package core implements the paper's primary contribution: exact
// trajectory motif discovery under the discrete Fréchet distance.
//
// It provides the baseline BruteDP (Algorithm 1) and the bounding-based
// BTM (Algorithm 2) for both problem variants — the motif within a single
// trajectory (Problem 1, with the non-overlap constraint i < ie < j < je)
// and the motif between two trajectories. The grouping-based GTM and GTM*
// algorithms in internal/group drive the same search engine through the
// exported Searcher type.
//
// The shared engine exploits the paper's observation that all candidates
// of a candidate subset CS_{i,j} (same start cell) share one dynamic
// program: dF[ie][je] = max(dG(ie,je), min of the three predecessors),
// swept once per subset with two rolling rows (O(n) working space).
//
// The search is parallel within a single discovery: the Searcher is a
// shared context (best-so-far bound with its witness, ε state, exclude
// predicate, merged statistics) coordinating per-worker sweep engines
// that drain one subset feed block-synchronously. Results and effort
// counters are byte-identical for every worker count; see engine.go for
// the determinism argument and Options.Workers for the knob.
package core

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"time"

	"trajmotif/internal/bounds"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/traj"
)

// BoundSet selects which lower bounds BTM uses, enabling the bound
// ablations of Figures 13-16.
type BoundSet int

const (
	// BoundsRelaxed is the paper's default configuration: LBcell plus the
	// relaxed O(1)-amortized cross and band bounds (§4.3-4.4).
	BoundsRelaxed BoundSet = iota
	// BoundsTight uses the unrelaxed per-subset bounds of §4.2 (O(n) and
	// O(ξn) per subset). Exponentially more expensive to evaluate over all
	// subsets; used by the tight-vs-relaxed study (Figures 13-14).
	BoundsTight
	// BoundsCellOnly uses only LBcell (Figure 16's first variant).
	BoundsCellOnly
	// BoundsCellCross uses LBcell + relaxed cross (Figure 16's second
	// variant).
	BoundsCellCross
)

func (b BoundSet) String() string {
	switch b {
	case BoundsRelaxed:
		return "cell+rcross+rband"
	case BoundsTight:
		return "tight"
	case BoundsCellOnly:
		return "cell"
	case BoundsCellCross:
		return "cell+rcross"
	}
	return fmt.Sprintf("BoundSet(%d)", int(b))
}

// Options tunes the search; the zero value requests the paper's defaults.
type Options struct {
	// Dist is the ground distance; nil selects geo.Haversine (§3).
	Dist geo.DistanceFunc
	// Bounds selects the bound configuration for BTM.
	Bounds BoundSet
	// Unsorted disables the ascending-LB processing order of §4.4
	// ("prioritizing search order"), for the search-order ablation.
	Unsorted bool
	// DisableEndCross disables the within-subset end-cross cap
	// (Alg. 2 lines 12-13), for ablation.
	DisableEndCross bool
	// CollectBreakdown computes the per-bound pruning attribution used by
	// Figure 15 after the search completes. Costs one extra O(n²) pass.
	CollectBreakdown bool
	// DisableEarlyAbandon turns off the kernel-level early abandoning of
	// subset dynamic programs against the best-so-far bound (on by
	// default), for the early-abandoning ablation. Never changes results,
	// only the number of DP cells expanded.
	DisableEarlyAbandon bool
	// Epsilon enables (1+ε)-approximate discovery, the future-work
	// direction of the paper's §7: a candidate set is pruned once its
	// lower bound reaches bsf/(1+ε), so the returned distance is at most
	// (1+ε) times the optimum. Zero keeps the search exact.
	Epsilon float64
	// Workers bounds within-search parallelism: the candidate-subset feed
	// is sharded across this many sweep engines draining one shared
	// best-so-far bound (see engine.go). Zero selects GOMAXPROCS; results
	// — including effort counters — are byte-identical for every worker
	// count. A custom Dist must be safe for concurrent use when more than
	// one worker runs.
	Workers int
	// Artifacts, when non-nil, supplies the ground-distance grid and the
	// relaxed bound tables instead of computing them from scratch — the
	// serve-mode trajectory store plugs in here so repeated queries skip
	// grid construction entirely. Reuse is credited to
	// Stats.GridRebuildsAvoided; results are unaffected because a
	// conforming source returns artifacts bit-identical to a fresh
	// computation. Ignored by GTM* (its on-the-fly grid is never
	// materialized, so there is nothing to reuse).
	Artifacts ArtifactSource
}

// ArtifactRequest describes the precomputed inputs of one search
// instance: the ground-distance grid between point sequences A and B (B
// aliases A for the single-trajectory problem) and, when WithBounds is
// set, the point-level relaxed bound tables for minimum motif length Xi.
type ArtifactRequest struct {
	A, B       []geo.Point
	Self       bool
	Xi         int
	WithBounds bool
	Dist       geo.DistanceFunc
	Workers    int
}

// ArtifactSource supplies search artifacts, possibly memoized across
// searches (the serve-mode store). Implementations must be safe for
// concurrent use and must return artifacts bit-identical to a fresh
// computation — sound across worker counts because dmatrix's parallel
// constructors are themselves bit-identical for every worker count.
// reused counts the constructions served from a cache instead of built
// (a grid and a bound table count one each); searches credit it to
// Stats.GridRebuildsAvoided.
type ArtifactSource interface {
	Artifacts(req ArtifactRequest) (g *dmatrix.Matrix, rb *bounds.Relaxed, reused int)
}

// computeArtifacts is the default source: always build, never cache.
type computeArtifacts struct{}

func (computeArtifacts) Artifacts(req ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	var g *dmatrix.Matrix
	if req.Self {
		g = dmatrix.ComputeSelfParallel(req.A, req.Dist, req.Workers)
	} else {
		g = dmatrix.ComputeCrossParallel(req.A, req.B, req.Dist, req.Workers)
	}
	var rb *bounds.Relaxed
	if req.WithBounds {
		rb = bounds.NewRelaxed(g, bounds.PointParams(req.Xi, req.Self))
	}
	return g, rb, 0
}

// ResolveArtifacts maps the Options.Artifacts convention to a concrete
// source: nil selects the always-compute default. Exported for the
// drivers outside this package (group's GTM) that resolve artifacts
// themselves.
func ResolveArtifacts(src ArtifactSource) ArtifactSource {
	if src == nil {
		return computeArtifacts{}
	}
	return src
}

func (o *Options) artifacts() ArtifactSource {
	if o == nil {
		return computeArtifacts{}
	}
	return ResolveArtifacts(o.Artifacts)
}

func (o *Options) dist() geo.DistanceFunc {
	if o == nil || o.Dist == nil {
		return geo.Haversine
	}
	return o.Dist
}

// Stats reports search effort and memory, feeding Figures 13-16 and 19.
type Stats struct {
	N, M, Xi int

	// Subsets is the number of feasible candidate subsets CS_{i,j}.
	Subsets int64
	// SubsetsProcessed survived every lower bound and had their DP run.
	SubsetsProcessed int64
	// SubsetsAbandoned counts processed subsets whose DP was cut short by
	// the kernel's early abandoning: a completed row's minimum proved no
	// remaining candidate could beat the best-so-far bound.
	SubsetsAbandoned int64
	// DPCells is the number of dynamic-programming cells expanded.
	DPCells int64
	// GridRebuildsAvoided counts ground-distance grid (and bound-array)
	// constructions skipped by reuse: top-k rounds after the first share
	// the first round's grid instead of recomputing it, and searches fed
	// from a memoizing ArtifactSource (the serve-mode store) credit every
	// cache hit here — extending the accounting across requests.
	GridRebuildsAvoided int64

	// Pruning attribution (filled when Options.CollectBreakdown is set):
	// each pruned subset is credited to the first bound that disqualifies
	// it, evaluated in the order cell, cross, band — the accounting of
	// Figure 15.
	PrunedByCell, PrunedByCross, PrunedByBand int64

	// Approximate principal memory: grid + bound arrays + candidate list.
	PeakBytes int64

	Precompute time.Duration
	Search     time.Duration
}

// PruneRatio returns the fraction of candidate subsets eliminated without
// a DFD computation.
func (s Stats) PruneRatio() float64 {
	if s.Subsets == 0 {
		return 0
	}
	return 1 - float64(s.SubsetsProcessed)/float64(s.Subsets)
}

// Result is a discovered motif: the two subtrajectory legs and their
// discrete Fréchet distance.
type Result struct {
	// A is the first leg S_{i,ie}; B is the second leg S_{j,je} (of the
	// same trajectory for Problem 1, of the second trajectory for the
	// two-trajectory variant).
	A, B traj.Span
	// Distance is the exact DFD of the pair, in the ground distance's
	// unit (meters under haversine).
	Distance float64
	Stats    Stats
}

// ErrTooShort is returned when no feasible candidate pair exists for the
// given trajectory length(s) and ξ.
var ErrTooShort = errors.New("core: trajectory too short for the requested minimum motif length")

// problem captures one search instance over a ground-distance grid.
type problem struct {
	g    dmatrix.Grid
	n, m int
	xi   int
	self bool
}

func (p problem) feasible() bool {
	if p.self {
		return p.n >= 2*p.xi+4
	}
	return p.n >= p.xi+2 && p.m >= p.xi+2
}

// CrossFeasible reports whether a two-trajectory instance with lengths n
// and m admits any candidate pair at minimum motif length xi — the exact
// condition under which the cross searches return ErrTooShort instead of
// a result. Pre-filters in front of the search (the spatial index ahead
// of batch.DiscoverAllPairsStream) must dispatch infeasible pairs anyway
// so their error items match the unfiltered path byte for byte.
func CrossFeasible(n, m, xi int) bool {
	return problem{n: n, m: m, xi: xi}.feasible()
}

// startRanges yields the feasible start-cell ranges. For Problem 1 a
// subset (i, j) is feasible iff some candidate i < ie < j < je with both
// legs longer than ξ steps exists: j in [i+ξ+2, n-ξ-2]. For the
// two-trajectory variant the legs are independent.
func (p problem) iMax() int {
	if p.self {
		return p.n - 2*p.xi - 4
	}
	return p.n - p.xi - 2
}

func (p problem) jRange(i int) (lo, hi int) {
	if p.self {
		return i + p.xi + 2, p.n - p.xi - 2
	}
	return 0, p.m - p.xi - 2
}

// ieMax returns the largest candidate end index of the first leg for a
// subset rooted at (i, j).
func (p problem) ieMax(j int) int {
	if p.self {
		return j - 1
	}
	return p.n - 1
}

// Searcher is the shared search context: it owns the problem geometry,
// the best-so-far motif bound (bsf) with its witness, the ε state, the
// exclude predicate, and the merged statistics, and it coordinates a pool
// of per-worker sweep engines (engine.go) that run the candidate-subset
// dynamic programs. It is shared by BTM (which feeds it every feasible
// subset in LB order) and by GTM/GTM* (which feed it only the subsets
// surviving group-level pruning, with a bsf possibly pre-tightened by
// group upper bounds).
type Searcher struct {
	p  problem
	rb *bounds.Relaxed // nil disables end-cross capping (BruteDP)

	bsf float64
	// bestKnown records whether bsf is witnessed by a concrete pair. Group
	// upper bounds (GUB_DFD, §5.3) may tighten bsf to the exact motif
	// value before any pair is materialized; in that state candidates
	// matching bsf exactly must still be accepted and subsets with
	// LB == bsf must still be expanded, or the motif would be lost.
	bestKnown bool
	best      Result
	// bestPos is the feed position of the witnessing subset, the
	// tie-breaking component of the canonical witness order (engine.go).
	bestPos int64
	// seq numbers consumed feed positions across ProcessList/ProcessSubset
	// calls so canonical positions stay globally ordered.
	seq int64

	endCross bool
	// earlyAbandon stops a subset's DP once a completed row's minimum —
	// a lower bound on every later cell (the kernel's row-crossing
	// argument) — can no longer beat bsf. On by default.
	earlyAbandon bool
	stats        Stats

	// approxFactor is 1+ε; Prunable compares bounds against
	// bsf/approxFactor, which yields a (1+ε)-approximation (see
	// Options.Epsilon). Exactly 1 for exact search.
	approxFactor float64

	// exclude, when non-nil, rejects candidate pairs during bsf updates;
	// used by top-k discovery to mask already-reported motifs.
	exclude func(a, b traj.Span) bool

	// workers is the sweep-engine pool size; engines are created lazily
	// and persist across blocks so DP scratch allocates once per worker.
	workers     int
	engines     []*engine
	survScratch []int
}

// NewSearcher builds a search engine over grid g. rb may be nil to forgo
// end-cross capping. For the single-trajectory problem, pass self=true.
// The searcher starts single-worker; see SetWorkers.
func NewSearcher(g dmatrix.Grid, xi int, self bool, rb *bounds.Relaxed, endCross bool) *Searcher {
	n, m := g.Dims()
	return &Searcher{
		p:            problem{g: g, n: n, m: m, xi: xi, self: self},
		rb:           rb,
		bsf:          math.Inf(1),
		endCross:     endCross && rb != nil,
		earlyAbandon: true,
		approxFactor: 1,
		workers:      1,
	}
}

// ResolveWorkers maps the Options.Workers convention to a concrete pool
// size: non-positive selects GOMAXPROCS.
func ResolveWorkers(w int) int {
	if w <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return w
}

// SetWorkers sizes the sweep-engine pool (non-positive selects
// GOMAXPROCS). The worker count never changes results or effort counters
// — see engine.go on determinism — only wall-clock time.
func (s *Searcher) SetWorkers(w int) { s.workers = ResolveWorkers(w) }

// Workers returns the resolved sweep-engine pool size.
func (s *Searcher) Workers() int { return s.workers }

// SetEarlyAbandon toggles the kernel-level early abandoning of subset DPs
// against the best-so-far bound. It is on by default; disabling it only
// increases the number of DP cells expanded, never changes results.
func (s *Searcher) SetEarlyAbandon(on bool) { s.earlyAbandon = on }

// SetEpsilon switches the searcher to (1+eps)-approximate pruning.
// Negative values are treated as zero (exact).
func (s *Searcher) SetEpsilon(eps float64) {
	if eps < 0 {
		eps = 0
	}
	s.approxFactor = 1 + eps
}

// SetExclude installs a candidate filter consulted before bsf updates;
// pairs the filter rejects are never reported (top-k support). Pass nil
// to clear.
func (s *Searcher) SetExclude(f func(a, b traj.Span) bool) { s.exclude = f }

// Snapshot freezes the current shared bound for a block of work; all
// pruning within the block consults the snapshot so the block's outcome
// is schedule-free.
func (s *Searcher) Snapshot() Snapshot {
	return Snapshot{bsf: s.bsf, known: s.bestKnown, approxFactor: s.approxFactor}
}

// Bsf returns the current best-so-far distance.
func (s *Searcher) Bsf() float64 { return s.bsf }

// TightenBsf lowers bsf to ub when ub is smaller. ub must be a valid upper
// bound on the motif distance (e.g. GUB_DFD of a feasible group pair); the
// concrete witnessing pair is left unknown.
func (s *Searcher) TightenBsf(ub float64) {
	if ub < s.bsf {
		s.bsf = ub
		s.bestKnown = false
	}
}

// Prunable reports whether a candidate set with lower bound lb can be
// skipped without losing the motif (or, with ε-approximation enabled,
// without losing the (1+ε) guarantee). The relaxation applies only once a
// concrete witness is held: while bsf rests on an unwitnessed group upper
// bound (GUB_DFD), relaxed pruning could discard every candidate matching
// bsf and end the search without a materialized pair, so until then only
// strictly-worse subsets are pruned. Loosening pruning can only process
// more subsets, so the (1+ε) guarantee is unaffected.
func (s *Searcher) Prunable(lb float64) bool {
	return prunable(lb, s.bsf, s.bestKnown, s.approxFactor)
}

// ProcessSubset expands candidate subset CS_{i,j}: one dynamic program
// over all end cells (ie, je), updating bsf whenever a feasible candidate
// improves it. This is the shared-DP insight of Algorithm 1 lines 4-13 and
// Algorithm 2 lines 6-11, run on a single sweep engine with the live
// shared bound as its snapshot and merged immediately — exactly the
// sequential semantics. Drivers with a whole feed of subsets should use
// ProcessList, which shards the feed across the worker pool.
func (s *Searcher) ProcessSubset(i, j int) {
	e := s.engineFor(0)
	e.reset(s, s.Snapshot())
	e.processSubset(s.seq, i, j)
	s.seq++
	s.mergeWitness(e.best)
	s.stats.mergeEffort(&e.stats)
}

// result finalizes the Result, verifying a witness exists.
func (s *Searcher) result() (*Result, error) {
	if !s.bestKnown {
		return nil, errors.New("core: internal error: search ended without a witnessed motif")
	}
	r := s.best
	r.Stats = s.stats
	return &r, nil
}

// Result finalizes and returns the search outcome; it errors if no
// concrete motif pair was witnessed (which, for a feasible instance fed
// every unpruned subset, indicates a driver bug).
func (s *Searcher) Result() (*Result, error) { return s.result() }

// Stats exposes the mutable search statistics for external drivers
// (GTM/GTM* account their grouping phases here).
func (s *Searcher) Stats() *Stats { return &s.stats }

// Feasible reports whether any candidate pair exists for this instance.
func (s *Searcher) Feasible() bool { return s.p.feasible() }

// IMax returns the largest feasible first-leg start index.
func (s *Searcher) IMax() int { return s.p.iMax() }

// JRange returns the feasible second-leg start range for first start i.
func (s *Searcher) JRange(i int) (lo, hi int) { return s.p.jRange(i) }

// BruteDP is Algorithm 1: enumerate every feasible start pair (i, j) and
// run the shared dynamic program, with all-pair ground distances
// precomputed. O(n⁴) time, O(n²) space.
func BruteDP(t *traj.Trajectory, xi int, opt *Options) (*Result, error) {
	return bruteDP(t.Points, t.Points, xi, true, opt)
}

// BruteDPCross is Algorithm 1 adapted to the two-trajectory variant (§3):
// the second leg ranges over trajectory u, without ordering constraints.
func BruteDPCross(t, u *traj.Trajectory, xi int, opt *Options) (*Result, error) {
	return bruteDP(t.Points, u.Points, xi, false, opt)
}

func bruteDP(a, b []geo.Point, xi int, self bool, opt *Options) (*Result, error) {
	if xi < 0 {
		return nil, fmt.Errorf("core: negative minimum motif length %d", xi)
	}
	workers := ResolveWorkers(optWorkers(opt))
	start := time.Now()
	g, _, reused := opt.artifacts().Artifacts(ArtifactRequest{
		A: a, B: b, Self: self, Dist: opt.dist(), Workers: workers,
	})
	s := NewSearcher(g, xi, self, nil, false)
	s.SetWorkers(workers)
	s.SetEarlyAbandon(opt == nil || !opt.DisableEarlyAbandon)
	if !s.p.feasible() {
		return nil, ErrTooShort
	}
	s.stats.N, s.stats.M, s.stats.Xi = s.p.n, s.p.m, xi
	s.stats.GridRebuildsAvoided = int64(reused)

	// Algorithm 1 has no bounds: feed every feasible subset with a
	// never-prunable LB, in start-cell order.
	neverPrune := math.Inf(-1)
	list := s.BuildEntries(func(i, j int) float64 { return neverPrune }, workers)
	s.stats.Subsets = int64(len(list))
	s.stats.PeakBytes = g.Bytes() + int64(len(list))*16
	s.stats.Precompute = time.Since(start)

	searchStart := time.Now()
	s.ProcessList(list, false)
	s.stats.Search = time.Since(searchStart)
	return s.result()
}

func optWorkers(opt *Options) int {
	if opt == nil {
		return 0
	}
	return opt.Workers
}

// BTM is Algorithm 2: compute lower bounds for every candidate subset,
// process subsets in ascending LB order, and stop as soon as the next
// bound reaches bsf. Worst case O(n⁴), typically orders of magnitude less.
func BTM(t *traj.Trajectory, xi int, opt *Options) (*Result, error) {
	return btm(t.Points, t.Points, xi, true, opt)
}

// BTMCross is Algorithm 2 for the two-trajectory variant.
func BTMCross(t, u *traj.Trajectory, xi int, opt *Options) (*Result, error) {
	return btm(t.Points, u.Points, xi, false, opt)
}

func btm(a, b []geo.Point, xi int, self bool, opt *Options) (*Result, error) {
	if xi < 0 {
		return nil, fmt.Errorf("core: negative minimum motif length %d", xi)
	}
	if opt == nil {
		opt = &Options{}
	}
	workers := ResolveWorkers(opt.Workers)
	start := time.Now()
	// Relaxed arrays are always requested: even in tight mode they back the
	// end-cross cap, whose relaxed form is what Alg. 2 uses at line 12.
	g, rb, reused := opt.artifacts().Artifacts(ArtifactRequest{
		A: a, B: b, Self: self, Xi: xi, WithBounds: true, Dist: opt.dist(), Workers: workers,
	})
	var tb *bounds.Tight
	if opt.Bounds == BoundsTight {
		tb = bounds.NewTight(g, xi, self)
	}

	s := NewSearcher(g, xi, self, rb, !opt.DisableEndCross)
	s.SetWorkers(workers)
	s.SetEpsilon(opt.Epsilon)
	s.SetEarlyAbandon(!opt.DisableEarlyAbandon)
	if !s.p.feasible() {
		return nil, ErrTooShort
	}
	s.stats.N, s.stats.M, s.stats.Xi = s.p.n, s.p.m, xi
	s.stats.GridRebuildsAvoided = int64(reused)

	subsetLB := func(i, j int) float64 {
		cell := g.At(i, j)
		switch opt.Bounds {
		case BoundsTight:
			return tb.SubsetLB(i, j)
		case BoundsCellOnly:
			return cell
		case BoundsCellCross:
			return math.Max(cell, rb.StartCross(i, j))
		default:
			return rb.SubsetLB(cell, i, j)
		}
	}

	// Build the candidate-subset list (Alg. 2 line 3) and order it
	// canonically — both sharded across the workers.
	list := s.BuildEntries(subsetLB, workers)
	s.stats.Subsets = int64(len(list))
	if !opt.Unsorted {
		SortEntries(list, workers)
	}
	s.stats.PeakBytes = g.Bytes() + rb.Bytes() + int64(len(list))*16
	s.stats.Precompute = time.Since(start)

	searchStart := time.Now()
	s.ProcessList(list, !opt.Unsorted)
	s.stats.Search = time.Since(searchStart)

	if opt.CollectBreakdown {
		collectBreakdown(&s.stats, g, rb, s.p, s.bsf)
	}
	return s.result()
}

// collectBreakdown attributes each pruned subset to the first bound that
// disqualifies it against the final bsf, evaluated cell → cross → band —
// the stacked-bar accounting of Figure 15. Subsets no bound eliminates are
// the ones whose exact DFD work was unavoidable.
func collectBreakdown(st *Stats, g dmatrix.Grid, rb *bounds.Relaxed, p problem, bsf float64) {
	st.PrunedByCell, st.PrunedByCross, st.PrunedByBand = 0, 0, 0
	var survived int64
	for i := 0; i <= p.iMax(); i++ {
		lo, hi := p.jRange(i)
		for j := lo; j <= hi; j++ {
			cell, cross, band := rb.Parts(g.At(i, j), i, j)
			switch {
			case cell >= bsf:
				st.PrunedByCell++
			case cross >= bsf:
				st.PrunedByCross++
			case band >= bsf:
				st.PrunedByBand++
			default:
				survived++
			}
		}
	}
	_ = survived // Subsets - pruned = survivors; derivable by callers
}
