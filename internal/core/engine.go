// Parallel search engine: the Searcher split into a shared best-so-far
// bound (coordinator-owned between block barriers) and per-worker sweep
// engines owning the rolling DP rows, so one subset feed can be drained
// by N workers while every worker prunes against a single tightening
// bound.
//
// # Determinism
//
// Parallel search must return byte-identical Results — distance bits,
// witness spans, and effort counters — for every worker count, or the
// golden regression suite (and any caller comparing runs) becomes
// scheduling-dependent. The design that guarantees this is
// block-synchronous:
//
//   - The ordered candidate list is consumed in fixed-size blocks
//     (listBlock entries) whose boundaries do not depend on the worker
//     count.
//   - Every subset in a block is prune-tested against the same Snapshot
//     of the shared bound, taken at the block boundary. Within a block
//     the shared bound is frozen: a subset's entire DP outcome — cells
//     expanded, rows abandoned, candidates accepted — is a pure function
//     of (subset, snapshot), so it does not matter which worker runs it
//     or in what wall-clock order.
//   - At the block barrier the per-worker witnesses and stats merge into
//     the shared state. The winning witness is chosen by the canonical
//     total order (smaller distance, then smaller position in the feed),
//     which is what the sequential scan computes implicitly; merging is
//     therefore commutative and schedule-free.
//
// Pruning soundness is unaffected by sharing: the shared bound only ever
// tightens, and a bound valid at a block boundary remains valid (if
// conservative) for every subset of the block. The price of determinism
// is that a worker cannot use a sibling's mid-block discovery to prune —
// the bound is at most one block stale — which costs a bounded amount of
// extra DP work and buys bit-reproducibility, including under
// (1+ε)-approximate pruning where a scheduling-dependent bound would
// change not just effort but the returned motif.
package core

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"trajmotif/internal/bounds"
	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/traj"
)

// listBlock is the barrier interval of the subset feed. It must not
// depend on the worker count (block boundaries define the deterministic
// snapshot sequence); 256 keeps the shared bound at most a few hundred
// subsets stale while giving each barrier enough work to amortize the
// fork-join.
const listBlock = 256

// Entry is one candidate subset CS_{i,j} with its combined lower bound,
// the unit of work fed to ProcessList.
type Entry struct {
	LB   float64
	I, J int32
}

// Snapshot is an immutable view of the shared best-so-far state at a
// block boundary. All pruning decisions inside the block consult it (and
// only it), which is what makes parallel runs deterministic.
type Snapshot struct {
	bsf          float64
	known        bool // a concrete witnessing pair backs bsf
	approxFactor float64
}

// Bsf returns the snapshot's best-so-far distance.
func (sn Snapshot) Bsf() float64 { return sn.bsf }

// Witnessed reports whether the snapshot's bound is backed by a concrete
// candidate pair (as opposed to a group upper bound, GUB_DFD).
func (sn Snapshot) Witnessed() bool { return sn.known }

// prunable is the single pruning predicate every layer consults —
// Searcher.Prunable (live bound), Snapshot.Prunable (frozen block
// bound), and the within-subset bound chain in processSubset. While the
// bound is unwitnessed only strictly-worse candidate sets are pruned
// (the ε-witness-loss rule of PR 2: relaxed pruning before a concrete
// pair exists could discard every candidate matching the bound); the
// (1+ε) relaxation applies only once a witness is held.
func prunable(lb, bsf float64, known bool, approxFactor float64) bool {
	if !known {
		return lb > bsf
	}
	threshold := bsf
	if approxFactor > 1 && !math.IsInf(threshold, 1) {
		threshold /= approxFactor
	}
	return lb >= threshold
}

// Prunable mirrors Searcher.Prunable against the frozen snapshot.
func (sn Snapshot) Prunable(lb float64) bool {
	return prunable(lb, sn.bsf, sn.known, sn.approxFactor)
}

// witness is a candidate pair found by a worker, tagged with the
// position of its subset in the feed so ties resolve canonically.
type witness struct {
	ok   bool
	dist float64
	a, b traj.Span
	pos  int64
}

// better reports whether w precedes o in the canonical total order:
// smaller distance first, then smaller feed position. This is the order
// the sequential scan realizes implicitly (it keeps the first candidate
// attaining the final optimum), so merging per-worker witnesses with it
// reproduces the sequential answer.
func (w witness) better(o witness) bool {
	if !w.ok {
		return false
	}
	if !o.ok {
		return true
	}
	if w.dist != o.dist {
		return w.dist < o.dist
	}
	return w.pos < o.pos
}

// engine is one worker's sweep state: the rolling DP rows and scratch
// plus per-block accumulators. Everything it shares with its siblings —
// the grid, the bound arrays, the exclude predicate — is read-only for
// the duration of a block.
type engine struct {
	p            *problem
	rb           *bounds.Relaxed
	endCross     bool
	earlyAbandon bool
	approxFactor float64
	exclude      func(a, b traj.Span) bool

	snap  Snapshot
	best  witness
	stats Stats

	// prev and cur are the rolling DP rows; row is scratch for ground
	// rows of a grid that is not materialized (GTM*'s Fly).
	prev, cur, row []float64
}

func newEngine(s *Searcher) *engine {
	return &engine{
		p:    &s.p,
		prev: make([]float64, s.p.m),
		cur:  make([]float64, s.p.m),
		row:  make([]float64, s.p.m),
	}
}

// reset re-syncs the engine with the searcher's configuration (the
// setters may run between searches), clears the per-block accumulators,
// and installs the block snapshot.
func (e *engine) reset(s *Searcher, snap Snapshot) {
	e.rb = s.rb
	e.endCross = s.endCross
	e.earlyAbandon = s.earlyAbandon
	e.approxFactor = s.approxFactor
	e.exclude = s.exclude
	e.snap = snap
	e.best = witness{}
	e.stats = Stats{}
}

// abandonable reports whether a DP row minimum proves that no remaining
// cell of the current subset can change the search outcome. It mirrors
// the candidate-acceptance predicate exactly and deliberately does not
// apply Prunable's (1+ε) relaxation: early abandoning is a pure
// work-saver and must never change results, even in approximate mode.
func abandonable(rowMin, bsf float64, known bool) bool {
	if known {
		return rowMin >= bsf
	}
	return rowMin > bsf
}

// processSubset expands candidate subset CS_{i,j} at feed position pos:
// one dynamic program over all end cells (ie, je). The effective bound
// starts at the block snapshot and tightens only with candidates found
// inside this subset, keeping the outcome a pure function of
// (subset, snapshot) — see the package comment on determinism. The two
// subset-level cuts of the sequential engine are preserved:
//
//   - end-cross cap: every candidate ending at a row beyond je must cross
//     row je+1, so its DFD is at least Rmin[je]; once that disqualifies,
//     the row horizon shrinks (relaxed Eq. 9/13; Alg. 2 lines 12-13);
//   - early abandoning: the kernel row minimum lower-bounds every cell of
//     all later rows, so once it is prunable against the bound the whole
//     rest of the subset's DP is skipped.
func (e *engine) processSubset(pos int64, i, j int) {
	p := e.p
	ieHi := p.ieMax(j)
	jmax := p.m - 1
	e.stats.SubsetsProcessed++

	// Within-subset effective bound: snapshot + this subset's own finds.
	eb, eknown := e.snap.bsf, e.snap.known
	prunableEff := func(lb float64) bool {
		return prunable(lb, eb, eknown, e.approxFactor)
	}

	// Boundary row (ie = i): dF[i][je] is the running max of dG(i, j..je),
	// the DFD of the single-point prefix against the growing second leg.
	dist.DFDBoundaryRow(dmatrix.RowRange(p.g, i, j, jmax, e.row), e.prev)

	cells := int64(0)
	for ie := i + 1; ie <= ieHi; ie++ {
		// End-cross cap, re-evaluated per row as the bound tightens.
		if e.endCross {
			for je := j; je < jmax; je++ {
				if prunableEff(e.rb.EndRowMin(je)) {
					jmax = je
					break
				}
			}
		}

		rowMin := dist.DFDRelaxRow(dmatrix.RowRange(p.g, ie, j, jmax, e.row), e.prev, e.cur)
		cells += int64(jmax-j) + 1

		// Candidate scan: cells with both legs longer than ξ steps.
		if ie >= i+p.xi+1 {
			for je := j + p.xi + 1; je <= jmax; je++ {
				v := e.cur[je-j]
				if v < eb || (!eknown && v <= eb) {
					a := traj.Span{Start: i, End: ie}
					b := traj.Span{Start: j, End: je}
					if e.exclude == nil || !e.exclude(a, b) {
						eb, eknown = v, true
						if w := (witness{ok: true, dist: v, a: a, b: b, pos: pos}); w.better(e.best) {
							e.best = w
						}
					}
				}
			}
		}

		if e.earlyAbandon && abandonable(rowMin, eb, eknown) {
			if ie < ieHi {
				e.stats.SubsetsAbandoned++
			}
			break
		}
		e.prev, e.cur = e.cur, e.prev
	}
	e.stats.DPCells += cells
}

// engineFor returns the k-th cached worker engine, creating it (and any
// missing predecessors) on demand. Engines persist across blocks so the
// DP row scratch is allocated once per worker per search.
func (s *Searcher) engineFor(k int) *engine {
	for len(s.engines) <= k {
		s.engines = append(s.engines, newEngine(s))
	}
	return s.engines[k]
}

// mergeWitness folds a worker's best candidate into the shared state at
// a block barrier, preserving the sequential acceptance semantics: a
// strictly better distance always wins; an equal distance wins only over
// an unwitnessed bound (the GUB_DFD equality case) or, canonically, over
// a witness later in the feed.
func (s *Searcher) mergeWitness(w witness) {
	switch {
	case !w.ok:
		return
	case w.dist < s.bsf, !s.bestKnown && w.dist <= s.bsf:
		s.bsf = w.dist
	case s.bestKnown && w.dist == s.best.Distance && w.pos < s.bestPos:
		// Equal-distance witness earlier in canonical order: adopt the
		// canonical one; the bound itself is unchanged.
	default:
		return
	}
	s.bestKnown = true
	s.best.A, s.best.B, s.best.Distance = w.a, w.b, w.dist
	s.bestPos = w.pos
}

// mergeEffort folds a worker's per-block effort counters into the shared
// stats. Every exported Stats field must either be folded here or appear
// in the exempt directive below — motiflint's statsmerge analyzer fails
// the build otherwise, so a new per-worker counter cannot be forgotten.
//
//statsmerge:exempt N M Xi Subsets GridRebuildsAvoided PrunedByCell PrunedByCross PrunedByBand PeakBytes Precompute Search -- coordinator-owned: set once per search on the shared Stats (sizing, precompute pruning, wall time); workers only ever increment the three folded counters
func (st *Stats) mergeEffort(o *Stats) {
	st.SubsetsProcessed += o.SubsetsProcessed
	st.SubsetsAbandoned += o.SubsetsAbandoned
	st.DPCells += o.DPCells
}

// ProcessList drains an ordered candidate-subset feed across the
// searcher's workers, block-synchronously (see the package comment).
// With sorted=true the feed must be in ascending-LB order; once a block
// boundary proves the next bound prunable, the remainder of the feed is
// skipped (Alg. 2's stopping rule). With sorted=false every entry is
// prune-tested individually. Results, including effort counters, are
// identical for every worker count.
func (s *Searcher) ProcessList(list []Entry, sorted bool) {
	for base := 0; base < len(list); base += listBlock {
		hi := min(base+listBlock, len(list))
		block := list[base:hi]
		snap := s.Snapshot()

		// Survivors of the block under the frozen snapshot.
		var surv []int // offsets into block
		if sorted {
			cut := sort.Search(len(block), func(k int) bool { return snap.Prunable(block[k].LB) })
			if cut == 0 {
				break // ascending LBs: everything remaining is prunable
			}
			surv = s.survScratch[:0]
			for k := 0; k < cut; k++ {
				surv = append(surv, k)
			}
		} else {
			surv = s.survScratch[:0]
			for k := range block {
				if !snap.Prunable(block[k].LB) {
					surv = append(surv, k)
				}
			}
		}
		s.survScratch = surv[:0]
		if len(surv) == 0 {
			continue
		}
		s.runBlock(block, int64(base), surv, snap)
	}
	s.seq += int64(len(list))
}

// ParallelFor runs fn(w, k) for every 0 <= k < n over a bounded worker
// pool; w < min(workers, n) names the worker running k, so callers can
// keep per-worker scratch. Each fn(w, k) must be independent of the
// others (outputs land in per-k slots), which keeps the result
// schedule-free. workers <= 1 runs inline as worker 0.
func ParallelFor(workers, n int, fn func(w, k int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for k := 0; k < n; k++ {
			fn(0, k)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= n {
					return
				}
				fn(w, k)
			}
		}()
	}
	wg.Wait()
}

// entryLess is the canonical feed order: ascending lower bound, ties
// broken by start cell. It is a total order, so every sorting strategy —
// the stdlib's unstable sort, the parallel merge sort below, any future
// replacement — produces the identical feed, and with it the identical
// block/snapshot sequence for the deterministic search.
func entryLess(a, b Entry) bool {
	if a.LB != b.LB {
		return a.LB < b.LB
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

// SortEntries orders a candidate feed canonically (see entryLess). With
// workers > 1 and a large list it chunk-sorts in parallel and then runs
// one parallel multiway merge: the output is partitioned into one
// equal-rank range per worker, and each worker tournament-merges its
// fragment of every chunk into its range. Unlike pairwise merge rounds
// — whose last round is a single-threaded merge of the whole list —
// every worker stays busy through the entire merge tail. The feed is a
// strict total order ((I, J) pairs are unique, see entryLess), so the
// sorted permutation is unique and the result is bit-identical to the
// sequential sort for every worker count.
func SortEntries(list []Entry, workers int) {
	const parallelSortMin = 1 << 14
	if workers <= 1 || len(list) < parallelSortMin {
		sort.Slice(list, func(x, y int) bool { return entryLess(list[x], list[y]) })
		return
	}

	// Chunk-sort: contiguous slices, one per worker.
	bounds := make([]int, workers+1)
	for w := 0; w <= workers; w++ {
		bounds[w] = w * len(list) / workers
	}
	ParallelFor(workers, workers, func(_, w int) {
		c := list[bounds[w]:bounds[w+1]]
		sort.Slice(c, func(x, y int) bool { return entryLess(c[x], c[y]) })
	})
	chunks := make([][]Entry, workers)
	for w := range chunks {
		chunks[w] = list[bounds[w]:bounds[w+1]]
	}

	// Partition the output by global rank: cuts[r][c] is how many
	// entries of chunk c rank among the r*len/workers smallest overall,
	// so worker w owns exactly the fragments between cuts[w] and
	// cuts[w+1] and they land in dst[w*len/workers:(w+1)*len/workers].
	cuts := make([][]int, workers+1)
	cuts[0] = make([]int, workers)
	cuts[workers] = make([]int, workers)
	for c := range chunks {
		cuts[workers][c] = len(chunks[c])
	}
	ParallelFor(workers, workers-1, func(_, r int) {
		cuts[r+1] = splitAtRank(chunks, (r+1)*len(list)/workers)
	})

	dst := make([]Entry, len(list))
	ParallelFor(workers, workers, func(_, w int) {
		kWayMerge(chunks, cuts[w], cuts[w+1], dst[w*len(list)/workers:(w+1)*len(list)/workers])
	})
	copy(list, dst)
}

// splitAtRank returns, per sorted chunk, how many of its entries rank
// among the k smallest across all chunks. The order is strict, so the
// k-smallest set is unique, each chunk contributes a unique prefix, and
// the returned counts sum to exactly k. An entry's global rank (the
// count of entries below it) is found by binary search in every chunk;
// the prefix length by binary search over the chunk's own entries —
// O(workers·log²) per chunk, negligible against the merge itself.
func splitAtRank(chunks [][]Entry, k int) []int {
	cut := make([]int, len(chunks))
	for c, ch := range chunks {
		cut[c] = sort.Search(len(ch), func(x int) bool {
			r := 0
			for _, other := range chunks {
				e := ch[x]
				r += sort.Search(len(other), func(y int) bool { return !entryLess(other[y], e) })
			}
			return r >= k
		})
	}
	return cut
}

// kWayMerge tournament-merges the per-chunk fragments [lo[c], hi[c])
// into out (whose length must equal the fragments' total): a binary
// heap over the fragment heads pops the least entry and advances its
// fragment, lg(chunks) comparisons per element. The strict total order
// means no ties, so the pop sequence is the unique sorted order.
func kWayMerge(chunks [][]Entry, lo, hi []int, out []Entry) {
	type head struct{ c, idx int }
	h := make([]head, 0, len(chunks))
	less := func(x, y head) bool { return entryLess(chunks[x.c][x.idx], chunks[y.c][y.idx]) }
	siftDown := func(i int) {
		for {
			l := 2*i + 1
			if l >= len(h) {
				return
			}
			least := l
			if r := l + 1; r < len(h) && less(h[r], h[l]) {
				least = r
			}
			if !less(h[least], h[i]) {
				return
			}
			h[i], h[least] = h[least], h[i]
			i = least
		}
	}
	for c := range chunks {
		if lo[c] < hi[c] {
			h = append(h, head{c, lo[c]})
		}
	}
	for i := len(h)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	for o := range out {
		top := h[0]
		out[o] = chunks[top.c][top.idx]
		top.idx++
		if top.idx < hi[top.c] {
			h[0] = top
		} else {
			h[0] = h[len(h)-1]
			h = h[:len(h)-1]
		}
		siftDown(0)
	}
}

// BuildEntries enumerates every feasible start cell in canonical (i, j)
// order and computes each entry's lower bound with lb, sharding the rows
// across workers. lb must be pure and safe for concurrent use; the
// output is identical for every worker count.
func (s *Searcher) BuildEntries(lb func(i, j int) float64, workers int) []Entry {
	iMax := s.p.iMax()
	if iMax < 0 {
		return nil
	}
	offs := make([]int, iMax+2)
	for i := 0; i <= iMax; i++ {
		lo, hi := s.p.jRange(i)
		cnt := hi - lo + 1
		if cnt < 0 {
			cnt = 0
		}
		offs[i+1] = offs[i] + cnt
	}
	list := make([]Entry, offs[iMax+1])
	ParallelFor(workers, iMax+1, func(_, i int) {
		lo, hi := s.p.jRange(i)
		out := list[offs[i]:offs[i+1]]
		for j := lo; j <= hi; j++ {
			out[j-lo] = Entry{LB: lb(i, j), I: int32(i), J: int32(j)}
		}
	})
	return list
}

// runBlock expands the surviving subsets of one block across the worker
// pool and merges the outcomes at the barrier.
func (s *Searcher) runBlock(block []Entry, base int64, surv []int, snap Snapshot) {
	w := s.workers
	if w > len(surv) {
		w = len(surv)
	}
	if w <= 1 {
		e := s.engineFor(0)
		e.reset(s, snap)
		for _, k := range surv {
			e.processSubset(s.seq+base+int64(k), int(block[k].I), int(block[k].J))
		}
		s.mergeWitness(e.best)
		s.stats.mergeEffort(&e.stats)
		return
	}

	var next atomic.Int64
	var wg sync.WaitGroup
	for wi := 0; wi < w; wi++ {
		e := s.engineFor(wi)
		e.reset(s, snap)
		wg.Add(1)
		go func(e *engine) {
			defer wg.Done()
			for {
				k := int(next.Add(1)) - 1
				if k >= len(surv) {
					return
				}
				off := surv[k]
				e.processSubset(s.seq+base+int64(off), int(block[off].I), int(block[off].J))
			}
		}(e)
	}
	wg.Wait()
	// Merge in fixed engine order; the canonical witness order makes the
	// outcome independent of both this order and the work assignment.
	for wi := 0; wi < w; wi++ {
		s.mergeWitness(s.engines[wi].best)
		s.stats.mergeEffort(&s.engines[wi].stats)
	}
}
