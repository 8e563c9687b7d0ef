// Package dist implements the trajectory similarity measures compared in
// §2 of Tang, Yiu, Mouratidis and Wang, "Efficient Motif Discovery in
// Spatial Trajectories Using Discrete Fréchet Distance" (EDBT 2017): the discrete Fréchet distance (DFD) that the
// paper builds on, and the four classical measures its Table 1 rejects —
// lock-step Euclidean distance (ED), dynamic time warping (DTW), the
// longest common subsequence model (LCSS), and edit distance on real
// sequences (EDR).
//
// Every measure is parameterized by a geo.DistanceFunc ground distance,
// so the same code serves GPS data (geo.Haversine, the paper's dG) and
// planar or synthetic data (geo.Euclidean). Results are in the ground
// distance's unit — meters under Haversine.
//
// # Why DFD
//
// A trajectory measure for motif discovery must tolerate two artifacts of
// real GPS recordings (paper §2, Table 1):
//
//   - non-uniform sampling rates — the same path recorded at 1 Hz and at
//     0.2 Hz should still be recognized as the same path;
//   - local time shifting — a momentary stall that duplicates a few
//     samples should not misalign everything recorded after it.
//
// ED fails both: it compares positions index by index, so it is undefined
// across lengths and a single stall knocks every later sample off its
// partner. DTW and EDR absorb time shifts but sum (respectively count)
// per-sample costs, so an oversampled segment contributes many terms and
// outweighs geometry. LCSS rewards dense sampling for the mirror reason:
// its similarity is a raw match count. DFD is the bottleneck cost of the
// best order-preserving coupling — the classic "dog walker" metaphor: the
// shortest leash such that dog and owner can each walk their trajectory
// without backing up. Extra samples merely extend a coupling with cheap
// repeats, and a stall couples to a single point at no cost, so DFD
// carries both robustness properties while staying a metric-like bottleneck
// quantity in ground-distance units. That choice is what the lower bounds
// in internal/bounds and the grouping search in internal/group exploit.
//
// # The canonical DFD kernel
//
// This package is the single source of truth for the discrete Fréchet
// recurrence: the row-relaxation loop in kernel.go (two rolling rows,
// O(min(n,m)) space — the §5.5 "Idea ii" layout) backs every DFD
// computation in the repository. It lives in DFDBoundaryRow and
// DFDRelaxRow, which fill a whole row over a ground row already in
// memory, and in DFDWindowRow, which fills only a row's live window
// under a cap; the value DPs read their ground rows from internal/dmatrix
// (a matrix row, a level row, or a dmatrix.Fly row computed from point
// pairs). Its entry points are
//
//   - DFD — the exact distance;
//   - DFDCapped — the distance inside a radius: (DFD, false) when DFD is
//     below the cap, else (cap, true). It sweeps DFDWindowRow, so a cell
//     at or above the cap is dead, a column no live cell reaches never
//     computes its ground distance, and the DP stops at the first dead
//     row instead of burning the full O(n·m) table;
//   - GreedyBound — the O(n+m) bottleneck of one greedy coupling, an
//     upper bound on DFD: DFDCapped just above it never abandons, so a
//     caller without a radius of its own still gets a window;
//   - DFDDecision — the "DFD <= eps?" decision: a greedy O(n+m) walk
//     certifies most "yes" answers, and otherwise the decision DP kills
//     cells above eps and abandons when a row dies;
//   - DFDBoundaryRow / DFDRelaxRow — the full-row primitives from which
//     internal/core and internal/group compose their candidate-subset
//     sweeps and interval (dminG/dmaxG) DPs over materialized rows;
//     DFDWindowRow at cap +Inf visits the same cells with the same bits.
//
// No other package carries a Fréchet recurrence; internal/join,
// internal/knn, internal/core, internal/group and internal/bounds all
// route through these entry points, so an optimization here speeds every
// caller. The cross-package equivalence suite (kernel_test.go) and the
// FuzzDFDKernel fuzz target pin all forms to each other, every composed
// row to DFDMatrix, and every live-window cell below its cap to
// DFDMatrix.
//
// DTW, EDR and LCSS share the same O(n·m) skeleton with their own cost
// models and rolling rows; DFDMatrix materializes the full table as an
// independently-coded oracle for tests and coupling inspection.
package dist
