// Package batch runs motif discovery over collections of trajectories
// with bounded concurrency. Fleets, troops and multi-day archives are
// embarrassingly parallel *across* trajectories, so this package fans
// independent discoveries out over a worker pool; each individual search
// returns results identical to the sequential one.
//
// Parallelism is split in two layers: Workers bounds across-trajectory
// concurrency (this package's pool), and Search.Workers bounds
// within-search concurrency (internal/core's sharded subset sweep).
// Inside a batch the within-search default is 1 — with many independent
// trajectories the outer pool already saturates the cores and avoids
// oversubscription — and should be raised only when the batch is smaller
// than the machine (few trajectories, many cores).
package batch

import (
	"fmt"
	"runtime"

	"trajmotif/internal/core"
	"trajmotif/internal/group"
	"trajmotif/internal/traj"
)

// Item is the discovery outcome for one input trajectory.
type Item struct {
	// Index identifies the input.
	Index int
	// Result is nil when Err is set.
	Result *group.Result
	// Err records a per-trajectory failure (e.g. core.ErrTooShort);
	// one failing input does not abort the batch.
	Err error
}

// Options tunes a batch run.
type Options struct {
	// Search options applied to every trajectory. Search.Workers bounds
	// within-search concurrency; 0 selects 1 (see the package comment on
	// the split), not core's GOMAXPROCS default.
	Search *core.Options
	// Tau is the GTM initial group size; 0 selects 32 (the paper's
	// default).
	Tau int
	// Workers bounds across-trajectory concurrency; 0 selects GOMAXPROCS.
	Workers int
	// MaxDistance, when positive, drops pair results whose motif distance
	// exceeds it from DiscoverAllPairs' and DiscoverAllPairsStream's
	// output (error items are always kept) — the "pairs within range"
	// workload. Pairs whose MBR MinDist already exceeds it skip the search
	// entirely: any motif between them is at least that far apart, so the
	// range filter would drop the result anyway, and the output is what
	// searching every pair and filtering gives (stream_parity_test.go).
	// Pairs too short to yield any candidate are still searched so their
	// error items survive. The prefilter needs a ground distance with a
	// known MBR bound (spatial.MinDistFor); under any other it stays off.
	MaxDistance float64
	// IndexStats, when non-nil, receives the prefilter's effort counters
	// after DiscoverAllPairs or DiscoverAllPairsStream returns.
	IndexStats *IndexStats
}

// IndexStats counts spatial-prefilter activity in an all-pairs run:
// Consulted is the number of pairs the pre-filter examined, Pruned how
// many it skipped before dispatch.
type IndexStats struct {
	Consulted int64
	Pruned    int64
}

func (o *Options) tau() int {
	if o == nil || o.Tau <= 0 {
		return 32
	}
	return o.Tau
}

func (o *Options) workers() int {
	if o == nil || o.Workers <= 0 {
		return runtime.GOMAXPROCS(0)
	}
	return o.Workers
}

// search resolves the per-search options: a private copy of Search with
// the within-search worker count pinned, so the zero Workers value does
// not fall through to core's GOMAXPROCS default and oversubscribe the
// batch pool.
func (o *Options) search() *core.Options {
	var c core.Options
	if o != nil && o.Search != nil {
		c = *o.Search
	}
	if c.Workers <= 0 {
		c.Workers = 1
	}
	return &c
}

// Discover runs GTM motif discovery on every trajectory, fanning the
// independent searches over a bounded worker pool. Results are returned
// in input order; per-trajectory errors are carried in the items.
func Discover(ts []*traj.Trajectory, xi int, opt *Options) ([]Item, error) {
	return DiscoverStream(SliceSource(ts), xi, opt)
}

// PairItem is the outcome for one trajectory pair.
type PairItem struct {
	I, J   int
	Result *group.Result
	Err    error
}

// DiscoverAllPairs runs the two-trajectory motif discovery on every
// unordered pair of the inputs — the batched form of the paper's Figure 21
// workload — over a bounded worker pool. Pairs are returned in (i, j)
// lexicographic order. A nil or empty input fails the call before any
// search runs.
func DiscoverAllPairs(ts []*traj.Trajectory, xi int, opt *Options) ([]PairItem, error) {
	if xi < 0 {
		return nil, fmt.Errorf("batch: negative minimum motif length %d", xi)
	}
	for k, t := range ts {
		if t == nil || t.Len() == 0 {
			return nil, fmt.Errorf("batch: nil or empty trajectory at %d", k)
		}
	}
	return DiscoverAllPairsStream(SliceSource(ts), xi, 0, opt)
}
