// Streaming batch discovery: the one implementation behind Discover and
// DiscoverAllPairs. Instead of a materialized []*traj.Trajectory, it
// drains a Source — an iterator yielding one trajectory at a time — and
// bounds how many trajectories are resident, so a GeoLife-scale corpus
// directory streams through discovery in O(window) memory; the slice
// entry points are the same calls over SliceSource.

package batch

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"sync"

	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// Source yields trajectories one at a time; Next returns io.EOF after
// the last one. trajio.Scanner and *trajio.DirSource satisfy it (the
// interface is redeclared here so the batch layer stays independent of
// file formats). Sources are drained from a single goroutine; they need
// not be safe for concurrent Next calls. Any non-EOF error is terminal
// for the batch streamers — compose sources that capture per-file or
// per-record errors (like DirSource) when the stream should survive bad
// inputs.
type Source interface {
	Next() (*traj.Trajectory, error)
}

// SliceSource adapts an in-memory collection to Source, for symmetry
// and tests.
func SliceSource(ts []*traj.Trajectory) Source { return &sliceSource{ts: ts} }

type sliceSource struct {
	ts  []*traj.Trajectory
	idx int
}

func (s *sliceSource) Next() (*traj.Trajectory, error) {
	if s.idx >= len(s.ts) {
		return nil, io.EOF
	}
	t := s.ts[s.idx]
	s.idx++
	return t, nil
}

// DiscoverStream is Discover over a Source: GTM motif discovery on every
// trajectory the source yields, fanned over the worker pool, with at
// most Workers+1 trajectories resident at any moment (each is released
// to the collector as soon as its search finishes). Items come back in
// stream order and are identical to Discover over the slurped slice.
// A source error ends the stream: the items dispatched so far complete
// and are returned together with the error.
func DiscoverStream(src Source, xi int, opt *Options) ([]Item, error) {
	if xi < 0 {
		return nil, fmt.Errorf("batch: negative minimum motif length %d", xi)
	}
	type job struct {
		idx int
		t   *traj.Trajectory
	}
	var (
		mu    sync.Mutex
		items []Item
	)
	jobs := make(chan job) // unbuffered: residency = in-flight searches
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				res, err := group.GTM(jb.t, xi, opt.tau(), opt.search())
				mu.Lock()
				items[jb.idx] = Item{Index: jb.idx, Result: res, Err: err}
				mu.Unlock()
			}
		}()
	}

	var srcErr error
	for idx := 0; ; idx++ {
		t, err := src.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
		mu.Lock()
		items = append(items, Item{Index: idx}) // slot; worker fills it in
		mu.Unlock()
		if t == nil || t.Len() == 0 {
			mu.Lock()
			items[idx] = Item{Index: idx, Err: fmt.Errorf("batch: nil or empty trajectory at %d", idx)}
			mu.Unlock()
			continue
		}
		jobs <- job{idx: idx, t: t}
	}
	close(jobs)
	wg.Wait()
	return items, srcErr
}

// DiscoverAllPairsStream is DiscoverAllPairs over a Source with a
// residency window: each incoming trajectory is paired with the window-1
// most recent ones before it, so at most window trajectories (plus
// in-flight searches) are resident. window <= 0 retains everything and
// reproduces DiscoverAllPairs exactly; window == 1 pairs nothing. Pairs
// are returned in (i, j) lexicographic order over stream positions.
// Unlike DiscoverStream, a nil or empty trajectory is a terminal error
// (matching DiscoverAllPairs' up-front validation).
//
// With Options.MaxDistance set, only pairs whose motif distance is within
// it are returned (error items always survive), and pairs whose MBRs are
// provably farther apart than MaxDistance skip the search entirely — see
// Options for the soundness argument.
func DiscoverAllPairsStream(src Source, xi, window int, opt *Options) ([]PairItem, error) {
	if xi < 0 {
		return nil, fmt.Errorf("batch: negative minimum motif length %d", xi)
	}
	var maxd float64
	var ixStats IndexStats
	var minDist spatial.MinDistFunc
	if opt != nil && opt.MaxDistance > 0 {
		maxd = opt.MaxDistance
		df := opt.search().Dist
		if df == nil {
			df = geo.Haversine
		}
		minDist = spatial.MinDistFor(df) // nil for unknown metrics: no prefilter
	}
	type job struct {
		i, j, slot int
		a, b       *traj.Trajectory
	}
	var (
		mu    sync.Mutex
		items []PairItem
	)
	jobs := make(chan job)
	var wg sync.WaitGroup
	for w := 0; w < opt.workers(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for jb := range jobs {
				res, err := group.GTMCross(jb.a, jb.b, xi, opt.tau(), opt.search())
				mu.Lock()
				items[jb.slot] = PairItem{I: jb.i, J: jb.j, Result: res, Err: err}
				mu.Unlock()
			}
		}()
	}

	type retainedT struct {
		idx int
		t   *traj.Trajectory
		mbr spatial.MBR
	}
	var retained []retainedT
	var srcErr error
	for j := 0; ; j++ {
		t, err := src.Next()
		if err != nil {
			if !errors.Is(err, io.EOF) {
				srcErr = err
			}
			break
		}
		if t == nil || t.Len() == 0 {
			srcErr = fmt.Errorf("batch: nil or empty trajectory at %d", j)
			break
		}
		var mbr spatial.MBR
		if minDist != nil {
			mbr = spatial.Bound(t.Points)
		}
		for _, r := range retained {
			if minDist != nil {
				ixStats.Consulted++
				// Too-short pairs must still run so their ErrTooShort
				// items match the unfiltered stream byte for byte.
				if core.CrossFeasible(r.t.Len(), t.Len(), xi) && minDist(r.mbr, mbr) > maxd {
					ixStats.Pruned++
					continue
				}
			}
			mu.Lock()
			slot := len(items)
			items = append(items, PairItem{I: r.idx, J: j})
			mu.Unlock()
			jobs <- job{i: r.idx, j: j, slot: slot, a: r.t, b: t}
		}
		retained = append(retained, retainedT{idx: j, t: t, mbr: mbr})
		if window > 0 {
			for len(retained) > window-1 {
				retained[0] = retainedT{} // release the reference
				retained = retained[1:]
			}
		}
	}
	close(jobs)
	wg.Wait()
	if maxd > 0 {
		// The range post-filter; the spatial pre-filter only ever skips
		// pairs this line would have dropped, which is why the two
		// configurations return identical items.
		kept := items[:0]
		for _, it := range items {
			if it.Err != nil || (it.Result != nil && it.Result.Distance <= maxd) {
				kept = append(kept, it)
			}
		}
		items = kept
	}
	if opt != nil && opt.IndexStats != nil {
		*opt.IndexStats = ixStats
	}
	// Dispatch order is j-major; DiscoverAllPairs returns (i, j)
	// lexicographic. The sort is over result metadata only, so the memory
	// bound on trajectories is untouched.
	sort.Slice(items, func(a, b int) bool {
		if items[a].I != items[b].I {
			return items[a].I < items[b].I
		}
		return items[a].J < items[b].J
	})
	return items, srcErr
}
