package main

import (
	"encoding/json"
	"fmt"
	"slices"
	"sync"

	"trajmotif/internal/core"
	"trajmotif/internal/group"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/store"
)

// Response shapes, as far as the oracle and the per-layer metrics read
// them. knn.Stats and join.Stats carry no JSON tags, so the server
// encodes them under their Go field names.
type (
	spanJSON  struct{ Start, End int }
	motifJSON struct {
		A, B     spanJSON
		Distance float64
		Stats    struct {
			Subsets, SubsetsProcessed, SubsetsAbandoned, DPCells int64
			PrecomputeMS                                         float64 `json:"precomputeMs"`
			SearchMS                                             float64 `json:"searchMs"`
		}
	}
	knnJSON struct {
		Neighbors []struct {
			ID       store.ID
			Index    int
			Distance float64
		}
		Stats knn.Stats
	}
	joinJSON struct {
		Pairs []struct {
			IDA, IDB store.ID
			I, J     int
			Distance float64
		}
		Stats join.Stats
	}
	writeJSON struct {
		ID      store.ID
		Created bool
		Removed bool
	}
)

// parsed is a timed response decoded by its request kind; exactly one
// field is set.
type parsed struct {
	motif *motifJSON
	knn   *knnJSON
	join  *joinJSON
	write *writeJSON
}

func parse(r *result) (parsed, error) {
	var p parsed
	var v any
	switch r.req.kind {
	case kDiscover:
		p.motif = new(motifJSON)
		v = p.motif
	case kKNN:
		p.knn = new(knnJSON)
		v = p.knn
	case kJoin:
		p.join = new(joinJSON)
		v = p.join
	default:
		p.write = new(writeJSON)
		v = p.write
	}
	if err := json.Unmarshal(r.body, v); err != nil {
		return p, fmt.Errorf("%s response: %w", r.req.kind, err)
	}
	return p, nil
}

// oracle answers each distinct request by a direct library call on the
// same inputs, computed once per key, outside every timed window.
type oracle struct {
	p     *plan
	mu    sync.Mutex
	motif map[int]*group.Result
	knn   map[int][]knn.Neighbor
	join  map[int][]join.Pair
}

func newOracle(p *plan) *oracle {
	return &oracle{p: p, motif: map[int]*group.Result{}, knn: map[int][]knn.Neighbor{}, join: map[int][]join.Pair{}}
}

// prepare computes the answers for every request in rs that has none
// yet, on two goroutines.
func (o *oracle) prepare(rs []result) error {
	type key struct {
		k   kind
		arg int
	}
	seen := map[key]bool{}
	var todo []key
	for i := range rs {
		k := key{rs[i].req.kind, rs[i].req.arg}
		if (k.k == kDiscover || k.k == kKNN || k.k == kJoin) && !seen[k] && !o.has(k.k, k.arg) {
			seen[k] = true
			todo = append(todo, k)
		}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := w; i < len(todo); i += 2 {
				if err := o.compute(todo[i].k, todo[i].arg); err != nil {
					errs[w] = err
					return
				}
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil {
		return errs[0]
	}
	return errs[1]
}

// has reports whether the answer for (k, arg) is already computed.
func (o *oracle) has(k kind, arg int) bool {
	o.mu.Lock()
	defer o.mu.Unlock()
	switch k {
	case kDiscover:
		return o.motif[arg] != nil
	case kKNN:
		return o.knn[arg] != nil
	case kJoin:
		return o.join[arg] != nil
	}
	return false
}

func (o *oracle) compute(k kind, arg int) error {
	p := o.p
	switch k {
	case kDiscover:
		res, err := group.GTM(p.registry[arg], discoverXi, discoverTau, &core.Options{Workers: 1})
		if err != nil {
			return fmt.Errorf("oracle discover: %w", err)
		}
		o.mu.Lock()
		o.motif[arg] = res
		o.mu.Unlock()
	case kKNN:
		q := p.queries[arg]
		ds := slices.Concat(p.registry[:q:q], p.registry[q+1:])
		nb, _, err := knn.Nearest(p.registry[q], ds, knnK, nil)
		if err != nil {
			return fmt.Errorf("oracle knn: %w", err)
		}
		o.mu.Lock()
		o.knn[arg] = nb
		o.mu.Unlock()
	case kJoin:
		w := p.windows[arg]
		pairs, _, err := join.Join(p.registry[w[0]:w[1]], joinEps, nil)
		if err != nil {
			return fmt.Errorf("oracle join: %w", err)
		}
		o.mu.Lock()
		o.join[arg] = pairs
		o.mu.Unlock()
	}
	return nil
}

// check compares one decoded response with the library's answer: spans,
// ids, indexes, distances and the search's effort counters; wall-clock
// fields are not compared.
func (o *oracle) check(r *result, got parsed) error {
	p := o.p
	arg := r.req.arg
	switch r.req.kind {
	case kDiscover:
		want := o.motif[arg]
		m := got.motif
		if m.A != (spanJSON{want.A.Start, want.A.End}) || m.B != (spanJSON{want.B.Start, want.B.End}) ||
			m.Distance != want.Distance || m.Stats.Subsets != want.Stats.Subsets ||
			m.Stats.SubsetsProcessed != want.Stats.SubsetsProcessed || m.Stats.DPCells != want.Stats.DPCells {
			return fmt.Errorf("discover %s: served %+v, library %+v", p.ids[arg], *m, want.Result)
		}
	case kKNN:
		want := o.knn[arg]
		q := p.queries[arg]
		if len(got.knn.Neighbors) != len(want) {
			return fmt.Errorf("knn %s: %d neighbours served, %d from the library", p.ids[q], len(got.knn.Neighbors), len(want))
		}
		for k, nb := range want {
			id := nb.Index
			if id >= q {
				id++ // the dataset skips the query
			}
			g := got.knn.Neighbors[k]
			if g.ID != p.ids[id] || g.Index != nb.Index || g.Distance != nb.Distance {
				return fmt.Errorf("knn %s neighbour %d: served %+v, library %+v (id %s)", p.ids[q], k, g, nb, p.ids[id])
			}
		}
	case kJoin:
		want := o.join[arg]
		w := p.windows[arg]
		if len(got.join.Pairs) != len(want) {
			return fmt.Errorf("join window %v: %d pairs served, %d from the library", w, len(got.join.Pairs), len(want))
		}
		for k, pr := range want {
			g := got.join.Pairs[k]
			if g.I != pr.I || g.J != pr.J || g.Distance != pr.Distance ||
				g.IDA != p.ids[w[0]+pr.I] || g.IDB != p.ids[w[0]+pr.J] {
				return fmt.Errorf("join window %v pair %d: served %+v, library %+v", w, k, g, pr)
			}
		}
	case kUpload:
		if got.write.ID != p.wids[arg] || !got.write.Created {
			return fmt.Errorf("upload %d: served id %s created=%v, want %s created", arg, got.write.ID, got.write.Created, p.wids[arg])
		}
	case kDelete:
		if !got.write.Removed {
			return fmt.Errorf("delete %s: not removed", p.wids[arg])
		}
	}
	return nil
}

// verify parses and checks every result, returning the decoded responses
// (nil for failures) and the failures, each with its reason.
func verify(o *oracle, rs []result) ([]parsed, []error) {
	out := make([]parsed, len(rs))
	var fails []error
	if err := o.prepare(rs); err != nil {
		return out, []error{err}
	}
	for i := range rs {
		r := &rs[i]
		if !r.ok() {
			if r.err != nil {
				fails = append(fails, fmt.Errorf("%s %s: %w", r.req.method, r.req.path, r.err))
			} else {
				fails = append(fails, fmt.Errorf("%s %s: status %d: %.200s", r.req.method, r.req.path, r.status, r.body))
			}
			continue
		}
		got, err := parse(r)
		if err == nil {
			err = o.check(r, got)
		}
		if err != nil {
			fails = append(fails, err)
			continue
		}
		out[i] = got
	}
	return out, fails
}
