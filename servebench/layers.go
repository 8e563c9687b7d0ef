package main

import (
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"trajmotif/servebench/span"
)

// traced is the -trace 1 run: an untraced window on motifserve for the
// reference p50, then the same window on the traced host, whose spans,
// responses, /stats deltas and runtime counters give the per-layer
// metrics. Each window is half the run's length.
func (b *bench) traced() (*output, error) {
	out := &output{}
	plain, _, err := b.setup(filepath.Join(b.bin, "motifserve"))
	if err != nil {
		return nil, err
	}
	mu, err := b.measure(plain, b.dur/2, false)
	if cerr := plain.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	b.check(out, mu)

	spansPath := filepath.Join(b.work, "spans.jsonl")
	host, _, err := b.setup(filepath.Join(b.bin, "tracehost"), "-spans", spansPath)
	if err != nil {
		return nil, err
	}
	mt, err := b.measure(host, b.dur/2, true)
	if cerr := host.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	got := b.check(out, mt)
	out.attempted = len(mu.results) + len(mt.results)
	spans, err := span.Read(spansPath)
	if err != nil {
		return nil, err
	}
	if err := layers(out, mt, got, spans); err != nil {
		return nil, err
	}
	out.add("failed_frac", float64(out.failed)/float64(out.attempted), "ratio")
	out.add("trace.overhead_ms", percentile(latencies(mt.results), 50)-percentile(latencies(mu.results), 50), "ms")
	if err := writeTrace(filepath.Join(b.bin, fmt.Sprintf("trace-%s.jsonl", b.workload)), mt.results, spans); err != nil {
		return nil, err
	}
	fmt.Printf("# %s traced: %d requests untraced, %d traced\n", b.workload, len(mu.results), len(mt.results))
	return out, nil
}

// writeTrace keeps the traced window's spans, the client's "http" spans
// with the host's, for reading after the run.
func writeTrace(path string, rs []result, server []span.Span) error {
	all := make([]span.Span, 0, len(rs)+len(server))
	for _, r := range rs {
		all = append(all, span.Span{Req: r.id, Name: "http", Tag: r.req.path, Start: int64(r.start), End: int64(r.end), Status: r.status, Bytes: int64(len(r.body))})
	}
	return span.Write(path, append(all, server...))
}

// sums accumulates one workload's per-layer totals.
type sums struct {
	n                                    float64 // traced requests answered
	handler, self, gap                   time.Duration
	build, hit, resolve, indexFor, write time.Duration
	respBytes                            float64

	discovers, knns, joins                 float64
	group, search                          float64 // ms
	dpCells, subsets, processed, abandoned float64
	knnSelf, joinSelf                      time.Duration
	knnCand, knnSkipped, knnExact          float64
	joinPairs, joinFiltered, joinFallbacks float64
}

// layers turns the traced window into per-layer metrics. A layer's self
// time is its interval minus the store spans inside it:
//
//   - group: the response's precomputeMs minus the store.Artifacts span;
//     core: the response's searchMs;
//   - knn: from the end of store.IndexFor to the response header;
//   - join: from the end of store.IndexFor to the end of the handler
//     (the response encode included) minus the EndpointDists calls;
//   - serve: the handler minus every store span, the tracer's own
//     bookkeeping and the layer above (decode, admission wait, encode).
func layers(out *output, m *measurement, got []parsed, spans []span.Span) error {
	byReq := map[string][]span.Span{}
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	var t sums
	for i := range m.results {
		r := &m.results[i]
		if got[i] == (parsed{}) {
			continue // failed; counted in failed_frac
		}
		var serve, write, indexFor *span.Span
		var store, overhead, endpoint, artifacts time.Duration
		ss := byReq[r.id]
		for k := range ss {
			s := &ss[k]
			d := time.Duration(s.Dur())
			switch {
			case s.Name == "serve":
				serve = s
			case s.Name == "serve.write":
				write = s
			case s.Name == "trace":
				overhead += d
			case strings.HasPrefix(s.Name, "store."):
				store += d
				switch s.Name {
				case "store.Artifacts":
					artifacts += d
					if s.Tag == "hit" {
						t.hit += d
					} else {
						t.build += d
					}
				case "store.IDs":
					t.resolve += d
				case "store.IndexFor":
					t.indexFor += d
					indexFor = s
				case "store.Add", "store.Remove":
					t.write += d
				case "store.EndpointDists":
					endpoint += d
				}
			}
		}
		if serve == nil || write == nil {
			return fmt.Errorf("traced request %s %s has no serve span", r.id, r.req.path)
		}
		handler := time.Duration(serve.Dur())
		var above time.Duration
		switch r.req.kind {
		case kDiscover:
			st := got[i].motif.Stats
			art := float64(artifacts) / float64(time.Millisecond)
			t.discovers++
			t.group += st.PrecomputeMS - art
			t.search += st.SearchMS
			above = time.Duration((st.PrecomputeMS - art + st.SearchMS) * 1e6)
			t.dpCells += float64(st.DPCells)
			t.subsets += float64(st.Subsets)
			t.processed += float64(st.SubsetsProcessed)
			t.abandoned += float64(st.SubsetsAbandoned)
		case kKNN:
			if indexFor == nil {
				return fmt.Errorf("traced knn %s has no store.IndexFor span", r.id)
			}
			st := got[i].knn.Stats
			above = time.Duration(write.Start - indexFor.End)
			t.knns++
			t.knnSelf += above
			t.knnCand += float64(st.Candidates)
			t.knnSkipped += float64(st.SkippedByLB)
			t.knnExact += float64(st.Exact)
		case kJoin:
			if indexFor == nil {
				return fmt.Errorf("traced join %s has no store.IndexFor span", r.id)
			}
			st := got[i].join.Stats
			above = time.Duration(serve.End-indexFor.End) - endpoint
			t.joins++
			t.joinSelf += above
			t.joinPairs += float64(st.Pairs)
			t.joinFiltered += float64(st.EndpointPruned + st.BoxPruned)
			t.joinFallbacks += float64(st.ProjectionFallbacks)
		}
		t.n++
		t.handler += handler
		t.self += handler - store - overhead - above
		t.gap += r.end - r.start - handler
		t.respBytes += float64(len(r.body))
	}
	if t.n == 0 {
		return fmt.Errorf("no traced request answered")
	}
	ms := func(d time.Duration, n float64) float64 {
		if n == 0 {
			return 0
		}
		return float64(d) / float64(time.Millisecond) / n
	}
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	d := m.delta
	n := t.n
	// store.Get is summed over the window, not per request (tracehost).
	rt0, rt1 := m.rt[0], m.rt[1]
	get := time.Duration(rt1.GetNanos - rt0.GetNanos)
	t.resolve += get
	t.self -= get
	out.add("serve.handler_ms", ms(t.handler, n), "ms")
	out.add("serve.self_ms", ms(t.self, n), "ms")
	out.add("serve.client_gap_ms", ms(t.gap, n), "ms")
	out.add("serve.response_kb", t.respBytes/n/1024, "KiB")
	out.add("serve.rejected", float64(d.Rejected), "count")
	out.add("store.artifacts_build_ms", ms(t.build, n), "ms")
	out.add("store.built_per_req", float64(d.Built)/n, "count")
	out.add("store.artifacts_hit_ms", ms(t.hit, n), "ms")
	out.add("store.disk_reads_per_req", float64(d.DiskReads)/n, "count")
	out.add("store.disk_writes_per_req", float64(d.DiskWrites)/n, "count")
	out.add("store.evicted_per_req", float64(d.Evicted)/n, "count")
	out.add("store.cache_mb", float64(d.CacheBytes)/(1<<20), "MiB")
	out.add("store.resolve_ms", ms(t.resolve, n), "ms")
	out.add("store.index_for_ms", ms(t.indexFor, n), "ms")
	out.add("store.write_ms", ms(t.write, n), "ms")
	out.add("store.pair_memo_hit_ratio", ratio(float64(d.PairDistsReused), float64(d.PairDistsReused+d.PairDistsBuilt)), "ratio")
	out.add("group.self_ms", ratio(t.group, t.discovers), "ms")
	out.add("core.search_ms", ratio(t.search, t.discovers), "ms")
	out.add("core.dp_cells_per_req", ratio(t.dpCells, t.discovers), "count")
	out.add("core.prune_ratio", ratio(t.subsets-t.processed, t.subsets), "ratio")
	out.add("core.abandon_ratio", ratio(t.abandoned, t.processed), "ratio")
	out.add("knn.self_ms", ms(t.knnSelf, t.knns), "ms")
	out.add("knn.lb_skip_ratio", ratio(t.knnSkipped, t.knnCand), "ratio")
	out.add("knn.exact_per_req", ratio(t.knnExact, t.knns), "count")
	out.add("join.self_ms", ms(t.joinSelf, t.joins), "ms")
	out.add("join.filter_ratio", ratio(t.joinFiltered, t.joinPairs), "ratio")
	out.add("join.projection_fallbacks_per_req", ratio(t.joinFallbacks, t.joins), "count")
	out.add("runtime.alloc_mb_per_req", float64(rt1.AllocBytes-rt0.AllocBytes)/(1<<20)/n, "MiB")
	out.add("runtime.gc_cpu_frac", ratio(rt1.GCCPU-rt0.GCCPU, (rt1.TotalCPU-rt0.TotalCPU)-(rt1.IdleCPU-rt0.IdleCPU)), "ratio")
	out.add("stats.built", float64(d.Built), "count")
	out.add("stats.reused", float64(d.Reused), "count")
	out.add("stats.disk_reads", float64(d.DiskReads), "count")
	out.add("stats.disk_writes", float64(d.DiskWrites), "count")
	out.add("stats.pair_dists_reused", float64(d.PairDistsReused), "count")
	out.add("http.traced_requests", n, "count")
	return nil
}
