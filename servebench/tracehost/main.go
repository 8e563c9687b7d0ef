// Command tracehost is the server of the benchmark's traced run. It
// builds the same store and server cmd/motifserve builds
// (trajmotif.NewStore and trajmotif.NewServerWith, from the same flags)
// and records spans around the two boundaries it can wrap from outside
// the library: the http.Handler (span "serve", plus "serve.write" from
// the response header to the end of the handler) and every call the
// server makes into its serve.Backend (spans "store.<Method>").
//
// Backend methods take no context, but the handlers call them
// synchronously on the request's goroutine, so a call is attributed to
// its request by goroutine id. Only requests carrying an X-Request-ID
// header are traced. Spans stay in memory and are written to -spans when
// the process shuts down on SIGTERM/SIGINT.
//
// GET /bench/runtime reports the process's runtime/metrics counters the
// benchmark turns into per-request allocation and GC CPU share.
//
//	tracehost -addr 127.0.0.1:0 -workers 1 -spans spans.jsonl
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"trajmotif"
	"trajmotif/internal/bounds"
	"trajmotif/internal/core"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/serve"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
	"trajmotif/servebench/span"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:0", "listen address")
	cacheBytes := flag.Int64("cache-bytes", trajmotif.DefaultCacheBytes, "artifact cache budget in bytes, as motifserve")
	workers := flag.Int("workers", 0, "default within-search workers, as motifserve")
	artifactDir := flag.String("artifact-dir", "", "persistent artifact tier directory, as motifserve")
	snapshotOnShutdown := flag.Bool("snapshot-on-shutdown", false, "snapshot the registry on shutdown, as motifserve")
	spansPath := flag.String("spans", "", "file the spans are written to at shutdown")
	flag.Parse()

	st := trajmotif.NewStore(&trajmotif.StoreOptions{CacheBytes: *cacheBytes, ArtifactDir: *artifactDir})
	snapPath := ""
	if *artifactDir != "" {
		snapPath = filepath.Join(*artifactDir, "registry.snap")
		if _, err := st.Restore(snapPath); err != nil {
			fail("restore: %v", err)
		}
	}
	tr := &tracer{base: time.Now()}
	srv := trajmotif.NewServerWith(&tracedBackend{Backend: st, tr: tr}, &trajmotif.ServerOptions{Workers: *workers})

	mux := http.NewServeMux()
	mux.HandleFunc("GET /bench/runtime", tr.handleRuntime)
	mux.Handle("/", tr.wrap(srv))

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail("%v", err)
	}
	fmt.Printf("tracehost listening on %s\n", ln.Addr())
	// The same http.Server settings motifserve uses by default.
	hs := &http.Server{
		Handler:           mux,
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       2 * time.Minute,
		WriteTimeout:      5 * time.Minute,
		IdleTimeout:       2 * time.Minute,
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	serveErr := make(chan error, 1)
	go func() { serveErr <- hs.Serve(ln) }()
	select {
	case err := <-serveErr:
		if err != nil && !errors.Is(err, http.ErrServerClosed) {
			fail("%v", err)
		}
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := hs.Shutdown(shutdownCtx); err != nil {
			fail("shutdown: %v", err)
		}
		if *snapshotOnShutdown && snapPath != "" {
			if _, err := st.Snapshot(snapPath); err != nil {
				fail("snapshot: %v", err)
			}
		}
	}
	if *spansPath != "" {
		if err := span.Write(*spansPath, tr.spans()); err != nil {
			fail("%v", err)
		}
	}
}

func fail(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "tracehost: "+format+"\n", args...)
	os.Exit(1)
}

// handleRuntime serves GET /bench/runtime.
func (t *tracer) handleRuntime(w http.ResponseWriter, _ *http.Request) {
	samples := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
		{Name: "/cpu/classes/idle:cpu-seconds"},
	}
	metrics.Read(samples)
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(span.Runtime{
		AllocBytes: samples[0].Value.Uint64(),
		GCCPU:      samples[1].Value.Float64(),
		TotalCPU:   samples[2].Value.Float64(),
		IdleCPU:    samples[3].Value.Float64(),
		GetNanos:   t.getNanos.Load(),
		GetCalls:   t.getCalls.Load(),
	})
}

// tracer holds the spans of finished requests and maps the goroutine of
// each request in flight to that request's record.
type tracer struct {
	base   time.Time
	active sync.Map // goroutine id -> *request
	// getNanos and getCalls sum every store.Get call.
	getNanos, getCalls atomic.Int64

	mu   sync.Mutex
	done []*request
}

// request is the record of one traced request. Only its own handler
// goroutine touches it until the handler returns.
type request struct {
	id    string
	spans []span.Span
	// folded accumulates the per-call spans that are folded into one
	// span per request, by name.
	folded map[string]*span.Span
}

func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// wrap records the serve span of every request carrying X-Request-ID.
func (t *tracer) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get("X-Request-ID")
		if id == "" {
			next.ServeHTTP(w, r)
			return
		}
		rq := &request{id: id, folded: map[string]*span.Span{}}
		gid := goroutineID()
		t.active.Store(gid, rq)
		rw := &recorder{ResponseWriter: w, t: t}
		start := t.now()
		next.ServeHTTP(rw, r)
		end := t.now()
		t.active.Delete(gid)

		rq.spans = append(rq.spans, span.Span{
			Req: id, Name: "serve", Parent: "http", Tag: r.URL.Path,
			Start: start, End: end, Status: rw.status, Bytes: rw.bytes,
		})
		if rw.headerAt > 0 {
			rq.spans = append(rq.spans, span.Span{Req: id, Name: "serve.write", Parent: "serve", Start: rw.headerAt, End: end})
		}
		for _, s := range rq.folded {
			rq.spans = append(rq.spans, *s)
		}
		t.mu.Lock()
		t.done = append(t.done, rq)
		t.mu.Unlock()
	})
}

func (t *tracer) spans() []span.Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []span.Span
	for _, rq := range t.done {
		out = append(out, rq.spans...)
	}
	return out
}

// current returns the record of the request running on this goroutine,
// or nil for an untraced request.
func (t *tracer) current() *request {
	v, ok := t.active.Load(goroutineID())
	if !ok {
		return nil
	}
	return v.(*request)
}

// add records one store call as its own span.
func (rq *request) add(name, tag string, start, end int64) {
	rq.spans = append(rq.spans, span.Span{Req: rq.id, Name: name, Parent: "serve", Tag: tag, Start: start, End: end, Count: 1})
}

// fold adds one call to the request's folded span of that name.
func (rq *request) fold(name string, start, end int64) {
	s := rq.folded[name]
	if s == nil {
		s = &span.Span{Req: rq.id, Name: name, Parent: "serve", Start: start, End: start}
		rq.folded[name] = s
	}
	s.End += end - start
	s.Count++
}

// goroutineID parses the running goroutine's id from its stack header
// ("goroutine 123 [running]:").
func goroutineID() uint64 {
	var buf [64]byte
	b := buf[:runtime.Stack(buf[:], false)]
	const prefix = len("goroutine ")
	end := prefix
	for end < len(b) && b[end] >= '0' && b[end] <= '9' {
		end++
	}
	id, _ := strconv.ParseUint(string(b[prefix:end]), 10, 64)
	return id
}

// recorder notes the response status, size and the moment the handler
// started its response (the header write, which the server's JSON
// helper issues before encoding the body).
type recorder struct {
	http.ResponseWriter
	t        *tracer
	status   int
	bytes    int64
	headerAt int64
}

func (r *recorder) WriteHeader(code int) {
	if r.status == 0 {
		r.status = code
		r.headerAt = r.t.now()
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *recorder) Write(b []byte) (int, error) {
	if r.status == 0 {
		r.WriteHeader(http.StatusOK)
	}
	n, err := r.ResponseWriter.Write(b)
	r.bytes += int64(n)
	return n, err
}

func (r *recorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// tracedBackend records a span around every Backend call the server's
// handlers make; methods it does not override pass straight through.
type tracedBackend struct {
	serve.Backend
	tr *tracer
}

func (b *tracedBackend) Artifacts(req core.ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	start := b.tr.now()
	g, rb, reused := b.Backend.Artifacts(req)
	want := 1
	if req.WithBounds {
		want = 2
	}
	tag := "build"
	if reused == want {
		tag = "hit"
	}
	b.record("store.Artifacts", tag, start)
	return g, rb, reused
}

// Get runs once per candidate of a default-dataset /knn (2000 times per
// request here), and the goroutine lookup costs about 6 µs at serving
// depth, which tripled the traced /knn latency. So Get is timed per call
// but summed process-wide, unattributed, and reported by
// GET /bench/runtime; the per-layer metrics that use it are means over
// the window and need no per-request split.
func (b *tracedBackend) Get(id store.ID) (*traj.Trajectory, bool) {
	start := b.tr.now()
	t, ok := b.Backend.Get(id)
	b.tr.getNanos.Add(b.tr.now() - start)
	b.tr.getCalls.Add(1)
	return t, ok
}

func (b *tracedBackend) IDs() []store.ID {
	start := b.tr.now()
	ids := b.Backend.IDs()
	b.record("store.IDs", "", start)
	return ids
}

func (b *tracedBackend) Add(t *traj.Trajectory) (store.ID, bool, error) {
	start := b.tr.now()
	id, created, err := b.Backend.Add(t)
	b.record("store.Add", "", start)
	return id, created, err
}

func (b *tracedBackend) Remove(id store.ID) bool {
	start := b.tr.now()
	ok := b.Backend.Remove(id)
	b.record("store.Remove", "", start)
	return ok
}

func (b *tracedBackend) IndexFor(ids []store.ID, ts []*traj.Trajectory) *spatial.Index {
	start := b.tr.now()
	ix := b.Backend.IndexFor(ids, ts)
	b.record("store.IndexFor", "", start)
	return ix
}

// record closes a store span that started at start and attributes it to
// the request on this goroutine. The goroutine lookup itself is timed
// into the request's folded "trace" span, so the benchmark can keep the
// tracer's own cost out of every layer's self time.
func (b *tracedBackend) record(name, tag string, start int64) {
	end := b.tr.now()
	rq := b.tr.current()
	if rq == nil {
		return
	}
	rq.add(name, tag, start, end)
	rq.fold("trace", end, b.tr.now())
}

// EndpointDists wraps the supplier the join calls once per candidate
// pair. The join runs on the handler's goroutine, so the request is
// resolved once, when the supplier is made.
func (b *tracedBackend) EndpointDists(ts []*traj.Trajectory) func(i, j int) (d0, dn float64, ok bool) {
	f := b.Backend.EndpointDists(ts)
	rq := b.tr.current()
	if f == nil || rq == nil {
		return f
	}
	return func(i, j int) (float64, float64, bool) {
		start := b.tr.now()
		d0, dn, ok := f(i, j)
		rq.fold("store.EndpointDists", start, b.tr.now())
		return d0, dn, ok
	}
}
