package serve

import (
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// latencyBuckets are the request-duration histogram upper bounds in
// seconds. Chosen for a search server: sub-millisecond registry hits
// through multi-second cold grid builds.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metrics is the server's dependency-free Prometheus-text registry:
// per-endpoint request counters (by status code) and latency
// histograms, plus the in-flight gauge. Store/cache/index/eviction and
// admission counters are read live at scrape time, not duplicated here.
type metrics struct {
	mu        sync.Mutex
	endpoints map[string]*endpointMetrics
	inFlight  int64
}

// endpointMetrics accumulates one endpoint's counters. buckets[k]
// counts requests with duration <= latencyBuckets[k]; the implicit
// +Inf bucket is count.
type endpointMetrics struct {
	codes   map[int]int64
	buckets [len(latencyBuckets)]int64
	sum     float64
	count   int64
}

func newMetrics() *metrics {
	return &metrics{endpoints: make(map[string]*endpointMetrics)}
}

func (m *metrics) requestStarted() {
	m.mu.Lock()
	m.inFlight++
	m.mu.Unlock()
}

func (m *metrics) requestDone(endpoint string, code int, d time.Duration) {
	secs := d.Seconds()
	m.mu.Lock()
	defer m.mu.Unlock()
	m.inFlight--
	e := m.endpoints[endpoint]
	if e == nil {
		e = &endpointMetrics{codes: make(map[int]int64)}
		m.endpoints[endpoint] = e
	}
	e.codes[code]++
	e.sum += secs
	e.count++
	for k, le := range latencyBuckets {
		if secs <= le {
			e.buckets[k]++
		}
	}
}

// liveCounters is everything /metrics reads at scrape time beyond the
// per-request accounting: the store snapshot and admission state.
type liveCounters struct {
	trajectories     int
	maxTrajectories  int
	trajectoryTTL    float64 // seconds; 0 = disabled
	artifacts        int
	cacheBytes       int64
	cacheBudget      int64
	built            int64
	reused           int64
	artifactEvicted  int64
	evictedManual    int64
	evictedLRU       int64
	evictedTTL       int64
	pairDistsBuilt   int64
	pairDistsReused  int64
	diskArtifacts    int
	diskBytes        int64
	diskWrites       int64
	diskReads        int64
	diskErrors       int64
	indexConsulted   int64
	indexPruned      int64
	admissionInUse   int64
	admissionQueued  int
	admissionReject  int64
	uptimeSeconds    float64
	workerCapacity   int64
	admissionEnabled bool
}

// render writes the Prometheus text exposition (version 0.0.4). Output
// is deterministic: endpoints and status codes are sorted.
func (m *metrics) render(w *strings.Builder, live liveCounters) {
	m.mu.Lock()
	names := make([]string, 0, len(m.endpoints))
	for name := range m.endpoints {
		names = append(names, name)
	}
	sort.Strings(names)

	fmt.Fprintf(w, "# HELP motifserve_requests_total Requests served, by endpoint pattern and status code.\n")
	fmt.Fprintf(w, "# TYPE motifserve_requests_total counter\n")
	for _, name := range names {
		e := m.endpoints[name]
		codes := make([]int, 0, len(e.codes))
		for c := range e.codes {
			codes = append(codes, c)
		}
		sort.Ints(codes)
		for _, c := range codes {
			fmt.Fprintf(w, "motifserve_requests_total{endpoint=%q,code=\"%d\"} %d\n", name, c, e.codes[c])
		}
	}

	fmt.Fprintf(w, "# HELP motifserve_request_duration_seconds Request latency, by endpoint pattern.\n")
	fmt.Fprintf(w, "# TYPE motifserve_request_duration_seconds histogram\n")
	for _, name := range names {
		e := m.endpoints[name]
		for k, le := range latencyBuckets {
			fmt.Fprintf(w, "motifserve_request_duration_seconds_bucket{endpoint=%q,le=%q} %d\n",
				name, strconv.FormatFloat(le, 'g', -1, 64), e.buckets[k])
		}
		fmt.Fprintf(w, "motifserve_request_duration_seconds_bucket{endpoint=%q,le=\"+Inf\"} %d\n", name, e.count)
		fmt.Fprintf(w, "motifserve_request_duration_seconds_sum{endpoint=%q} %g\n", name, e.sum)
		fmt.Fprintf(w, "motifserve_request_duration_seconds_count{endpoint=%q} %d\n", name, e.count)
	}

	inFlight := m.inFlight
	m.mu.Unlock()

	gauge := func(name, help string, v any) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s gauge\n%s %v\n", name, help, name, name, v)
	}
	counter := func(name, help string, v int64) {
		fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s counter\n%s %d\n", name, help, name, name, v)
	}

	gauge("motifserve_in_flight_requests", "Requests currently being served.", inFlight)
	gauge("motifserve_trajectories", "Trajectories resident in the registry.", live.trajectories)
	gauge("motifserve_trajectories_max", "Configured registry capacity (0 = unbounded).", live.maxTrajectories)
	gauge("motifserve_trajectory_ttl_seconds", "Configured registry idle TTL (0 = disabled).", strconv.FormatFloat(live.trajectoryTTL, 'f', 3, 64))
	gauge("motifserve_cache_artifacts", "Artifacts resident in the cache.", live.artifacts)
	gauge("motifserve_cache_bytes", "Bytes resident in the artifact cache.", live.cacheBytes)
	gauge("motifserve_cache_budget_bytes", "Configured artifact-cache byte budget.", live.cacheBudget)
	counter("motifserve_artifacts_built_total", "Artifact constructions performed.", live.built)
	counter("motifserve_artifacts_reused_total", "Artifact constructions skipped by cache reuse.", live.reused)
	counter("motifserve_artifact_evictions_total", "Artifacts dropped by the cache budget or registry purges.", live.artifactEvicted)

	fmt.Fprintf(w, "# HELP motifserve_trajectory_evictions_total Trajectories evicted from the registry, by cause.\n")
	fmt.Fprintf(w, "# TYPE motifserve_trajectory_evictions_total counter\n")
	fmt.Fprintf(w, "motifserve_trajectory_evictions_total{cause=\"manual\"} %d\n", live.evictedManual)
	fmt.Fprintf(w, "motifserve_trajectory_evictions_total{cause=\"lru\"} %d\n", live.evictedLRU)
	fmt.Fprintf(w, "motifserve_trajectory_evictions_total{cause=\"ttl\"} %d\n", live.evictedTTL)

	counter("motifserve_pair_dists_built_total", "Endpoint-distance memo tables built for /join.", live.pairDistsBuilt)
	counter("motifserve_pair_dists_reused_total", "Endpoint-distance memo tables served from cache.", live.pairDistsReused)
	counter("motifserve_index_consulted_total", "Spatial-index candidate checks across /knn and /join.", live.indexConsulted)
	counter("motifserve_index_pruned_total", "Candidates dismissed by the spatial index alone.", live.indexPruned)

	gauge("motifserve_disk_artifacts", "Artifacts resident in the disk tier (0 = tier disabled).", live.diskArtifacts)
	gauge("motifserve_disk_bytes", "Bytes resident in the disk artifact tier.", live.diskBytes)
	counter("motifserve_disk_writes_total", "Artifacts spilled to the disk tier.", live.diskWrites)
	counter("motifserve_disk_reads_total", "Artifacts promoted from the disk tier.", live.diskReads)
	counter("motifserve_disk_errors_total", "Disk-tier write failures plus torn artifacts healed on read.", live.diskErrors)

	if live.admissionEnabled {
		gauge("motifserve_admission_worker_capacity", "Configured global search-worker capacity.", live.workerCapacity)
		gauge("motifserve_admission_workers_in_use", "Search-worker slots currently admitted.", live.admissionInUse)
		gauge("motifserve_admission_queued_requests", "Search requests waiting for admission.", live.admissionQueued)
	}
	counter("motifserve_admission_rejected_total", "Search requests rejected with 429 by admission control.", live.admissionReject)
	gauge("motifserve_uptime_seconds", "Seconds since the server started.", strconv.FormatFloat(live.uptimeSeconds, 'f', 3, 64))
}

// statusRecorder wraps a ResponseWriter to capture the status code and
// stamp a Server-Timing header with the time the handler spent before
// the response started (headers are immutable once written, so the
// compute duration — everything up to the first byte — is what a
// per-request timing header can carry).
type statusRecorder struct {
	http.ResponseWriter
	start time.Time
	code  int
	wrote bool
}

func (r *statusRecorder) WriteHeader(code int) {
	if !r.wrote {
		r.wrote = true
		r.code = code
		r.Header().Set("Server-Timing",
			fmt.Sprintf("app;dur=%.3f", float64(time.Since(r.start))/float64(time.Millisecond)))
	}
	r.ResponseWriter.WriteHeader(code)
}

func (r *statusRecorder) Write(b []byte) (int, error) {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	return r.ResponseWriter.Write(b)
}

// Unwrap exposes the underlying writer to http.ResponseController, so
// handlers can reach Flush/SetWriteDeadline/Hijack through the recorder
// instead of finding a wrapper that silently supports none of them.
func (r *statusRecorder) Unwrap() http.ResponseWriter { return r.ResponseWriter }

// Flush passes a streaming flush through (headers are stamped first, as
// a flush commits them exactly like a body write). Without this — and
// Unwrap above — wrapping the writer made every response unflushable:
// http.Flusher asserted against the recorder failed, and SSE or
// long-poll handlers would buffer until the handler returned.
func (r *statusRecorder) Flush() {
	if !r.wrote {
		r.WriteHeader(http.StatusOK)
	}
	if f, ok := r.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// status returns the recorded status (200 when the handler wrote a body
// without an explicit WriteHeader; 200 also for empty-body successes).
func (r *statusRecorder) status() int {
	if r.code == 0 {
		return http.StatusOK
	}
	return r.code
}
