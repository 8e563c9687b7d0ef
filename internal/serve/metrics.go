package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"trajmotif/internal/store"
)

// latencyBuckets are the request-duration histogram upper bounds in
// seconds. Chosen for a search server: sub-millisecond registry hits
// through multi-second cold grid builds.
var latencyBuckets = [...]float64{0.001, 0.005, 0.025, 0.1, 0.5, 2.5, 10}

// metrics is the server's dependency-free Prometheus-text registry:
// per-endpoint request counters (by status code) and latency
// histograms, plus the in-flight gauge. Every other series is a statRows
// row, read live at scrape time.
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

func (m *metrics) inFlightNow() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.inFlight
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

// statsSnapshot is one read of everything /stats and /metrics report
// beyond the per-endpoint accounting: the backend's store snapshot plus
// the server's own counters, uptime and admission state. Both endpoints
// render it through statRows.
type statsSnapshot struct {
	store.Stats
	requests, rejected          int64
	indexConsulted, indexPruned int64
	projectionFallbacks         int64
	inFlight                    int64
	uptime                      time.Duration // rounded to the millisecond
	admission                   bool          // admission control enabled
	capacity, inUse             int64
	queued                      int
}

// statRow is one counter or gauge. json is its GET /stats key and series
// its /metrics series, label set included; an empty one keeps the row
// off that endpoint. kind and help head the series' family. get returns
// an int, an int64 or a time.Duration (a duration string in /stats,
// seconds in /metrics), or nil to leave the series out of this scrape.
type statRow struct {
	json, series, kind, help string
	get                      func(v *statsSnapshot) any
}

const evictionsHelp = "Trajectories evicted from the registry, by cause."

// whenAdmission keeps an admission gauge out of /metrics while admission
// control is disabled.
func whenAdmission(get func(v *statsSnapshot) any) func(v *statsSnapshot) any {
	return func(v *statsSnapshot) any {
		if !v.admission {
			return nil
		}
		return get(v)
	}
}

// statRows is the one declaration of every /stats field (in its JSON
// order) and every /metrics series beyond the per-endpoint request
// families. A family's series are adjacent rows.
var statRows = [...]statRow{
	{"", "motifserve_in_flight_requests", "gauge", "Requests currently being served.",
		func(v *statsSnapshot) any { return v.inFlight }},
	{"trajectories", "motifserve_trajectories", "gauge", "Trajectories resident in the registry.",
		func(v *statsSnapshot) any { return v.Trajectories }},
	{"maxTrajectories", "motifserve_trajectories_max", "gauge", "Configured registry capacity (0 = unbounded).",
		func(v *statsSnapshot) any { return v.MaxTrajectories }},
	{"trajectoryTTL", "motifserve_trajectory_ttl_seconds", "gauge", "Configured registry idle TTL (0 = disabled).",
		func(v *statsSnapshot) any { return v.TrajectoryTTL }},
	{"artifacts", "motifserve_cache_artifacts", "gauge", "Artifacts resident in the cache, /join endpoint-memo entries included.",
		func(v *statsSnapshot) any { return v.Artifacts }},
	{"cacheBytes", "motifserve_cache_bytes", "gauge", "Bytes resident in the artifact cache, /join endpoint-memo entries included.",
		func(v *statsSnapshot) any { return v.CacheBytes }},
	{"cacheBudget", "motifserve_cache_budget_bytes", "gauge", "Configured artifact-cache byte budget.",
		func(v *statsSnapshot) any { return v.CacheBudget }},
	{"built", "motifserve_artifacts_built_total", "counter", "Artifact constructions performed.",
		func(v *statsSnapshot) any { return v.Built }},
	{"reused", "motifserve_artifacts_reused_total", "counter", "Artifact constructions skipped by cache reuse.",
		func(v *statsSnapshot) any { return v.Reused }},
	{"evicted", "motifserve_artifact_evictions_total", "counter", "Artifacts dropped by the cache budget or registry purges.",
		func(v *statsSnapshot) any { return v.Evicted }},
	{"gridRebuildsAvoided", "", "", "",
		func(v *statsSnapshot) any { return v.GridRebuildsAvoided() }},
	{"removed", `motifserve_trajectory_evictions_total{cause="manual"}`, "counter", evictionsHelp,
		func(v *statsSnapshot) any { return v.Removed }},
	{"evictedLRU", `motifserve_trajectory_evictions_total{cause="lru"}`, "counter", evictionsHelp,
		func(v *statsSnapshot) any { return v.EvictedLRU }},
	{"evictedTTL", `motifserve_trajectory_evictions_total{cause="ttl"}`, "counter", evictionsHelp,
		func(v *statsSnapshot) any { return v.EvictedTTL }},
	{"indexConsulted", "motifserve_index_consulted_total", "counter", "Spatial-index candidate checks across /knn and /join.",
		func(v *statsSnapshot) any { return v.indexConsulted }},
	{"indexPruned", "motifserve_index_pruned_total", "counter", "Candidates dismissed by the spatial index alone.",
		func(v *statsSnapshot) any { return v.indexPruned }},
	{"pairDistsBuilt", "motifserve_pair_dists_built_total", "counter", "Endpoint-distance memo misses across /join.",
		func(v *statsSnapshot) any { return v.PairDistsBuilt }},
	{"pairDistsReused", "motifserve_pair_dists_reused_total", "counter", "Endpoint-distance memo hits across /join.",
		func(v *statsSnapshot) any { return v.PairDistsReused }},
	{"projectionFallbacks", "motifserve_projection_fallbacks_total", "counter", "Projected /knn and /join decision cells (or whole pairs) the certified error band could not decide, answered by the haversine.",
		func(v *statsSnapshot) any { return v.projectionFallbacks }},
	{"diskArtifacts", "motifserve_disk_artifacts", "gauge", "Artifacts resident in the disk tier (0 = tier disabled).",
		func(v *statsSnapshot) any { return v.DiskArtifacts }},
	{"diskBytes", "motifserve_disk_bytes", "gauge", "Bytes resident in the disk artifact tier.",
		func(v *statsSnapshot) any { return v.DiskBytes }},
	{"diskWrites", "motifserve_disk_writes_total", "counter", "Artifacts spilled to the disk tier.",
		func(v *statsSnapshot) any { return v.DiskWrites }},
	{"diskReads", "motifserve_disk_reads_total", "counter", "Artifacts promoted from the disk tier.",
		func(v *statsSnapshot) any { return v.DiskReads }},
	{"diskErrors", "motifserve_disk_errors_total", "counter", "Disk-tier write failures plus torn artifacts healed on read.",
		func(v *statsSnapshot) any { return v.DiskErrors }},
	{"requests", "", "", "",
		func(v *statsSnapshot) any { return v.requests }},
	{"", "motifserve_admission_worker_capacity", "gauge", "Configured global search-worker capacity.",
		whenAdmission(func(v *statsSnapshot) any { return v.capacity })},
	{"", "motifserve_admission_workers_in_use", "gauge", "Search-worker slots currently admitted.",
		whenAdmission(func(v *statsSnapshot) any { return v.inUse })},
	{"", "motifserve_admission_queued_requests", "gauge", "Search requests waiting for admission.",
		whenAdmission(func(v *statsSnapshot) any { return v.queued })},
	{"rejected", "motifserve_admission_rejected_total", "counter", "Search requests rejected with 429 by admission control.",
		func(v *statsSnapshot) any { return v.rejected }},
	{"uptime", "motifserve_uptime_seconds", "gauge", "Seconds since the server started.",
		func(v *statsSnapshot) any { return v.uptime }},
}

// statsJSONObject renders the GET /stats object: every row with a json
// key, in table order.
func statsJSONObject(v *statsSnapshot) json.RawMessage {
	b := []byte{'{'}
	for i := range statRows {
		row := &statRows[i]
		if row.json == "" {
			continue
		}
		if len(b) > 1 {
			b = append(b, ',')
		}
		val := row.get(v)
		if d, ok := val.(time.Duration); ok {
			val = d.String()
		}
		enc, _ := json.Marshal(val) // ints and strings always encode
		b = strconv.AppendQuote(b, row.json)
		b = append(append(b, ':'), enc...)
	}
	return append(b, '}')
}

// render writes the Prometheus text exposition (version 0.0.4): the
// per-endpoint request families, then every statRows series. Output is
// deterministic: endpoints and status codes are sorted.
func (m *metrics) render(w *strings.Builder, v *statsSnapshot) {
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
	m.mu.Unlock()

	family := ""
	for i := range statRows {
		row := &statRows[i]
		if row.series == "" {
			continue
		}
		val := row.get(v)
		if val == nil {
			continue
		}
		if name, _, _ := strings.Cut(row.series, "{"); name != family {
			family = name
			fmt.Fprintf(w, "# HELP %s %s\n# TYPE %s %s\n", name, row.help, name, row.kind)
		}
		if d, ok := val.(time.Duration); ok {
			val = strconv.FormatFloat(d.Seconds(), 'f', 3, 64)
		}
		fmt.Fprintf(w, "%s %v\n", row.series, val)
	}
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
