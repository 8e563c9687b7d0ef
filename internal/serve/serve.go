// Package serve implements the long-running motif server: a JSON-over-
// HTTP front end for every operation in the library, routed through one
// trajectory store (internal/store) so repeated and overlapping queries
// skip ground-distance grid construction entirely — the serve-mode
// prerequisite of the ROADMAP's "millions of users" north star.
//
// Endpoints:
//
//	POST /trajectories    register a trajectory; returns its content ID
//	POST /trajectories/bulk  stream-register an NDJSON corpus upload
//	DELETE /trajectories/{id}  remove a trajectory and its cached artifacts
//	POST /discover        motif in one trajectory, or between two (id2)
//	POST /discover/pairs  motifs between every pair of the given ids
//	POST /topk            k best mutually disjoint motifs
//	POST /knn             k nearest stored trajectories to a query
//	POST /join            all pairs within DFD eps
//	POST /cluster         subtrajectory clustering of one trajectory
//	GET  /healthz         liveness + uptime
//	GET  /stats           store and cache statistics, cumulative reuse
//	GET  /metrics         Prometheus text exposition of the same counters
//
// Every search runs with core.Options.Artifacts pointed at the store, so
// a repeated /discover computes zero new grids (visible per-response in
// stats.gridRebuildsAvoided and cumulatively in GET /stats). Cached
// answers are byte-identical to uncached library calls for every worker
// count; see internal/store for the argument.
//
// Resource bounds, the production-traffic story:
//
//   - Request bodies are capped (Options.MaxBodyBytes, default 64 MiB;
//     oversize bodies are 413s; bulk uploads decode record by record, so
//     they stream under the cap without buffering).
//   - The artifact cache is byte-budgeted, and the trajectory registry
//     itself is bounded by the store's MaxTrajectories/TrajectoryTTL
//     auto-eviction (touch on query; DELETE /trajectories/{id} remains
//     the manual primitive).
//   - Admission control bounds total in-flight search workers
//     (Options.MaxConcurrentSearches): a request beyond capacity queues
//     briefly and is otherwise rejected with 429 + Retry-After, so no
//     traffic level can oversubscribe the box. Admitted requests compute
//     exactly what they would alone — byte-identical determinism per
//     request is untouched; only aggregate load is shaped.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"strings"
	"sync/atomic"
	"time"

	"trajmotif/internal/batch"
	"trajmotif/internal/cluster"
	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
	"trajmotif/internal/trajio"
)

// defaultTau is the GTM initial group size when a request omits it (the
// paper's τ = 32 default).
const defaultTau = 32

// DefaultMaxBodyBytes caps request bodies when Options.MaxBodyBytes is
// zero: 64 MiB, room for a multi-million-point trajectory upload.
const DefaultMaxBodyBytes = 64 << 20

// DefaultQueueWait bounds how long an admission-queued search request
// waits for worker slots before being rejected with 429.
const DefaultQueueWait = 5 * time.Second

// Options configures a server.
type Options struct {
	// Workers is the within-search worker count applied to requests that
	// do not specify their own; 0 selects GOMAXPROCS. Results are
	// byte-identical for every count.
	Workers int
	// MaxBodyBytes caps every request body (oversize bodies are
	// rejected with 413). Zero selects DefaultMaxBodyBytes; negative
	// disables the cap.
	MaxBodyBytes int64
	// MaxConcurrentSearches bounds the total search workers in flight
	// across all requests (a request running W workers holds W slots
	// for its duration), so every request can no longer spawn its own
	// GOMAXPROCS workers under load. Zero selects GOMAXPROCS; negative
	// disables admission control. Admission never changes what an
	// admitted request computes — responses stay byte-identical — it
	// only caps aggregate load.
	MaxConcurrentSearches int
	// MaxQueuedSearches bounds how many search requests may wait for
	// admission at once; beyond it requests are rejected immediately
	// with 429 + Retry-After. Zero selects 4 × MaxConcurrentSearches
	// with a floor of 16, so single-core hosts still absorb modest
	// bursts; negative disables queueing (reject as soon as slots are
	// short).
	MaxQueuedSearches int
	// QueueWait bounds how long one queued request waits before 429.
	// Zero selects DefaultQueueWait; negative means never wait — a
	// request that cannot be admitted immediately is rejected on the
	// spot, regardless of queue capacity.
	QueueWait time.Duration
}

// Server is the HTTP handler. Create with New; it is safe for concurrent
// requests (the store serializes cache access internally).
type Server struct {
	st       Backend
	workers  int
	maxBody  int64
	sem      *admission // nil: admission control disabled
	capacity int64
	mux      *http.ServeMux
	met      *metrics
	started  time.Time
	requests atomic.Int64
	rejected atomic.Int64
	// Cumulative spatial-index effort across /knn and /join requests,
	// surfaced in GET /stats next to the cache-reuse counters.
	indexConsulted atomic.Int64
	indexPruned    atomic.Int64
	// Cumulative projected-kernel fallbacks across /join requests:
	// decision cells the projection's certified error band could not
	// decide and the haversine answered instead.
	projectionFallbacks atomic.Int64
}

// New builds a server around a backend, normally a *store.Store. opt
// may be nil for defaults.
func New(st Backend, opt *Options) *Server {
	s := &Server{st: st, maxBody: DefaultMaxBodyBytes, met: newMetrics(), started: time.Now()}
	maxConc := 0
	maxQueue := 0
	queueWait := DefaultQueueWait
	if opt != nil {
		s.workers = opt.Workers
		if opt.MaxBodyBytes > 0 {
			s.maxBody = opt.MaxBodyBytes
		} else if opt.MaxBodyBytes < 0 {
			s.maxBody = 0
		}
		maxConc = opt.MaxConcurrentSearches
		maxQueue = opt.MaxQueuedSearches
		// Negative means "never wait" — it must not collapse into the
		// default the way zero does, or -queue-wait=-1 silently becomes
		// a 5-second stall before the 429.
		if opt.QueueWait != 0 {
			queueWait = opt.QueueWait
		}
	}
	if maxConc >= 0 {
		if maxConc == 0 {
			maxConc = runtime.GOMAXPROCS(0)
		}
		switch {
		case maxQueue == 0:
			maxQueue = max(4*maxConc, 16)
		case maxQueue < 0:
			maxQueue = 0
		}
		s.capacity = int64(maxConc)
		s.sem = newAdmission(int64(maxConc), maxQueue, queueWait)
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /trajectories", s.handleTrajectories)
	s.mux.HandleFunc("POST /trajectories/bulk", s.handleTrajectoriesBulk)
	s.mux.HandleFunc("DELETE /trajectories/{id}", s.handleTrajectoryDelete)
	s.mux.HandleFunc("POST /discover", s.handleDiscover)
	s.mux.HandleFunc("POST /discover/pairs", s.handleDiscoverPairs)
	s.mux.HandleFunc("POST /topk", s.handleTopK)
	s.mux.HandleFunc("POST /knn", s.handleKNN)
	s.mux.HandleFunc("POST /join", s.handleJoin)
	s.mux.HandleFunc("POST /cluster", s.handleCluster)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	return s
}

// ServeHTTP implements http.Handler: body cap, then per-request
// accounting (in-flight gauge, per-endpoint counters and latency
// histogram, Server-Timing response header) around the mux dispatch.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.requests.Add(1)
	if s.maxBody > 0 && r.Body != nil {
		r.Body = http.MaxBytesReader(w, r.Body, s.maxBody)
	}
	start := time.Now()
	s.met.requestStarted()
	rec := &statusRecorder{ResponseWriter: w, start: start}
	s.mux.ServeHTTP(rec, r)
	s.met.requestDone(endpointLabel(r), rec.status(), time.Since(start))
}

// endpointLabel maps a routed request to its metrics label: the mux
// pattern's path (bounded cardinality — "/trajectories/{id}", never the
// raw URL), or "unmatched" for 404/405 traffic.
func endpointLabel(r *http.Request) string {
	pat := r.Pattern
	if pat == "" {
		return "unmatched"
	}
	if _, path, ok := strings.Cut(pat, " "); ok {
		return path
	}
	return pat
}

// admit applies admission control for a search about to run with the
// request's within-search worker setting, writing the 429 (with
// Retry-After) when the server is at capacity. On success the returned
// release must be called when the search finishes.
func (s *Server) admit(w http.ResponseWriter, workers int) (release func(), ok bool) {
	return s.admitWeight(w, s.searchWeight(workers))
}

// admitWeight is admit with the worker count already resolved (the
// /discover/pairs pool sizes itself from the request alone, bypassing
// the server's within-search default).
func (s *Server) admitWeight(w http.ResponseWriter, weight int) (release func(), ok bool) {
	if s.sem == nil {
		return func() {}, true
	}
	charged, ok := s.sem.acquire(int64(weight))
	if !ok {
		s.rejected.Add(1)
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests,
			"server at capacity: %d search workers in flight; retry shortly", s.capacity)
		return nil, false
	}
	return func() { s.sem.release(charged) }, true
}

// searchWeight is the worker count a request will actually run with —
// the admission weight (resolveWorkers leaves 0 for "GOMAXPROCS at
// search time", which is exactly GOMAXPROCS slots).
func (s *Server) searchWeight(workers int) int {
	if w := s.resolveWorkers(workers); w > 0 {
		return w
	}
	return runtime.GOMAXPROCS(0)
}

// Backend returns the state backend the server fronts.
func (s *Server) Backend() Backend { return s.st }

// resolveWorkers picks a request's within-search worker count: the
// request's own, clamped to workerCap, or the server default.
func (s *Server) resolveWorkers(req int) int {
	if req > 0 {
		return min(req, s.workerCap())
	}
	return s.workers
}

// workerCap bounds a client-supplied worker count: the admission
// capacity, or GOMAXPROCS when admission is off. A search sizes
// per-worker state and goroutines by its count, so an unclamped
// {"workers": 2000000000} would allocate before doing any work. Results
// are byte-identical for every count, so the clamp never changes an
// answer.
func (s *Server) workerCap() int {
	if s.sem != nil {
		return int(s.capacity)
	}
	return runtime.GOMAXPROCS(0)
}

// searchOptions builds the per-request search options: the store is the
// artifact source and its ground distance is pinned so cache keys match.
func (s *Server) searchOptions(workers int, epsilon float64) *core.Options {
	return &core.Options{
		Dist:      s.st.Dist(),
		Epsilon:   epsilon,
		Workers:   s.resolveWorkers(workers),
		Artifacts: s.st,
	}
}

// --- JSON shapes ---

type errorResponse struct {
	Error string `json:"error"`
}

type trajectoryRequest struct {
	// Points are [lat, lng] pairs in degrees.
	Points [][2]float64 `json:"points"`
	// Times are optional unix seconds (fractional allowed), one per point.
	Times []float64 `json:"times,omitempty"`
	// CSV is an alternative to Points: a whole file in the trajio CSV
	// format ("lat,lng[,unix]" with optional header).
	CSV string `json:"csv,omitempty"`
}

type trajectoryResponse struct {
	ID      store.ID `json:"id"`
	N       int      `json:"n"`
	Timed   bool     `json:"timed"`
	Created bool     `json:"created"`
}

type spanJSON struct {
	Start int `json:"start"`
	End   int `json:"end"`
}

type statsJSON struct {
	N                   int     `json:"n"`
	M                   int     `json:"m"`
	Xi                  int     `json:"xi"`
	Subsets             int64   `json:"subsets"`
	SubsetsProcessed    int64   `json:"subsetsProcessed"`
	SubsetsAbandoned    int64   `json:"subsetsAbandoned"`
	DPCells             int64   `json:"dpCells"`
	GridRebuildsAvoided int64   `json:"gridRebuildsAvoided"`
	PrunedByCell        int64   `json:"prunedByCell"`
	PrunedByCross       int64   `json:"prunedByCross"`
	PrunedByBand        int64   `json:"prunedByBand"`
	PeakBytes           int64   `json:"peakBytes"`
	PrecomputeMS        float64 `json:"precomputeMs"`
	SearchMS            float64 `json:"searchMs"`
}

func statsOf(st core.Stats) statsJSON {
	return statsJSON{
		N: st.N, M: st.M, Xi: st.Xi,
		Subsets:             st.Subsets,
		SubsetsProcessed:    st.SubsetsProcessed,
		SubsetsAbandoned:    st.SubsetsAbandoned,
		DPCells:             st.DPCells,
		GridRebuildsAvoided: st.GridRebuildsAvoided,
		PrunedByCell:        st.PrunedByCell,
		PrunedByCross:       st.PrunedByCross,
		PrunedByBand:        st.PrunedByBand,
		PeakBytes:           st.PeakBytes,
		PrecomputeMS:        float64(st.Precompute) / float64(time.Millisecond),
		SearchMS:            float64(st.Search) / float64(time.Millisecond),
	}
}

type motifResponse struct {
	A        spanJSON  `json:"a"`
	B        spanJSON  `json:"b"`
	Distance float64   `json:"distance"`
	Stats    statsJSON `json:"stats"`
}

func motifOf(r *core.Result) motifResponse {
	return motifResponse{
		A:        spanJSON{r.A.Start, r.A.End},
		B:        spanJSON{r.B.Start, r.B.End},
		Distance: r.Distance,
		Stats:    statsOf(r.Stats),
	}
}

// --- helpers ---

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func decode(w http.ResponseWriter, r *http.Request, v any) bool {
	dec := json.NewDecoder(r.Body)
	if err := dec.Decode(v); err != nil {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d byte limit", bodyLimit(err))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: %v", err)
		return false
	}
	// A well-formed body is exactly one JSON value: trailing data (a
	// second concatenated object, stray tokens) is a malformed request,
	// not something to silently ignore.
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		if isBodyTooLarge(err) {
			writeError(w, http.StatusRequestEntityTooLarge,
				"request body exceeds the %d byte limit", bodyLimit(err))
			return false
		}
		writeError(w, http.StatusBadRequest, "bad request body: trailing data after JSON value")
		return false
	}
	return true
}

// isBodyTooLarge reports whether err (possibly wrapped) is the body-cap
// trip from http.MaxBytesReader — a 413, not a generic 400.
func isBodyTooLarge(err error) bool {
	var mbe *http.MaxBytesError
	return errors.As(err, &mbe)
}

// bodyLimit extracts the cap that tripped, for the 413 message.
func bodyLimit(err error) int64 {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return mbe.Limit
	}
	return 0
}

// resolveDataset resolves the dataset of a /knn or /join request. With
// explicit reqIDs, every id must resolve (404 on a miss — the client
// named it). With reqIDs == nil the dataset defaults to everything
// stored except exclude; that snapshot races with concurrent DELETEs, so
// an id that vanished between IDs() and Get is skipped rather than
// failing a request that never named it.
func (s *Server) resolveDataset(w http.ResponseWriter, reqIDs []store.ID, exclude store.ID) ([]store.ID, []*traj.Trajectory, bool) {
	if reqIDs != nil {
		ts := make([]*traj.Trajectory, len(reqIDs))
		for k, id := range reqIDs {
			t, ok := s.lookup(w, id)
			if !ok {
				return nil, nil, false
			}
			ts[k] = t
		}
		return reqIDs, ts, true
	}
	var ids []store.ID
	var ts []*traj.Trajectory
	for _, id := range s.st.IDs() {
		if exclude != "" && id == exclude {
			continue
		}
		if t, ok := s.st.Get(id); ok {
			ids = append(ids, id)
			ts = append(ts, t)
		}
	}
	return ids, ts, true
}

// lookup resolves a trajectory id, writing a 404 on a miss.
func (s *Server) lookup(w http.ResponseWriter, id store.ID) (*traj.Trajectory, bool) {
	t, ok := s.st.Get(id)
	if !ok {
		writeError(w, http.StatusNotFound, "unknown trajectory %q", id)
	}
	return t, ok
}

// searchStatus maps library errors to HTTP statuses: infeasible inputs
// are the client's fault, everything else is a 500.
func searchStatus(err error) int {
	if errors.Is(err, core.ErrTooShort) {
		return http.StatusUnprocessableEntity
	}
	return http.StatusInternalServerError
}

// --- handlers ---

func (s *Server) handleTrajectories(w http.ResponseWriter, r *http.Request) {
	var req trajectoryRequest
	if !decode(w, r, &req) {
		return
	}
	var t *traj.Trajectory
	var err error
	switch {
	case req.CSV != "" && len(req.Points) > 0:
		writeError(w, http.StatusBadRequest, "give points or csv, not both")
		return
	case req.CSV != "":
		t, err = trajio.ReadCSV(strings.NewReader(req.CSV))
	default:
		t, err = trajFromRequest(req)
	}
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, created, err := s.st.Add(t)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, trajectoryResponse{
		ID: id, N: t.Len(), Timed: t.Times != nil, Created: created,
	})
}

// bulkRecord is the outcome of one NDJSON record of a bulk upload.
type bulkRecord struct {
	Index   int      `json:"index"`
	ID      store.ID `json:"id,omitempty"`
	N       int      `json:"n,omitempty"`
	Timed   bool     `json:"timed,omitempty"`
	Created bool     `json:"created,omitempty"`
	Error   string   `json:"error,omitempty"`
}

// maxBulkEcho caps the per-record outcomes echoed in a bulk response, so
// a multi-million-record upload cannot turn the streaming decode's memory
// savings into an unbounded response buffer. Counts stay exact;
// RecordsOmitted reports how many outcomes were dropped from the echo.
const maxBulkEcho = 4096

type bulkResponse struct {
	Records []bulkRecord `json:"records"`
	Stored  int          `json:"stored"`
	Failed  int          `json:"failed"`
	// RecordsOmitted counts per-record outcomes beyond the maxBulkEcho
	// echo cap (Stored/Failed still cover them).
	RecordsOmitted int `json:"recordsOmitted,omitempty"`
	// Error is set when the stream ended early (malformed JSON or the
	// body cap); records registered before the cut stand.
	Error string `json:"error,omitempty"`
}

// record appends one outcome under the echo cap.
func (r *bulkResponse) record(rec bulkRecord) {
	if len(r.Records) >= maxBulkEcho {
		r.RecordsOmitted++
		return
	}
	r.Records = append(r.Records, rec)
}

// handleTrajectoriesBulk registers a whole NDJSON stream of trajectories
// ({"points": [[lat,lng], ...], "times": [unix, ...]} per line), decoded
// record by record — the upload body is never buffered, so corpus-sized
// bulk loads decode in O(largest record) under the body cap (the
// registered trajectories themselves live in the store, and the response
// echoes at most maxBulkEcho per-record outcomes). A semantically
// invalid record is reported and skipped; malformed JSON ends the stream
// (earlier registrations stand — bulk upload is not transactional).
func (s *Server) handleTrajectoriesBulk(w http.ResponseWriter, r *http.Request) {
	sc := trajio.NewNDJSONScanner(r.Body)
	var resp bulkResponse
	// idx mirrors the scanner's internal record counter (RecordError
	// carries the authoritative index; successes advance in lockstep) —
	// if the scanner's counting rules ever change, change this too.
	idx := 0
	for {
		t, err := sc.Next()
		if errors.Is(err, io.EOF) {
			break
		}
		var re *trajio.RecordError
		if errors.As(err, &re) {
			resp.record(bulkRecord{Index: re.Index, Error: re.Err.Error()})
			resp.Failed++
			idx = re.Index + 1
			continue
		}
		if err != nil {
			if resp.Stored == 0 && resp.Failed == 0 {
				// An oversize upload that never yielded a record is a 413
				// (the client must shrink or split it), not a generic 400.
				if isBodyTooLarge(err) {
					writeError(w, http.StatusRequestEntityTooLarge,
						"request body exceeds the %d byte limit", bodyLimit(err))
					return
				}
				writeError(w, http.StatusBadRequest, "%v", err)
				return
			}
			resp.Error = err.Error()
			break
		}
		id, created, err := s.st.Add(t)
		if err != nil {
			resp.record(bulkRecord{Index: idx, Error: err.Error()})
			resp.Failed++
		} else {
			resp.record(bulkRecord{
				Index: idx, ID: id, N: t.Len(), Timed: t.Times != nil, Created: created,
			})
			resp.Stored++
		}
		idx++
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleTrajectoryDelete removes a trajectory from the registry and
// purges its cached artifacts — the registry-eviction primitive. The
// /knn and /join dataset defaults ("everything stored") stop including
// it immediately.
func (s *Server) handleTrajectoryDelete(w http.ResponseWriter, r *http.Request) {
	id := store.ID(r.PathValue("id"))
	if !s.st.Remove(id) {
		writeError(w, http.StatusNotFound, "unknown trajectory %q", id)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "removed": true})
}

type discoverRequest struct {
	ID      store.ID `json:"id"`
	ID2     store.ID `json:"id2,omitempty"`
	Xi      int      `json:"xi"`
	Tau     int      `json:"tau,omitempty"`
	Algo    string   `json:"algo,omitempty"`
	Epsilon float64  `json:"epsilon,omitempty"`
	Workers int      `json:"workers,omitempty"`
}

func (s *Server) handleDiscover(w http.ResponseWriter, r *http.Request) {
	var req discoverRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Xi < 0 {
		writeError(w, http.StatusBadRequest, "negative minimum motif length %d", req.Xi)
		return
	}
	t, ok := s.lookup(w, req.ID)
	if !ok {
		return
	}
	var u *traj.Trajectory
	if req.ID2 != "" {
		if u, ok = s.lookup(w, req.ID2); !ok {
			return
		}
	}
	tau := req.Tau
	if tau <= 0 {
		tau = defaultTau
	}
	release, ok := s.admit(w, req.Workers)
	if !ok {
		return
	}
	defer release()
	opt := s.searchOptions(req.Workers, req.Epsilon)

	var res *core.Result
	var err error
	switch req.Algo {
	case "", "gtm", "gtmstar":
		var gr *group.Result
		star := req.Algo == "gtmstar"
		switch {
		case star && u == nil:
			gr, err = group.GTMStar(t, req.Xi, tau, opt)
		case star:
			gr, err = group.GTMStarCross(t, u, req.Xi, tau, opt)
		case u == nil:
			gr, err = group.GTM(t, req.Xi, tau, opt)
		default:
			gr, err = group.GTMCross(t, u, req.Xi, tau, opt)
		}
		if gr != nil {
			res = &gr.Result
		}
	case "btm":
		if u == nil {
			res, err = core.BTM(t, req.Xi, opt)
		} else {
			res, err = core.BTMCross(t, u, req.Xi, opt)
		}
	case "brutedp":
		if u == nil {
			res, err = core.BruteDP(t, req.Xi, opt)
		} else {
			res, err = core.BruteDPCross(t, u, req.Xi, opt)
		}
	default:
		writeError(w, http.StatusBadRequest, "unknown algorithm %q", req.Algo)
		return
	}
	if err != nil {
		writeError(w, searchStatus(err), "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, motifOf(res))
}

type discoverPairsRequest struct {
	IDs     []store.ID `json:"ids"`
	Xi      int        `json:"xi"`
	Tau     int        `json:"tau,omitempty"`
	Workers int        `json:"workers,omitempty"`
}

type pairResponse struct {
	I     int            `json:"i"`
	J     int            `json:"j"`
	IDA   store.ID       `json:"idA"`
	IDB   store.ID       `json:"idB"`
	Error string         `json:"error,omitempty"`
	Motif *motifResponse `json:"motif,omitempty"`
}

func (s *Server) handleDiscoverPairs(w http.ResponseWriter, r *http.Request) {
	var req discoverPairsRequest
	if !decode(w, r, &req) {
		return
	}
	if len(req.IDs) < 2 {
		writeError(w, http.StatusBadRequest, "need at least two ids, got %d", len(req.IDs))
		return
	}
	if req.Xi < 0 {
		writeError(w, http.StatusBadRequest, "negative minimum motif length %d", req.Xi)
		return
	}
	ts := make([]*traj.Trajectory, len(req.IDs))
	for k, id := range req.IDs {
		t, ok := s.lookup(w, id)
		if !ok {
			return
		}
		ts[k] = t
	}
	// The pair pool is the parallel dimension here (within-search stays
	// 1), so its width — req.Workers, 0 defaulting to GOMAXPROCS, clamped
	// to workerCap — is the admission weight.
	poolWidth := req.Workers
	if poolWidth <= 0 {
		poolWidth = runtime.GOMAXPROCS(0)
	}
	poolWidth = min(poolWidth, s.workerCap())
	release, ok := s.admitWeight(w, poolWidth)
	if !ok {
		return
	}
	defer release()
	items, err := batch.DiscoverAllPairs(ts, req.Xi, &batch.Options{
		Search:  s.searchOptions(1, 0), // within-search stays 1: the pair pool parallelizes
		Tau:     req.Tau,
		Workers: poolWidth,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := make([]pairResponse, len(items))
	for k, it := range items {
		out[k] = pairResponse{I: it.I, J: it.J, IDA: req.IDs[it.I], IDB: req.IDs[it.J]}
		if it.Err != nil {
			out[k].Error = it.Err.Error()
		} else {
			m := motifOf(&it.Result.Result)
			out[k].Motif = &m
		}
	}
	writeJSON(w, http.StatusOK, out)
}

type topkRequest struct {
	ID      store.ID `json:"id"`
	ID2     store.ID `json:"id2,omitempty"`
	Xi      int      `json:"xi"`
	K       int      `json:"k"`
	Workers int      `json:"workers,omitempty"`
}

func (s *Server) handleTopK(w http.ResponseWriter, r *http.Request) {
	var req topkRequest
	if !decode(w, r, &req) {
		return
	}
	if req.Xi < 0 || req.K < 1 {
		writeError(w, http.StatusBadRequest, "need xi >= 0 and k >= 1, got xi=%d k=%d", req.Xi, req.K)
		return
	}
	t, ok := s.lookup(w, req.ID)
	if !ok {
		return
	}
	release, ok := s.admit(w, req.Workers)
	if !ok {
		return
	}
	defer release()
	opt := s.searchOptions(req.Workers, 0)
	var results []core.Result
	var err error
	if req.ID2 == "" {
		results, err = core.TopK(t, req.Xi, req.K, opt)
	} else {
		var u *traj.Trajectory
		if u, ok = s.lookup(w, req.ID2); !ok {
			return
		}
		results, err = core.TopKCross(t, u, req.Xi, req.K, opt)
	}
	if err != nil {
		writeError(w, searchStatus(err), "%v", err)
		return
	}
	out := make([]motifResponse, len(results))
	for k := range results {
		out[k] = motifOf(&results[k])
	}
	writeJSON(w, http.StatusOK, out)
}

type knnRequest struct {
	Query store.ID   `json:"query"`
	IDs   []store.ID `json:"ids,omitempty"` // default: all stored except the query
	K     int        `json:"k"`
}

type neighborResponse struct {
	ID       store.ID `json:"id"`
	Index    int      `json:"index"`
	Distance float64  `json:"distance"`
}

type knnResponse struct {
	Neighbors []neighborResponse `json:"neighbors"`
	Stats     knn.Stats          `json:"stats"`
}

func (s *Server) handleKNN(w http.ResponseWriter, r *http.Request) {
	var req knnRequest
	if !decode(w, r, &req) {
		return
	}
	q, ok := s.lookup(w, req.Query)
	if !ok {
		return
	}
	ids, ds, ok := s.resolveDataset(w, req.IDs, req.Query)
	if !ok {
		return
	}
	// k-NN runs single-threaded: one admission slot.
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	// The per-request index reuses the registry's cached MBRs (one lock
	// acquisition) instead of folding every candidate's points again.
	nbrs, st, err := knn.Nearest(q, ds, req.K, &knn.Options{
		Dist:  s.st.Dist(),
		Index: s.st.IndexFor(ids, ds),
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.indexConsulted.Add(st.IndexConsulted)
	s.indexPruned.Add(st.IndexPruned)
	s.projectionFallbacks.Add(st.ProjectionFallbacks)
	out := knnResponse{Neighbors: make([]neighborResponse, len(nbrs)), Stats: st}
	for k, nb := range nbrs {
		out.Neighbors[k] = neighborResponse{ID: ids[nb.Index], Index: nb.Index, Distance: nb.Distance}
	}
	writeJSON(w, http.StatusOK, out)
}

type joinRequest struct {
	IDs   []store.ID `json:"ids,omitempty"` // default: all stored
	Eps   float64    `json:"eps"`
	Exact bool       `json:"exact,omitempty"`
}

type joinPairResponse struct {
	IDA      store.ID `json:"idA"`
	IDB      store.ID `json:"idB"`
	I        int      `json:"i"`
	J        int      `json:"j"`
	Distance float64  `json:"distance"`
}

type joinResponse struct {
	Pairs []joinPairResponse `json:"pairs"`
	Stats join.Stats         `json:"stats"`
}

func (s *Server) handleJoin(w http.ResponseWriter, r *http.Request) {
	var req joinRequest
	if !decode(w, r, &req) {
		return
	}
	ids, ts, ok := s.resolveDataset(w, req.IDs, "")
	if !ok {
		return
	}
	// Join runs single-threaded: one admission slot.
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	// The index reuses the registry's cached MBRs, and the endpoint memo
	// serves the cascade the exact float64s it would compute.
	pairs, st, err := join.Join(ts, req.Eps, &join.Options{
		Dist:          s.st.Dist(),
		Exact:         req.Exact,
		Index:         s.st.IndexFor(ids, ts),
		EndpointDists: s.st.EndpointDists(ts),
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	s.indexConsulted.Add(st.IndexConsulted)
	s.indexPruned.Add(st.IndexPruned)
	s.projectionFallbacks.Add(st.ProjectionFallbacks)
	out := joinResponse{Pairs: make([]joinPairResponse, len(pairs)), Stats: st}
	for k, p := range pairs {
		out.Pairs[k] = joinPairResponse{IDA: ids[p.I], IDB: ids[p.J], I: p.I, J: p.J, Distance: p.Distance}
	}
	writeJSON(w, http.StatusOK, out)
}

type clusterRequest struct {
	ID      store.ID `json:"id"`
	Window  int      `json:"window"`
	Eps     float64  `json:"eps"`
	Stride  int      `json:"stride,omitempty"`
	MinSize int      `json:"minSize,omitempty"`
}

type clusterResponse struct {
	Representative spanJSON   `json:"representative"`
	Members        []spanJSON `json:"members"`
}

func (s *Server) handleCluster(w http.ResponseWriter, r *http.Request) {
	var req clusterRequest
	if !decode(w, r, &req) {
		return
	}
	t, ok := s.lookup(w, req.ID)
	if !ok {
		return
	}
	// Clustering runs single-threaded: one admission slot.
	release, ok := s.admit(w, 1)
	if !ok {
		return
	}
	defer release()
	clusters, err := cluster.Subtrajectories(t, req.Window, req.Eps, &cluster.Options{
		Dist: s.st.Dist(), Stride: req.Stride, MinSize: req.MinSize,
	})
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	out := make([]clusterResponse, len(clusters))
	for k, c := range clusters {
		out[k] = clusterResponse{Representative: spanJSON{c.Representative.Start, c.Representative.End}}
		for _, m := range c.Members {
			out[k].Members = append(out[k].Members, spanJSON{m.Start, m.End})
		}
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"ok":           true,
		"uptime":       time.Since(s.started).Round(time.Millisecond).String(),
		"trajectories": s.st.Len(),
	})
}

// snapshot reads everything the statRows getters report, once.
func (s *Server) snapshot() *statsSnapshot {
	v := &statsSnapshot{
		Stats:               s.st.Stats(),
		requests:            s.requests.Load(),
		rejected:            s.rejected.Load(),
		indexConsulted:      s.indexConsulted.Load(),
		indexPruned:         s.indexPruned.Load(),
		projectionFallbacks: s.projectionFallbacks.Load(),
		inFlight:            s.met.inFlightNow(),
		uptime:              time.Since(s.started).Round(time.Millisecond),
	}
	if s.sem != nil {
		v.admission = true
		v.capacity = s.capacity
		v.inUse, v.queued = s.sem.snapshot()
	}
	return v
}

// handleStats serves the store snapshot plus request accounting as one
// JSON object. gridRebuildsAvoided is the cumulative cross-request reuse.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsJSONObject(s.snapshot()))
}

// handleMetrics serves the Prometheus text exposition: per-endpoint
// request counters and latency histograms, and the statRows series —
// the same numbers /stats reports as JSON, in the format a scraper
// ingests.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	var b strings.Builder
	s.met.render(&b, s.snapshot())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	_, _ = io.WriteString(w, b.String())
}

// trajFromRequest builds a trajectory from the points/times arrays.
func trajFromRequest(req trajectoryRequest) (*traj.Trajectory, error) {
	if len(req.Points) == 0 {
		return nil, errors.New("serve: empty points")
	}
	points := make([]geo.Point, len(req.Points))
	for k, p := range req.Points {
		points[k] = geo.Point{Lat: p[0], Lng: p[1]}
	}
	var times []time.Time
	if req.Times != nil {
		if len(req.Times) != len(points) {
			return nil, fmt.Errorf("serve: %d times for %d points", len(req.Times), len(points))
		}
		times = make([]time.Time, len(req.Times))
		for k, unix := range req.Times {
			sec := int64(unix)
			times[k] = time.Unix(sec, int64((unix-float64(sec))*1e9)).UTC()
		}
	}
	return traj.New(points, times)
}
