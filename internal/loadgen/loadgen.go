// Package loadgen replays a mixed read/write workload against a running
// motifserve endpoint and reports what came back. It is the proving
// harness for the server's production-hardening invariants: under
// sustained concurrent traffic the server may shed load (429) and may
// evict trajectories (404 on a stale id), but it must never answer 5xx,
// and a capacity-capped registry must stay capped.
//
// The generator is deterministic: every worker derives its own
// rand.Source from Config.Seed and queries or deletes only ids it
// uploaded itself, and the trajectory bodies come from the seeded
// datagen fixtures, so the op sequence is a function of the seed alone
// and a failing run replays exactly.
package loadgen

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"trajmotif/internal/datagen"
)

// Config shapes one load run.
type Config struct {
	// BaseURL is the server under test, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Concurrency is the number of client workers issuing requests.
	Concurrency int
	// Requests is the total operation count across all workers.
	Requests int
	// Seed makes the op mix and bodies reproducible.
	Seed int64
	// Timeout bounds each request (default 30s).
	Timeout time.Duration
	// MaxP50, MaxP95 and MaxP99 are per-endpoint latency ceilings
	// enforced by Report.Check: a run whose p50/p95/p99 for any endpoint
	// exceeds the ceiling fails the gate. Zero disables that percentile's
	// check.
	MaxP50, MaxP95, MaxP99 time.Duration
}

// LatencyStats summarizes one endpoint's observed request latencies
// (transport failures excluded — they are failures outright).
type LatencyStats struct {
	Count         int
	P50, P95, P99 time.Duration
	Max           time.Duration
}

// Report is the outcome of a run. Status classes the harness considers
// legitimate under load — 2xx, 404 (an id evicted between operations)
// and 429 (admission shedding) — are tallied but are not failures;
// Check turns genuine violations into errors.
type Report struct {
	Ops             int
	ByOp            map[string]int
	ByStatus        map[int]int
	ServerErrors    int // 5xx responses
	TransportErrors int // connection/timeout failures
	FirstErrors     []string

	// Latency holds per-endpoint percentiles (nearest-rank over every
	// completed request of that op); the Max* ceilings echo the Config
	// so Check can enforce them.
	Latency                map[string]LatencyStats
	MaxP50, MaxP95, MaxP99 time.Duration

	// Scraped after the workers drain.
	FinalTrajectories int
	EvictedLRU        int64
	EvictedTTL        int64
	Rejected          int64
	MetricsSamples    int
	MetricsErr        string
}

// Check validates the hardening invariants: no 5xx, no transport
// failures, a parseable /metrics exposition, and — when the server's
// registry cap is known — a bounded registry. maxTrajectories <= 0
// skips the bound check.
func (r *Report) Check(maxTrajectories int) error {
	switch {
	case r.ServerErrors > 0:
		return fmt.Errorf("%d server errors (5xx): %s", r.ServerErrors, strings.Join(r.FirstErrors, "; "))
	case r.TransportErrors > 0:
		return fmt.Errorf("%d transport errors: %s", r.TransportErrors, strings.Join(r.FirstErrors, "; "))
	case r.MetricsErr != "":
		return fmt.Errorf("final /metrics scrape: %s", r.MetricsErr)
	case r.ByStatus[http.StatusOK] == 0:
		return fmt.Errorf("no request succeeded (statuses: %v)", r.ByStatus)
	case maxTrajectories > 0 && r.FinalTrajectories > maxTrajectories:
		return fmt.Errorf("registry holds %d trajectories past the cap of %d", r.FinalTrajectories, maxTrajectories)
	}
	return r.checkLatency()
}

// checkLatency enforces the configured percentile ceilings per endpoint,
// walking ops in sorted order so a multi-violation run reports the same
// offender every time.
func (r *Report) checkLatency() error {
	gates := []struct {
		name string
		lim  time.Duration
		pick func(LatencyStats) time.Duration
	}{
		{"p50", r.MaxP50, func(l LatencyStats) time.Duration { return l.P50 }},
		{"p95", r.MaxP95, func(l LatencyStats) time.Duration { return l.P95 }},
		{"p99", r.MaxP99, func(l LatencyStats) time.Duration { return l.P99 }},
	}
	ops := make([]string, 0, len(r.Latency))
	for op := range r.Latency {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, g := range gates {
		if g.lim <= 0 {
			continue
		}
		for _, op := range ops {
			if v := g.pick(r.Latency[op]); v > g.lim {
				return fmt.Errorf("%s %s latency %v exceeds ceiling %v", op, g.name, v, g.lim)
			}
		}
	}
	return nil
}

// percentiles reduces one op's samples by nearest rank: p(q) is the
// ceil(q·n)-th smallest sample.
func percentiles(ds []time.Duration) LatencyStats {
	sort.Slice(ds, func(a, b int) bool { return ds[a] < ds[b] })
	at := func(q float64) time.Duration {
		k := int(math.Ceil(q*float64(len(ds)))) - 1
		if k < 0 {
			k = 0
		}
		return ds[k]
	}
	return LatencyStats{
		Count: len(ds),
		P50:   at(0.50),
		P95:   at(0.95),
		P99:   at(0.99),
		Max:   ds[len(ds)-1],
	}
}

// String renders the one-screen summary motifload prints.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "ops %d", r.Ops)
	ops := make([]string, 0, len(r.ByOp))
	for op := range r.ByOp {
		ops = append(ops, op)
	}
	sort.Strings(ops)
	for _, op := range ops {
		fmt.Fprintf(&b, " %s=%d", op, r.ByOp[op])
	}
	codes := make([]int, 0, len(r.ByStatus))
	for c := range r.ByStatus {
		codes = append(codes, c)
	}
	sort.Ints(codes)
	b.WriteString("\nstatus")
	for _, c := range codes {
		fmt.Fprintf(&b, " %d=%d", c, r.ByStatus[c])
	}
	lops := make([]string, 0, len(r.Latency))
	for op := range r.Latency {
		lops = append(lops, op)
	}
	sort.Strings(lops)
	for _, op := range lops {
		l := r.Latency[op]
		fmt.Fprintf(&b, "\nlatency %s: p50=%v p95=%v p99=%v max=%v n=%d",
			op, l.P50.Round(time.Microsecond), l.P95.Round(time.Microsecond),
			l.P99.Round(time.Microsecond), l.Max.Round(time.Microsecond), l.Count)
	}
	fmt.Fprintf(&b, "\nfinal: trajectories=%d evictedLRU=%d evictedTTL=%d rejected=%d metricsSamples=%d",
		r.FinalTrajectories, r.EvictedLRU, r.EvictedTTL, r.Rejected, r.MetricsSamples)
	return b.String()
}

// fixturePool is how many distinct trajectory bodies the run cycles
// through — enough to churn a small registry cap, small enough that
// re-uploads exercise the dedup path too.
const fixturePool = 48

// Run replays the workload and scrapes the final server state. The only
// error returned is a setup failure (bad config, fixture generation);
// traffic-level failures land in the Report for Check to judge.
func Run(cfg Config) (*Report, error) {
	if cfg.BaseURL == "" {
		return nil, fmt.Errorf("loadgen: BaseURL required")
	}
	if cfg.Concurrency < 1 {
		cfg.Concurrency = 4
	}
	if cfg.Requests < 1 {
		cfg.Requests = 200
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = 30 * time.Second
	}

	bodies := make([][]byte, fixturePool)
	for k := range bodies {
		tr, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: cfg.Seed + int64(k), N: 36})
		if err != nil {
			return nil, fmt.Errorf("loadgen: fixture %d: %w", k, err)
		}
		req := struct {
			Points [][2]float64 `json:"points"`
		}{Points: make([][2]float64, tr.Len())}
		for j, p := range tr.Points {
			req.Points[j] = [2]float64{p.Lat, p.Lng}
		}
		bodies[k], err = json.Marshal(req)
		if err != nil {
			return nil, err
		}
	}

	rep := &Report{
		ByOp: make(map[string]int), ByStatus: make(map[int]int),
		MaxP50: cfg.MaxP50, MaxP95: cfg.MaxP95, MaxP99: cfg.MaxP99,
	}
	var (
		mu   sync.Mutex // guards rep and durs
		durs = make(map[string][]time.Duration)
	)
	client := &http.Client{Timeout: cfg.Timeout}

	record := func(op string, status int, err error, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		rep.Ops++
		rep.ByOp[op]++
		if err != nil {
			rep.TransportErrors++
			if len(rep.FirstErrors) < 5 {
				rep.FirstErrors = append(rep.FirstErrors, fmt.Sprintf("%s: %v", op, err))
			}
			return
		}
		durs[op] = append(durs[op], d)
		rep.ByStatus[status]++
		if status >= 500 {
			rep.ServerErrors++
			if len(rep.FirstErrors) < 5 {
				rep.FirstErrors = append(rep.FirstErrors, fmt.Sprintf("%s: status %d", op, status))
			}
		}
	}
	post := func(path string, body []byte) (*http.Response, error) {
		return client.Post(cfg.BaseURL+path, "application/json", bytes.NewReader(body))
	}
	// timed issues one request, times it wall-to-wall (including reading
	// the status), and records the outcome under op.
	timed := func(op string, fn func() (*http.Response, error)) {
		start := time.Now()
		resp, err := fn()
		if err == nil {
			resp.Body.Close()
			record(op, resp.StatusCode, nil, time.Since(start))
		} else {
			record(op, 0, err, 0)
		}
	}

	// doUpload posts a random fixture and returns the new id ("" when
	// the upload failed).
	doUpload := func(rng *rand.Rand) string {
		body := bodies[rng.Intn(len(bodies))]
		start := time.Now()
		resp, err := post("/trajectories", body)
		var id string
		if err == nil {
			var out struct {
				ID string `json:"id"`
			}
			if resp.StatusCode == http.StatusOK {
				_ = json.NewDecoder(resp.Body).Decode(&out)
				id = out.ID
			}
			resp.Body.Close()
			record("upload", resp.StatusCode, nil, time.Since(start))
		} else {
			record("upload", 0, err, 0)
		}
		return id
	}

	var wg sync.WaitGroup
	perWorker := cfg.Requests / cfg.Concurrency
	for w := 0; w < cfg.Concurrency; w++ {
		extra := 0
		if w < cfg.Requests%cfg.Concurrency {
			extra = 1
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(cfg.Seed*1000 + int64(w)))
			// ids this client uploaded and has not deleted since. Each
			// client keeps its own, so whether an op finds an id never
			// depends on how other clients' requests interleave.
			var ids []string
			upload := func() {
				if id := doUpload(rng); id != "" {
					ids = append(ids, id)
				}
			}
			randomID := func() (string, bool) {
				if len(ids) == 0 {
					return "", false
				}
				return ids[rng.Intn(len(ids))], true
			}
			for k := 0; k < n; k++ {
				p := rng.Float64()
				switch {
				case p < 0.30: // upload
					upload()
				case p < 0.60: // discover on a known id
					id, ok := randomID()
					if !ok { // nothing uploaded yet: seed the registry instead
						upload()
						continue
					}
					b, _ := json.Marshal(map[string]any{"id": id, "xi": 6})
					timed("discover", func() (*http.Response, error) { return post("/discover", b) })
				case p < 0.72: // knn over the default dataset
					id, ok := randomID()
					if !ok {
						upload()
						continue
					}
					b, _ := json.Marshal(map[string]any{"query": id, "k": 2})
					timed("knn", func() (*http.Response, error) { return post("/knn", b) })
				case p < 0.80: // join over the default dataset
					b, _ := json.Marshal(map[string]any{"eps": 500.0})
					timed("join", func() (*http.Response, error) { return post("/join", b) })
				case p < 0.90: // delete a known id
					id, ok := randomID()
					if !ok {
						upload()
						continue
					}
					timed("delete", func() (*http.Response, error) {
						req, _ := http.NewRequest(http.MethodDelete, cfg.BaseURL+"/trajectories/"+id, nil)
						return client.Do(req)
					})
					// Gone either way: deleted now, or already evicted (404).
					ids = slices.DeleteFunc(ids, func(s string) bool { return s == id })
				default: // observability endpoints under traffic
					path := "/stats"
					if rng.Intn(2) == 0 {
						path = "/metrics"
					}
					timed("observe", func() (*http.Response, error) { return client.Get(cfg.BaseURL + path) })
				}
			}
		}(w, perWorker+extra)
	}
	wg.Wait()

	rep.Latency = make(map[string]LatencyStats, len(durs))
	for op, ds := range durs {
		rep.Latency[op] = percentiles(ds)
	}
	scrapeFinal(client, cfg.BaseURL, rep)
	return rep, nil
}

// scrapeFinal fills the Report's post-run server state: /stats for the
// registry size and eviction counters, /metrics for exposition health.
func scrapeFinal(client *http.Client, base string, rep *Report) {
	if resp, err := client.Get(base + "/stats"); err != nil {
		rep.MetricsErr = fmt.Sprintf("final /stats: %v", err)
	} else {
		var st struct {
			Trajectories int   `json:"trajectories"`
			EvictedLRU   int64 `json:"evictedLRU"`
			EvictedTTL   int64 `json:"evictedTTL"`
			Rejected     int64 `json:"rejected"`
		}
		err := json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			rep.MetricsErr = fmt.Sprintf("final /stats decode: %v", err)
			return
		}
		rep.FinalTrajectories = st.Trajectories
		rep.EvictedLRU = st.EvictedLRU
		rep.EvictedTTL = st.EvictedTTL
		rep.Rejected = st.Rejected
	}

	resp, err := client.Get(base + "/metrics")
	if err != nil {
		rep.MetricsErr = fmt.Sprintf("final /metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		rep.MetricsErr = fmt.Sprintf("final /metrics: status %d", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		idx := strings.LastIndexByte(line, ' ')
		if idx < 0 {
			rep.MetricsErr = fmt.Sprintf("unparseable metrics line %q", line)
			return
		}
		if _, err := strconv.ParseFloat(line[idx+1:], 64); err != nil {
			rep.MetricsErr = fmt.Sprintf("metrics line %q: %v", line, err)
			return
		}
		rep.MetricsSamples++
	}
	if err := sc.Err(); err != nil {
		rep.MetricsErr = fmt.Sprintf("reading /metrics: %v", err)
	} else if rep.MetricsSamples == 0 {
		rep.MetricsErr = "empty /metrics exposition"
	}
}
