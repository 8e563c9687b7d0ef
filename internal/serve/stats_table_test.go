package serve

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"trajmotif/internal/core"
	"trajmotif/internal/store"
)

// filledBackend is a store whose Stats snapshot is fixed by the test.
type filledBackend struct {
	*store.Store
	stats store.Stats
}

func (b filledBackend) Stats() store.Stats { return b.stats }

var durationType = reflect.TypeOf(time.Duration(0))

// fillDistinct sets every exported field of the struct v points to a
// distinct number, starting at next: integers take the number itself,
// durations that many units of unit. It returns the numbers by field.
func fillDistinct(t *testing.T, v any, next int64, unit time.Duration) map[string]int64 {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	out := make(map[string]int64)
	for i := 0; i < rv.NumField(); i++ {
		f := rv.Type().Field(i)
		if !f.IsExported() {
			continue
		}
		switch {
		case f.Type == durationType:
			rv.Field(i).SetInt(next * int64(unit))
		case rv.Field(i).CanInt():
			rv.Field(i).SetInt(next)
		default:
			t.Fatalf("%s.%s has kind %s; teach fillDistinct to fill it", rv.Type(), f.Name, f.Type.Kind())
		}
		out[f.Name] = next
		next++
	}
	return out
}

func getBody(t *testing.T, ts *httptest.Server, path string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", path, resp.StatusCode)
	}
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// statsKeys returns the GET /stats object's keys in order, with each
// value's raw JSON text.
func statsKeys(t *testing.T, body []byte) (keys []string, vals map[string]string) {
	t.Helper()
	vals = make(map[string]string)
	dec := json.NewDecoder(bytes.NewReader(body))
	if _, err := dec.Token(); err != nil { // {
		t.Fatalf("decode /stats: %v", err)
	}
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatalf("decode /stats: %v", err)
		}
		var val json.RawMessage
		if err := dec.Decode(&val); err != nil {
			t.Fatalf("decode /stats: %v", err)
		}
		keys = append(keys, tok.(string))
		vals[tok.(string)] = string(val)
	}
	return keys, vals
}

// TestStatsTableCoverage: every store.Stats field and every server-side
// counter reaches both GET /stats and GET /metrics. Each field carries a
// distinct number, so a deleted or miswired table row loses its number.
func TestStatsTableCoverage(t *testing.T) {
	var st store.Stats
	want := fillDistinct(t, &st, 1_000_001, time.Second)
	srv := New(filledBackend{Store: store.New(nil), stats: st}, &Options{Workers: 1, MaxConcurrentSearches: 1})
	server := map[string]int64{
		"indexConsulted": 2_000_001, "indexPruned": 2_000_002,
		"projectionFallbacks": 2_000_003, "rejected": 2_000_004,
	}
	srv.indexConsulted.Store(server["indexConsulted"])
	srv.indexPruned.Store(server["indexPruned"])
	srv.projectionFallbacks.Store(server["projectionFallbacks"])
	srv.rejected.Store(server["rejected"])
	for name, n := range server {
		want["server."+name] = n
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(ts.Close)

	_, vals := statsKeys(t, getBody(t, ts, "/stats"))
	inJSON := make(map[string]bool, len(vals))
	for _, v := range vals {
		inJSON[v] = true
	}
	inMetrics := make(map[float64]bool)
	for _, v := range parseMetrics(t, string(getBody(t, ts, "/metrics"))) {
		inMetrics[v] = true
	}

	for name, n := range want {
		jsonText := strconv.FormatInt(n, 10)
		if f, ok := reflect.TypeOf(st).FieldByName(name); ok && f.Type == durationType {
			jsonText = strconv.Quote((time.Duration(n) * time.Second).String())
		}
		if !inJSON[jsonText] {
			t.Errorf("%s = %d does not reach /stats (want a value %s)", name, n, jsonText)
		}
		if !inMetrics[float64(n)] {
			t.Errorf("%s = %d does not reach /metrics", name, n)
		}
	}
}

// TestStatsOfCoverage: statsOf carries every core.Stats field into a
// response's stats object.
func TestStatsOfCoverage(t *testing.T) {
	var st core.Stats
	want := fillDistinct(t, &st, 3_000_001, time.Millisecond)
	b, err := json.Marshal(statsOf(st))
	if err != nil {
		t.Fatal(err)
	}
	var got map[string]float64
	if err := json.Unmarshal(b, &got); err != nil {
		t.Fatal(err)
	}
	seen := make(map[float64]bool, len(got))
	for _, v := range got {
		seen[v] = true
	}
	for name, n := range want {
		if !seen[float64(n)] {
			t.Errorf("core.Stats.%s = %d does not reach statsOf's JSON %s", name, n, b)
		}
	}
}

// metricsFamily is the family a sample line belongs to: its name, or for
// a histogram's _bucket/_sum/_count series the declared base name.
func metricsFamily(name string, types map[string]string) string {
	if _, ok := types[name]; ok {
		return name
	}
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if base, ok := strings.CutSuffix(name, suffix); ok && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// exposition checks the /metrics text format and returns its family
// names in order: every family has exactly one HELP and one TYPE line,
// both ahead of its samples, and its lines are contiguous.
func exposition(t *testing.T, body string) []string {
	t.Helper()
	var families []string
	helps := make(map[string]int)
	types := make(map[string]string)
	closed := make(map[string]bool)
	current := ""
	enter := func(family string) {
		if family == current {
			return
		}
		if closed[family] {
			t.Errorf("family %s is not contiguous", family)
		}
		if current != "" {
			closed[current] = true
		}
		current = family
		families = append(families, family)
	}
	sc := bufio.NewScanner(strings.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			enter(name)
			helps[name]++
		case strings.HasPrefix(line, "# TYPE "):
			name, kind, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			enter(name)
			if _, dup := types[name]; dup {
				t.Errorf("family %s has a second TYPE line", name)
			}
			types[name] = kind
		case line == "":
		default:
			end := strings.IndexAny(line, "{ ")
			if end <= 0 {
				t.Errorf("unparseable sample line %q", line)
				continue
			}
			name := line[:end]
			family := metricsFamily(name, types)
			if _, ok := types[family]; !ok {
				t.Errorf("sample %q has no TYPE line ahead of it", line)
			}
			enter(family)
		}
	}
	for _, f := range families {
		if helps[f] != 1 {
			t.Errorf("family %s has %d HELP lines, want 1", f, helps[f])
		}
		if _, ok := types[f]; !ok {
			t.Errorf("family %s has no TYPE line", f)
		}
	}
	return families
}

// statsKeyOrder pins the GET /stats object: servebench, the motifserve
// binary tests and operators read these keys. trajectoryTTL and uptime are duration
// strings; every other value is a JSON number.
var statsKeyOrder = []string{
	"trajectories", "maxTrajectories", "trajectoryTTL", "artifacts",
	"cacheBytes", "cacheBudget", "built", "reused", "evicted",
	"gridRebuildsAvoided", "removed", "evictedLRU", "evictedTTL",
	"indexConsulted", "indexPruned", "pairDistsBuilt", "pairDistsReused",
	"projectionFallbacks", "diskArtifacts", "diskBytes", "diskWrites",
	"diskReads", "diskErrors", "requests", "rejected", "uptime",
}

// metricsFamilies pins the /metrics families of a server with admission
// control on, in exposition order.
var metricsFamilies = []string{
	"motifserve_requests_total", "motifserve_request_duration_seconds",
	"motifserve_in_flight_requests", "motifserve_trajectories",
	"motifserve_trajectories_max", "motifserve_trajectory_ttl_seconds",
	"motifserve_cache_artifacts", "motifserve_cache_bytes",
	"motifserve_cache_budget_bytes", "motifserve_artifacts_built_total",
	"motifserve_artifacts_reused_total", "motifserve_artifact_evictions_total",
	"motifserve_trajectory_evictions_total", "motifserve_index_consulted_total",
	"motifserve_index_pruned_total", "motifserve_pair_dists_built_total",
	"motifserve_pair_dists_reused_total", "motifserve_projection_fallbacks_total",
	"motifserve_disk_artifacts", "motifserve_disk_bytes",
	"motifserve_disk_writes_total", "motifserve_disk_reads_total",
	"motifserve_disk_errors_total", "motifserve_admission_worker_capacity",
	"motifserve_admission_workers_in_use", "motifserve_admission_queued_requests",
	"motifserve_admission_rejected_total", "motifserve_uptime_seconds",
}

// surfaces serves one upload and one discover, then returns the GET
// /stats and GET /metrics bodies, with admission control on or off.
func surfaces(t *testing.T, admission bool) (stats []byte, metrics string) {
	t.Helper()
	opt := &Options{Workers: 1}
	if !admission {
		opt.MaxConcurrentSearches = -1
	}
	ts := httptest.NewServer(New(store.New(&store.Options{TrajectoryTTL: time.Hour}), opt))
	defer ts.Close()
	id := upload(t, ts, fixture(t, 5, 40))
	call(t, ts, "POST", "/discover", discoverRequest{ID: id, Xi: 6}, nil, http.StatusOK)
	return getBody(t, ts, "/stats"), string(getBody(t, ts, "/metrics"))
}

// TestMetricsExposition: every /metrics family has exactly one HELP and
// one TYPE line and contiguous series, with admission control on and off.
func TestMetricsExposition(t *testing.T) {
	for _, admission := range []bool{true, false} {
		_, metrics := surfaces(t, admission)
		if len(exposition(t, metrics)) == 0 {
			t.Errorf("admission=%v: empty exposition", admission)
		}
	}
}

// TestStatsAndMetricsNames pins the /stats keys (order and JSON type)
// and the /metrics families, with admission control on and off.
func TestStatsAndMetricsNames(t *testing.T) {
	admissionGauges := []string{
		"motifserve_admission_worker_capacity",
		"motifserve_admission_workers_in_use",
		"motifserve_admission_queued_requests",
	}
	for _, admission := range []bool{true, false} {
		wantFamilies := metricsFamilies
		if !admission {
			wantFamilies = slices.DeleteFunc(slices.Clone(metricsFamilies),
				func(f string) bool { return slices.Contains(admissionGauges, f) })
		}
		stats, metrics := surfaces(t, admission)

		keys, vals := statsKeys(t, stats)
		if !slices.Equal(keys, statsKeyOrder) {
			t.Errorf("admission=%v: /stats keys\n got %v\nwant %v", admission, keys, statsKeyOrder)
		}
		for _, k := range keys {
			isString := strings.HasPrefix(vals[k], `"`)
			if isString != (k == "trajectoryTTL" || k == "uptime") {
				t.Errorf("admission=%v: /stats %s = %s has the wrong JSON type", admission, k, vals[k])
			}
		}

		if families := exposition(t, metrics); !slices.Equal(families, wantFamilies) {
			t.Errorf("admission=%v: /metrics families\n got %v\nwant %v", admission, families, wantFamilies)
		}
	}
}
