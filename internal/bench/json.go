// Machine-readable benchmark emission: the -json mode of cmd/motifbench
// runs a fixed, fully deterministic workload over the synthetic corpus
// and writes one JSON report (checked in as BENCH_<pr>.json at the repo
// root). Every counter in the report is effort, not time — DP cells,
// subsets processed, grids avoided, index-pruned candidates — and is
// byte-identical across machines and worker counts (the PR 3 guarantee),
// so CI can diff reports exactly; wall-clock fields are carried for
// humans and excluded from the diff (the *_ms suffix marks them).
package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"trajmotif/internal/batch"
	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// JSONSchema versions the report layout; bump it when fields change
// meaning so the baseline diff fails loudly instead of silently.
// Schema 2 adds the projected-join fallback counter; schema 3 drops the
// kernel variant section (its float64 row repeated the geolife BTM run);
// schema 4 adds the grouping-phase counters to the GTM motif rows.
const JSONSchema = 4

// JSONConfig pins everything the workload depends on, so a later PR can
// regenerate the identical run from the checked-in file alone.
type JSONConfig struct {
	Schema      int     `json:"schema"`
	Seed        int64   `json:"seed"`
	MotifN      int     `json:"motifN"`
	MotifXi     int     `json:"motifXi"`
	Tau         int     `json:"tau"`
	CorpusN     int     `json:"corpusN"`
	CorpusEach  int     `json:"corpusEach"`
	KNNK        int     `json:"knnK"`
	JoinEps     float64 `json:"joinEps"`
	MaxDistance float64 `json:"maxDistance"`
	StreamXi    int     `json:"streamXi"`
}

// JSONMotifRun is one single-trajectory discovery: the §4/§5 effort
// counters for GTM and BTM on one synthetic dataset.
type JSONMotifRun struct {
	Dataset          string  `json:"dataset"`
	Algo             string  `json:"algo"`
	Distance         float64 `json:"distance"`
	Subsets          int64   `json:"subsets"`
	SubsetsProcessed int64   `json:"subsetsProcessed"`
	SubsetsAbandoned int64   `json:"subsetsAbandoned"`
	DPCells          int64   `json:"dpCells"`
	// *JSONGroupRun is set on GTM rows only; its fields are inlined.
	*JSONGroupRun
	WallMS float64 `json:"wall_ms"`
}

// JSONGroupRun is GTM's grouping phase (§5): levels run, group pairs
// evaluated and pruned, bsf tightenings by GUB_DFD, point cells handed
// to the point-level sweep, and interval-DFD cells filled.
type JSONGroupRun struct {
	Levels           int   `json:"levels"`
	GroupPairs       int64 `json:"groupPairs"`
	GroupPairsPruned int64 `json:"groupPairsPruned"`
	BsfTightenings   int64 `json:"bsfTightenings"`
	PointCells       int64 `json:"pointCells"`
	IntervalCells    int64 `json:"intervalCells"`
}

// JSONKNNRun is the indexed k-nearest search over the mixed corpus.
type JSONKNNRun struct {
	Candidates     int64     `json:"candidates"`
	SkippedByLB    int64     `json:"skippedByLB"`
	AbandonedEarly int64     `json:"abandonedEarly"`
	Exact          int64     `json:"exact"`
	IndexPruned    int64     `json:"indexPruned"`
	Distances      []float64 `json:"distances"`
	WallMS         float64   `json:"wall_ms"`
}

// JSONJoinRun is the indexed similarity join over the mixed corpus. The
// join runs through the projected decision kernel with the haversine
// decision on every pair as in-process oracle (BuildJSONReport errors on
// any divergence), so ProjectionFallbacks — cells the certified error
// band could not decide — is itself a pinned counter.
type JSONJoinRun struct {
	Pairs               int64   `json:"pairs"`
	EndpointPruned      int64   `json:"endpointPruned"`
	BoxPruned           int64   `json:"boxPruned"`
	DecisionRejected    int64   `json:"decisionRejected"`
	Reported            int64   `json:"reported"`
	IndexPruned         int64   `json:"indexPruned"`
	ProjectionFallbacks int64   `json:"projectionFallbacks"`
	WallMS              float64 `json:"wall_ms"`
}

// JSONStreamRun is the prefiltered all-pairs streaming discovery.
type JSONStreamRun struct {
	Consulted int64   `json:"consulted"`
	Pruned    int64   `json:"pruned"`
	Items     int     `json:"items"`
	Errors    int     `json:"errors"`
	WallMS    float64 `json:"wall_ms"`
}

// JSONReuseRun is the store-backed rerun proving cross-request grid
// reuse (the serve-mode memoization).
type JSONReuseRun struct {
	GridRebuildsAvoided int64   `json:"gridRebuildsAvoided"`
	WallMS              float64 `json:"wall_ms"`
}

// JSONReport is the whole emission.
type JSONReport struct {
	Config JSONConfig     `json:"config"`
	Motif  []JSONMotifRun `json:"motif"`
	KNN    JSONKNNRun     `json:"knn"`
	Join   JSONJoinRun    `json:"join"`
	Stream JSONStreamRun  `json:"stream"`
	Reuse  JSONReuseRun   `json:"reuse"`
}

// jsonConfig fixes the workload. Only Seed is taken from the caller's
// Config; sizes are pinned so reports across PRs stay comparable.
func jsonConfig(cfg Config) JSONConfig {
	return JSONConfig{
		Schema:      JSONSchema,
		Seed:        cfg.Seed,
		MotifN:      200,
		MotifXi:     8,
		Tau:         32,
		CorpusN:     80,
		CorpusEach:  4,
		KNNK:        3,
		JoinEps:     100_000,
		MaxDistance: 50_000,
		StreamXi:    4,
	}
}

// jsonCorpus builds the mixed-city corpus the retrieval experiments run
// on: CorpusEach trajectories from each generator (Beijing, Athens,
// Mpala), so cross-city candidates are exactly what a sound spatial
// index must prune.
func jsonCorpus(jc JSONConfig) ([]*traj.Trajectory, error) {
	var ts []*traj.Trajectory
	for _, name := range datagen.Names() {
		for i := 0; i < jc.CorpusEach; i++ {
			t, err := datagen.Dataset(name, datagen.Config{Seed: jc.Seed + int64(i), N: jc.CorpusN})
			if err != nil {
				return nil, err
			}
			ts = append(ts, t)
		}
	}
	return ts, nil
}

// BuildJSONReport runs the fixed workload and assembles the report.
func BuildJSONReport(cfg Config) (*JSONReport, error) {
	jc := jsonConfig(cfg)
	rep := &JSONReport{Config: jc}

	// Motif discovery counters: GTM and BTM on each dataset, serial
	// workers (counters are worker-independent; serial keeps CI cheap).
	sopt := &core.Options{Workers: 1}
	for _, name := range datagen.Names() {
		t, err := datagen.Dataset(name, datagen.Config{Seed: jc.Seed, N: jc.MotifN})
		if err != nil {
			return nil, err
		}
		start := time.Now()
		gr, err := group.GTM(t, jc.MotifXi, jc.Tau, sopt)
		if err != nil {
			return nil, fmt.Errorf("bench json: GTM on %s: %w", name, err)
		}
		run := motifRun(string(name), "gtm", &gr.Result, time.Since(start))
		g := gr.Group
		run.JSONGroupRun = &JSONGroupRun{
			Levels:           g.Levels,
			GroupPairs:       g.GroupPairs,
			GroupPairsPruned: g.GroupPairsPruned,
			BsfTightenings:   g.BsfTightenings,
			PointCells:       g.PointCells,
			IntervalCells:    g.IntervalCells,
		}
		rep.Motif = append(rep.Motif, run)
		start = time.Now()
		br, err := core.BTM(t, jc.MotifXi, sopt)
		if err != nil {
			return nil, fmt.Errorf("bench json: BTM on %s: %w", name, err)
		}
		rep.Motif = append(rep.Motif, motifRun(string(name), "btm", br, time.Since(start)))
	}

	ts, err := jsonCorpus(jc)
	if err != nil {
		return nil, err
	}
	ix, err := spatial.BuildIndex(ts, nil)
	if err != nil {
		return nil, err
	}

	// Indexed kNN: a fresh GeoLife walk queries the mixed corpus; the
	// Athens and Mpala members are index fodder.
	query, err := datagen.Dataset(datagen.GeoLifeName, datagen.Config{Seed: jc.Seed + 100, N: jc.CorpusN})
	if err != nil {
		return nil, err
	}
	start := time.Now()
	nbrs, kst, err := knn.Nearest(query, ts, jc.KNNK, &knn.Options{Index: ix})
	if err != nil {
		return nil, err
	}
	rep.KNN = JSONKNNRun{
		Candidates:     kst.Candidates,
		SkippedByLB:    kst.SkippedByLB,
		AbandonedEarly: kst.AbandonedEarly,
		Exact:          kst.Exact,
		IndexPruned:    kst.IndexPruned,
		WallMS:         ms(time.Since(start)),
	}
	for _, nb := range nbrs {
		rep.KNN.Distances = append(rep.KNN.Distances, nb.Distance)
	}

	// Indexed join at city radius (the decision DP runs through the
	// projected kernel), checked in-run against the haversine decision on
	// every pair; the fallback count is pinned in the report.
	start = time.Now()
	pairs, jst, err := join.Join(ts, jc.JoinEps, &join.Options{Index: ix})
	if err != nil {
		return nil, err
	}
	wall := time.Since(start)
	if err := checkJoinPairs(ts, jc.JoinEps, pairs); err != nil {
		return nil, err
	}
	rep.Join = JSONJoinRun{
		Pairs:               jst.Pairs,
		EndpointPruned:      jst.EndpointPruned,
		BoxPruned:           jst.BoxPruned,
		DecisionRejected:    jst.DecisionRejected,
		Reported:            jst.Reported,
		IndexPruned:         jst.IndexPruned,
		ProjectionFallbacks: jst.ProjectionFallbacks,
		WallMS:              ms(wall),
	}

	// Prefiltered streaming all-pairs discovery.
	var ixs batch.IndexStats
	start = time.Now()
	items, err := batch.DiscoverAllPairsStream(batch.SliceSource(ts), jc.StreamXi, 0, &batch.Options{
		Workers: 1, MaxDistance: jc.MaxDistance, IndexStats: &ixs,
	})
	if err != nil {
		return nil, err
	}
	errs := 0
	for _, it := range items {
		if it.Err != nil {
			errs++
		}
	}
	rep.Stream = JSONStreamRun{
		Consulted: ixs.Consulted,
		Pruned:    ixs.Pruned,
		Items:     len(items),
		Errors:    errs,
		WallMS:    ms(time.Since(start)),
	}

	// Store-backed rerun: the second identical search reuses the grid.
	st := store.New(nil)
	t0, err := datagen.Dataset(datagen.GeoLifeName, datagen.Config{Seed: jc.Seed, N: jc.MotifN})
	if err != nil {
		return nil, err
	}
	ropt := &core.Options{Workers: 1, Artifacts: st}
	if _, err := group.GTM(t0, jc.MotifXi, jc.Tau, ropt); err != nil {
		return nil, err
	}
	start = time.Now()
	warm, err := group.GTM(t0, jc.MotifXi, jc.Tau, ropt)
	if err != nil {
		return nil, err
	}
	rep.Reuse = JSONReuseRun{
		GridRebuildsAvoided: warm.Stats.GridRebuildsAvoided,
		WallMS:              ms(time.Since(start)),
	}
	return rep, nil
}

// checkJoinPairs is the join's brute-force oracle: the reported pairs
// must be exactly the pairs (i < j, lexicographic order) that the
// haversine decision DP accepts at eps.
func checkJoinPairs(ts []*traj.Trajectory, eps float64, pairs []join.Pair) error {
	k := 0
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if !join.DFDWithin(ts[i].Points, ts[j].Points, geo.Haversine, eps) {
				continue
			}
			if k >= len(pairs) || pairs[k].I != i || pairs[k].J != j {
				return fmt.Errorf("bench json: join missed pair (%d, %d) within %g", i, j, eps)
			}
			k++
		}
	}
	if k != len(pairs) {
		return fmt.Errorf("bench json: join reported %d pairs, the haversine decision accepts %d", len(pairs), k)
	}
	return nil
}

// RunJSON emits the report as indented JSON.
func RunJSON(cfg Config, w io.Writer) error {
	rep, err := BuildJSONReport(cfg)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

func motifRun(dataset, algo string, r *core.Result, d time.Duration) JSONMotifRun {
	return JSONMotifRun{
		Dataset:          dataset,
		Algo:             algo,
		Distance:         r.Distance,
		Subsets:          r.Stats.Subsets,
		SubsetsProcessed: r.Stats.SubsetsProcessed,
		SubsetsAbandoned: r.Stats.SubsetsAbandoned,
		DPCells:          r.Stats.DPCells,
		WallMS:           ms(d),
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
