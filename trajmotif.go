// Package trajmotif discovers motifs in spatial trajectories using the
// discrete Fréchet distance (DFD), reproducing Tang, Yiu, Mouratidis and
// Wang, "Efficient Motif Discovery in Spatial Trajectories Using Discrete
// Fréchet Distance", EDBT 2017.
//
// A motif is the pair of most similar non-overlapping subtrajectories —
// within one trajectory (Problem 1) or between two trajectories — where
// similarity is the DFD, the "dog-man" bottleneck distance that tolerates
// non-uniform sampling rates and local time shifting. Each subtrajectory
// leg must span strictly more than ξ (MinLength) movement steps.
//
// Four exact algorithms are exposed, trading preprocessing for pruning:
//
//   - BruteDP   — the O(n⁴) dynamic-programming baseline (Algorithm 1)
//   - BTM       — bounding-based discovery with relaxed O(1) lower bounds
//     and best-first subset ordering (Algorithm 2)
//   - GTM       — grouping-based multi-level pruning on top of BTM
//     (Algorithm 3); the fastest configuration in the paper
//   - GTMStar   — the space-efficient GTM variant computing ground
//     distances on the fly in O(max((n/τ)², n)) memory (§5.5)
//
// All four return identical optimal distances; they differ only in time
// and space. Every search is parallel within itself: Options.Workers
// (default GOMAXPROCS) shards the candidate sweep across cores under one
// shared best-so-far bound, and any worker count returns byte-identical
// results — spans, distance bits, and effort counters. Collections
// parallelize across trajectories instead via DiscoverBatch (see the
// README's "Concurrency model" for the split).
//
// The simplest entry point is Discover:
//
//	t, _ := trajmotif.ReadFile("walk.plt")
//	res, _ := trajmotif.Discover(t, 100, nil)
//	fmt.Println(res.A, res.B, res.Distance) // spans + DFD in meters
package trajmotif

import (
	"io"

	"trajmotif/internal/batch"
	"trajmotif/internal/cluster"
	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/dist"
	"trajmotif/internal/geo"
	"trajmotif/internal/geojson"
	"trajmotif/internal/group"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/prep"
	"trajmotif/internal/serve"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/symbolic"
	"trajmotif/internal/traj"
	"trajmotif/internal/trajio"
)

// Re-exported core types. See the internal packages for full method sets.
type (
	// Point is a latitude/longitude position in degrees.
	Point = geo.Point
	// DistanceFunc is a ground distance between two points in meters.
	DistanceFunc = geo.DistanceFunc
	// Trajectory is a sequence of points with optional ascending timestamps.
	Trajectory = traj.Trajectory
	// Span identifies a subtrajectory S[Start..End], inclusive.
	Span = traj.Span
	// Options tunes the search (ground distance, bound set, ablations).
	Options = core.Options
	// Result is a discovered motif: two spans, their DFD, and statistics.
	Result = core.Result
	// GroupResult extends Result with grouping-phase statistics.
	GroupResult = group.Result
	// Stats reports search effort (pruning counters, DP cells, memory).
	Stats = core.Stats
)

// Ground distances.
var (
	// Haversine is the great-circle distance (the paper's default dG).
	Haversine = geo.Haversine
	// Euclidean treats coordinates as planar meters.
	Euclidean DistanceFunc = geo.Euclidean
)

// ErrTooShort is returned when no feasible motif exists for the inputs.
var ErrTooShort = core.ErrTooShort

// NewTrajectory validates and wraps a point sequence (see traj.New).
func NewTrajectory(points []Point) (*Trajectory, error) {
	return traj.New(points, nil)
}

// DefaultTau is the initial group size used by Discover; τ=32 is the
// paper's default, shown in §6.2.3 to be robust across datasets.
const DefaultTau = 32

// Discover finds the motif within trajectory t using the paper's best
// configuration (GTM with τ = DefaultTau). minLength is ξ: each motif leg
// must span strictly more than ξ steps. opt may be nil for defaults
// (haversine ground distance, relaxed bounds).
func Discover(t *Trajectory, minLength int, opt *Options) (*GroupResult, error) {
	return group.GTM(t, minLength, DefaultTau, opt)
}

// DiscoverBetween finds the motif between two trajectories (the §3
// problem variant without the ordering constraint).
func DiscoverBetween(t, u *Trajectory, minLength int, opt *Options) (*GroupResult, error) {
	return group.GTMCross(t, u, minLength, DefaultTau, opt)
}

// BruteDP runs the Algorithm 1 baseline on a single trajectory.
func BruteDP(t *Trajectory, minLength int, opt *Options) (*Result, error) {
	return core.BruteDP(t, minLength, opt)
}

// BruteDPBetween runs the baseline across two trajectories.
func BruteDPBetween(t, u *Trajectory, minLength int, opt *Options) (*Result, error) {
	return core.BruteDPCross(t, u, minLength, opt)
}

// BTM runs the bounding-based Algorithm 2 on a single trajectory.
func BTM(t *Trajectory, minLength int, opt *Options) (*Result, error) {
	return core.BTM(t, minLength, opt)
}

// BTMBetween runs Algorithm 2 across two trajectories.
func BTMBetween(t, u *Trajectory, minLength int, opt *Options) (*Result, error) {
	return core.BTMCross(t, u, minLength, opt)
}

// GTM runs the grouping-based Algorithm 3 with initial group size tau.
func GTM(t *Trajectory, minLength, tau int, opt *Options) (*GroupResult, error) {
	return group.GTM(t, minLength, tau, opt)
}

// GTMBetween runs Algorithm 3 across two trajectories.
func GTMBetween(t, u *Trajectory, minLength, tau int, opt *Options) (*GroupResult, error) {
	return group.GTMCross(t, u, minLength, tau, opt)
}

// GTMStar runs the space-efficient GTM variant (§5.5).
func GTMStar(t *Trajectory, minLength, tau int, opt *Options) (*GroupResult, error) {
	return group.GTMStar(t, minLength, tau, opt)
}

// GTMStarBetween runs GTM* across two trajectories.
func GTMStarBetween(t, u *Trajectory, minLength, tau int, opt *Options) (*GroupResult, error) {
	return group.GTMStarCross(t, u, minLength, tau, opt)
}

// ground resolves the facade's nil-DistanceFunc default to Haversine.
func ground(df DistanceFunc) DistanceFunc {
	if df == nil {
		return geo.Haversine
	}
	return df
}

// DFD returns the discrete Fréchet distance between two point sequences
// under df (nil selects Haversine).
func DFD(a, b []Point, df DistanceFunc) float64 {
	return dist.DFD(a, b, ground(df))
}

// DFDCapped computes the DFD inside a radius: it returns the exact
// distance with exceeded == false when the distance is below cap, and
// otherwise cap itself, a lower bound on the distance, with exceeded ==
// true. A +Inf cap is exactly DFD. Only the DP cells below cap are
// filled, so a hopeless candidate dies after a few rows and a candidate
// already known to lie within the radius costs only the cells inside it;
// this is the kernel k-NN and the exact similarity join measure with.
func DFDCapped(a, b []Point, df DistanceFunc, cap float64) (d float64, exceeded bool) {
	return dist.DFDCapped(a, b, ground(df), cap)
}

// DFDDecision decides DFD(a, b) <= eps without computing the distance,
// abandoning as soon as no coupling within eps can continue. For finite
// eps it agrees exactly with DFD(a, b, df) <= eps.
func DFDDecision(a, b []Point, df DistanceFunc, eps float64) bool {
	return dist.DFDDecision(a, b, ground(df), eps)
}

// DTW returns the dynamic time warping distance between two point
// sequences under df (nil selects Haversine). It is provided for
// comparison; unlike DFD it is inflated by oversampled segments (the
// paper's Table 1 and Figure 3).
func DTW(a, b []Point, df DistanceFunc) float64 {
	return dist.DTW(a, b, ground(df))
}

// ED returns the lock-step mean pointwise distance between two
// equal-length sequences under df (nil selects Haversine), erroring on a
// length mismatch.
func ED(a, b []Point, df DistanceFunc) (float64, error) {
	return dist.ED(a, b, ground(df))
}

// EDR returns the edit distance on real sequences: the minimal number of
// insertions, deletions and substitutions, where points within eps of
// each other (under df; nil selects Haversine) match for free.
func EDR(a, b []Point, df DistanceFunc, eps float64) int {
	return dist.EDR(a, b, ground(df), eps)
}

// LCSS returns the length of the longest common subsequence of a and b,
// where points within eps of each other (under df; nil selects
// Haversine) are considered equal. Larger is more similar.
func LCSS(a, b []Point, df DistanceFunc, eps float64) int {
	return dist.LCSS(a, b, ground(df), eps)
}

// LCSSDistance returns the normalized LCSS dissimilarity
// 1 − LCSS/min(len(a), len(b)), in [0, 1].
func LCSSDistance(a, b []Point, df DistanceFunc, eps float64) float64 {
	return dist.LCSSDistance(a, b, ground(df), eps)
}

// ReadFile loads a trajectory from a GeoLife .plt or CSV file.
func ReadFile(path string) (*Trajectory, error) { return trajio.ReadFile(path) }

// WriteFile saves a trajectory to a .plt or CSV file by extension.
func WriteFile(path string, t *Trajectory) error { return trajio.WriteFile(path, t) }

// Synthetic dataset generation (see internal/datagen for the modelling
// rationale; the generators stand in for the paper's three real datasets).
type (
	// DatasetConfig seeds and sizes a synthetic dataset.
	DatasetConfig = datagen.Config
	// DatasetName selects one of the three synthesized workloads.
	DatasetName = datagen.Name
)

// Dataset names matching the paper's evaluation datasets (§6.1).
const (
	GeoLife = datagen.GeoLifeName
	Truck   = datagen.TruckName
	Baboon  = datagen.BaboonName
)

// GenerateDataset synthesizes one of the evaluation workloads.
func GenerateDataset(name DatasetName, cfg DatasetConfig) (*Trajectory, error) {
	return datagen.Dataset(name, cfg)
}

// GenerateDatasetPair synthesizes two trajectories sharing route
// geography, for the two-trajectory problem variant.
func GenerateDatasetPair(name DatasetName, cfg DatasetConfig) (*Trajectory, *Trajectory, error) {
	return datagen.Pair(name, cfg)
}

// TopK returns up to k mutually disjoint motifs of t in ascending
// distance order (an extension of Problem 1; see internal/core/topk.go).
func TopK(t *Trajectory, minLength, k int, opt *Options) ([]Result, error) {
	return core.TopK(t, minLength, k, opt)
}

// TopKBetween returns up to k disjoint motifs between two trajectories.
func TopKBetween(t, u *Trajectory, minLength, k int, opt *Options) ([]Result, error) {
	return core.TopKCross(t, u, minLength, k, opt)
}

// Similarity join and clustering — the paper's §7 future-work operations,
// built on the same DFD bounding machinery.
type (
	// JoinPair is one result of a trajectory similarity join.
	JoinPair = join.Pair
	// JoinOptions tunes SimilarityJoin.
	JoinOptions = join.Options
	// JoinStats reports the join's filter-cascade effectiveness.
	JoinStats = join.Stats
	// ClusterOptions tunes ClusterSubtrajectories.
	ClusterOptions = cluster.Options
	// SubtrajectoryCluster is a group of windows within the radius of a
	// representative subtrajectory.
	SubtrajectoryCluster = cluster.Cluster
)

// SimilarityJoin reports every pair of trajectories within DFD eps, using
// an endpoint/bounding-box/decision filter cascade.
func SimilarityJoin(ts []*Trajectory, eps float64, opt *JoinOptions) ([]JoinPair, JoinStats, error) {
	return join.Join(ts, eps, opt)
}

// DFDWithin decides DFD(a, b) <= eps with early abandoning, without
// computing the full distance.
func DFDWithin(a, b []Point, df DistanceFunc, eps float64) bool {
	return join.DFDWithin(a, b, ground(df), eps)
}

// ClusterSubtrajectories groups sliding windows of t into clusters whose
// members are within DFD eps of a representative window.
func ClusterSubtrajectories(t *Trajectory, window int, eps float64, opt *ClusterOptions) ([]SubtrajectoryCluster, error) {
	return cluster.Subtrajectories(t, window, eps, opt)
}

// Batch processing over trajectory collections (see internal/batch): the
// fleet fans out over a bounded worker pool, and each search returns
// results identical to a standalone run. Within-search parallelism
// defaults to 1 inside a batch (BatchOptions.Search.Workers raises it).
type (
	// BatchItem is one trajectory's outcome in a batch discovery.
	BatchItem = batch.Item
	// BatchPairItem is one pair's outcome in an all-pairs discovery.
	BatchPairItem = batch.PairItem
	// BatchOptions tunes worker count, τ and per-search options.
	BatchOptions = batch.Options
	// BatchIndexStats receives the spatial prefilter's effort counters
	// from an all-pairs run (BatchOptions.IndexStats).
	BatchIndexStats = batch.IndexStats
)

// DiscoverBatch runs motif discovery on every trajectory concurrently.
func DiscoverBatch(ts []*Trajectory, minLength int, opt *BatchOptions) ([]BatchItem, error) {
	return batch.Discover(ts, minLength, opt)
}

// DiscoverAllPairs runs two-trajectory discovery on every unordered pair.
// A positive BatchOptions.MaxDistance keeps only the pairs within it and
// skips pairs whose bounding boxes are provably farther apart.
func DiscoverAllPairs(ts []*Trajectory, minLength int, opt *BatchOptions) ([]BatchPairItem, error) {
	return batch.DiscoverAllPairs(ts, minLength, opt)
}

// Streaming ingestion (see internal/trajio's stream layer): iterator-
// style trajectory sources that never materialize a whole corpus, and
// the batch entry points that consume them in bounded memory. Streaming
// results are byte-identical to the slurp-based calls.
type (
	// TrajectoryScanner yields trajectories one at a time; Next returns
	// io.EOF after the last one.
	TrajectoryScanner = trajio.Scanner
	// CorpusSource streams every trajectory under a directory tree in
	// deterministic order, one open file at a time, capturing per-file
	// errors instead of aborting.
	CorpusSource = trajio.DirSource
	// CorpusOptions configures OpenCorpus (glob filters, fail-fast).
	CorpusOptions = trajio.DirOptions
	// CorpusFileError is one captured per-file failure of a corpus scan.
	CorpusFileError = trajio.FileError
	// RecordError is a recoverable per-record failure of a multi-record
	// stream (NDJSON); the stream continues past it.
	RecordError = trajio.RecordError
)

// OpenCorpus opens a directory tree of trajectory files (.plt, .csv,
// .mcsv, .ndjson/.jsonl, filtered by opt.Glob) as a streaming source.
// opt may be nil for defaults.
func OpenCorpus(dir string, opt *CorpusOptions) (*CorpusSource, error) {
	return trajio.OpenDir(dir, opt)
}

// NewCSVScanner streams one single-trajectory CSV, identically to ReadFile.
func NewCSVScanner(r io.Reader) TrajectoryScanner { return trajio.NewCSVScanner(r) }

// NewPLTScanner streams one GeoLife .plt file, identically to ReadFile.
func NewPLTScanner(r io.Reader) TrajectoryScanner { return trajio.NewPLTScanner(r) }

// NewMultiCSVScanner streams a multi-trajectory CSV: "lat,lng[,unix]"
// blocks separated by blank lines, each with an optional header.
func NewMultiCSVScanner(r io.Reader) TrajectoryScanner { return trajio.NewMultiCSVScanner(r) }

// NewNDJSONScanner streams newline-delimited JSON trajectory records —
// the motif server's bulk-upload format — decoding one record at a time.
func NewNDJSONScanner(r io.Reader) TrajectoryScanner { return trajio.NewNDJSONScanner(r) }

// WriteNDJSON appends trajectories to w in the NDJSON record format.
func WriteNDJSON(w io.Writer, ts ...*Trajectory) error { return trajio.WriteNDJSON(w, ts...) }

// DiscoverStream runs motif discovery on every trajectory a scanner
// yields, keeping at most a worker-pool's worth of trajectories resident;
// items are identical to DiscoverBatch over the materialized slice.
func DiscoverStream(src TrajectoryScanner, minLength int, opt *BatchOptions) ([]BatchItem, error) {
	return batch.DiscoverStream(src, minLength, opt)
}

// DiscoverAllPairsStream runs two-trajectory discovery over a stream,
// pairing each trajectory with the window-1 preceding it (window <= 0
// retains everything and equals DiscoverAllPairs).
func DiscoverAllPairsStream(src TrajectoryScanner, minLength, window int, opt *BatchOptions) ([]BatchPairItem, error) {
	return batch.DiscoverAllPairsStream(src, minLength, window, opt)
}

// Preprocessing for raw GPS data (see internal/prep).
type (
	// StayPoint is a detected dwell region.
	StayPoint = prep.StayPoint
)

// RemoveSpeedSpikes drops GPS samples implying impossible speeds.
var RemoveSpeedSpikes = prep.RemoveSpeedSpikes

// Simplify reduces a trajectory with Douglas-Peucker at the given
// tolerance in meters.
var Simplify = prep.Simplify

// StayPoints detects dwell regions of at least the given radius/duration.
var StayPoints = prep.StayPoints

// SplitOnGaps cuts a timed trajectory at recording gaps.
var SplitOnGaps = prep.SplitOnGaps

// Nearest-trajectory search (see internal/knn).
type (
	// Neighbor is one k-NN search result.
	Neighbor = knn.Neighbor
	// KNNOptions tunes NearestTrajectories.
	KNNOptions = knn.Options
	// KNNStats reports k-NN pruning effectiveness.
	KNNStats = knn.Stats
)

// NearestTrajectories returns the k dataset trajectories most similar to
// query under DFD, with lower-bound pruning and early-abandoning DFD.
func NearestTrajectories(query *Trajectory, dataset []*Trajectory, k int, opt *KNNOptions) ([]Neighbor, KNNStats, error) {
	return knn.Nearest(query, dataset, k, opt)
}

// Spatial indexing (see internal/spatial): a uniform-grid index over
// trajectory MBRs whose MinDist lower-bounds the ground distance — and
// therefore the DFD — between any points of two trajectories. k-NN and
// join always prune by it, returning results and effort statistics
// byte-identical to an unpruned linear scan (the README's "Spatial
// indexing" section states the soundness argument). Passing an index via
// KNNOptions.Index or JoinOptions.Index only supplies the boxes, so a
// caller that already holds them skips the fold.
type (
	// MBR is a minimum bounding rectangle in degrees, possibly spanning
	// the antimeridian.
	MBR = spatial.MBR
	// SpatialIndex is the uniform-grid MBR index consulted by the k-NN
	// and join retrieval paths.
	SpatialIndex = spatial.Index
)

// BoundMBR folds a point sequence into its minimum bounding rectangle.
func BoundMBR(points []Point) MBR { return spatial.Bound(points) }

// BuildSpatialIndex indexes a dataset slice by position, keyed the way
// NearestTrajectories and SimilarityJoin expect. df may be nil for
// haversine and must match the Dist the search runs with.
func BuildSpatialIndex(ts []*Trajectory, df DistanceFunc) (*SpatialIndex, error) {
	return spatial.BuildIndex(ts, df)
}

// Serve mode (see internal/store and internal/serve): a long-running
// trajectory store memoizing search artifacts — self-distance grids,
// bound tables, per-pair cross grids — under an LRU byte budget, and the
// HTTP server fronting it. Any search routed through a Store via
// Options.Artifacts skips grid construction when the artifacts are
// cached; results stay byte-identical to uncached calls.
type (
	// Store is the content-addressed trajectory store with the memoizing
	// artifact cache. It implements the Options.Artifacts interface.
	Store = store.Store
	// StoreOptions configures a Store (ground distance, cache budget).
	StoreOptions = store.Options
	// StoreStats snapshots a store's registry and cache counters.
	StoreStats = store.Stats
	// TrajectoryID is a stored trajectory's content hash.
	TrajectoryID = store.ID
	// Server is the JSON-over-HTTP motif server (an http.Handler).
	Server = serve.Server
	// ServerOptions configures a Server.
	ServerOptions = serve.Options
	// ArtifactSource supplies precomputed grids and bound tables to a
	// search (Options.Artifacts); *Store is the memoizing implementation.
	ArtifactSource = core.ArtifactSource
	// ServeBackend is the store surface a Server fronts; *Store
	// implements it.
	ServeBackend = serve.Backend
)

// DefaultCacheBytes is the default artifact-cache budget of a Store.
const DefaultCacheBytes = store.DefaultCacheBytes

// NewStore creates a trajectory store; opt may be nil for defaults
// (haversine ground distance, DefaultCacheBytes budget).
func NewStore(opt *StoreOptions) *Store { return store.New(opt) }

// NewServer builds the motif server around a store; opt may be nil.
// Serve it with net/http: http.ListenAndServe(addr, srv).
func NewServer(st *Store, opt *ServerOptions) *Server { return serve.New(st, opt) }

// NewServerWith builds the motif server around any ServeBackend, such as
// a *Store wrapped for tracing. opt may be nil.
func NewServerWith(b ServeBackend, opt *ServerOptions) *Server { return serve.New(b, opt) }

// WriteGeoJSON exports the trajectory with the motif's two legs
// highlighted, viewable in any GeoJSON map tool (the paper's Figure 1(b)
// rendering).
func WriteGeoJSON(w io.Writer, t *Trajectory, res *Result) error {
	return geojson.WriteMotif(w, t, res.A, res.B, res.Distance)
}

// SymbolicDiscover runs the symbolic baseline of the paper's Figure 4
// (movement-pattern strings + longest repeated substring). It exists to
// demonstrate the failure mode motivating DFD-based discovery; see
// examples/symbolic.
func SymbolicDiscover(t *Trajectory, fragLen int) (pattern string, a, b Span, ok bool) {
	m, ok := symbolic.Discover(t, fragLen)
	if !ok {
		return "", Span{}, Span{}, false
	}
	return m.Pattern, m.Span(m.First, t.Len()), m.Span(m.Second, t.Len()), true
}
