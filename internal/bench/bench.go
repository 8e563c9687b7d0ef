// Package bench regenerates every table and figure of the paper's
// evaluation (§6) as text tables: workload generation, parameter sweeps,
// all four algorithms, and the pruning/space instrumentation. Each
// experiment is registered under the identifier used in DESIGN.md's
// per-experiment index (T1, F2, F13, ... F21) and is runnable through
// cmd/motifbench or the benchmarks in the repository root.
//
// Absolute numbers differ from the paper (Go on this machine vs the
// authors' C++/i7 testbed, synthetic stand-ins for the real datasets); the
// experiments reproduce the paper's *shapes*: which method wins, the
// relative factors, and where behaviour crosses over. EXPERIMENTS.md
// records paper-vs-measured for each artifact.
package bench

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
	"unicode/utf8"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/traj"
)

// Scale selects experiment sizing.
type Scale string

const (
	// ScaleSmall completes the full suite in minutes on one core; the
	// default for CI and the root benchmarks.
	ScaleSmall Scale = "small"
	// ScaleFull approaches the paper's sizes (n up to 10000, ξ up to 400)
	// and can take hours, dominated by the tight-bound experiments.
	ScaleFull Scale = "full"
)

// Config parameterizes a harness run.
type Config struct {
	Scale Scale
	Seed  int64
	// BruteBudget caps each BruteDP invocation; beyond it the harness
	// reports "—", mirroring the paper's 2-hour truncation policy.
	BruteBudget time.Duration
	// Workers bounds within-search parallelism for every timed algorithm
	// run; 0 selects GOMAXPROCS. Worker count never changes results or
	// pruning counters, only wall-clock times.
	Workers int
	// Artifacts, when non-nil, is a shared grid/bound-table source (the
	// serve-mode store) threaded into every algorithm invocation: runs
	// over the same workload reuse one grid instead of rebuilding it.
	// Results are unchanged; precompute timings shrink to cache hits, so
	// leave it nil when measuring the paper's cold-start numbers.
	Artifacts core.ArtifactSource
	// CorpusDir, when set, points experiment C1 at a trajectory corpus
	// directory (.plt/.csv/.mcsv/.ndjson/.jsonl, streamed in bounded
	// memory); CorpusXi is its minimum motif length (0 selects
	// DefaultCorpusXi).
	CorpusDir string
	CorpusXi  int
}

// opts stamps the run's worker count and artifact source onto o (nil o
// starts from the zero Options); every algorithm invocation in the
// harness routes through it.
func (c Config) opts(o *core.Options) *core.Options {
	if o == nil {
		o = &core.Options{}
	}
	o.Workers = c.Workers
	o.Artifacts = c.Artifacts
	return o
}

// DefaultConfig returns the small-scale configuration.
func DefaultConfig() Config {
	return Config{Scale: ScaleSmall, Seed: 42, BruteBudget: 15 * time.Second}
}

func (c Config) lengths() []int {
	if c.Scale == ScaleFull {
		return []int{500, 1000, 5000, 10000}
	}
	return []int{100, 200, 400, 800}
}

func (c Config) xiFor(n int) int {
	// The paper fixes ξ=100 with n=5000 (ξ/n = 2%); keep the ratio.
	xi := n / 50
	if xi < 4 {
		xi = 4
	}
	return xi
}

func (c Config) xiSweep() (n int, xis []int) {
	if c.Scale == ScaleFull {
		return 5000, []int{100, 200, 300, 400}
	}
	return 400, []int{8, 16, 24, 32}
}

// Experiment is one regenerable paper artifact.
type Experiment struct {
	ID    string
	Paper string // which table/figure of the paper it regenerates
	Title string
	Run   func(cfg Config, w io.Writer) error
}

// Experiments returns the registry in paper order.
func Experiments() []Experiment {
	return []Experiment{
		{"T1", "Table 1", "similarity measures: robustness and cost", runTable1},
		{"F2", "Figure 2", "ED motif vs DFD motif on a pedestrian trajectory", runFigure2},
		{"F3", "Figure 3", "DTW vs DFD under non-uniform sampling", runFigure3},
		{"F4", "Figure 4", "symbolic baseline failure mode", runFigure4},
		{"T3", "Table 3", "lower bound computation cost, tight vs relaxed", runTable3},
		{"F13", "Figure 13", "BTM tight vs relaxed bounds, varying n", runFigure13},
		{"F14", "Figure 14", "BTM tight vs relaxed bounds, varying xi", runFigure14},
		{"F15", "Figure 15", "pruning ratio breakdown per bound", runFigure15},
		{"F16", "Figure 16", "cumulative bound variants, response time", runFigure16},
		{"F17", "Figure 17", "GTM sensitivity to group size tau", runFigure17},
		{"F18", "Figure 18", "response time vs n, all methods x datasets", runFigure18},
		{"F19", "Figure 19", "space consumption vs n", runFigure19},
		{"F20", "Figure 20", "response time vs minimum motif length xi", runFigure20},
		{"F21", "Figure 21", "two-trajectory variant, response time vs n", runFigure21},
		{"S1", "Abstract", "headline speedup: GTM vs BruteDP, measured and projected", runSpeedup},
		{"C1", "§6.1", "corpus-directory discovery via streaming ingestion", runCorpus},
	}
}

// Run executes one experiment by ID ("all" runs the whole registry).
func Run(id string, cfg Config, w io.Writer) error {
	if strings.EqualFold(id, "all") {
		for _, e := range Experiments() {
			if err := runOne(e, cfg, w); err != nil {
				return err
			}
		}
		return nil
	}
	for _, e := range Experiments() {
		if strings.EqualFold(e.ID, id) {
			return runOne(e, cfg, w)
		}
	}
	return fmt.Errorf("bench: unknown experiment %q (use one of %s or 'all')", id, idList())
}

func idList() string {
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	return strings.Join(ids, ", ")
}

func runOne(e Experiment, cfg Config, w io.Writer) error {
	fmt.Fprintf(w, "=== %s (%s): %s ===\n", e.ID, e.Paper, e.Title)
	start := time.Now()
	if err := e.Run(cfg, w); err != nil {
		return fmt.Errorf("bench %s: %w", e.ID, err)
	}
	fmt.Fprintf(w, "[%s completed in %v]\n\n", e.ID, time.Since(start).Round(time.Millisecond))
	return nil
}

// Table is a minimal aligned-text table writer.
type Table struct {
	Columns []string
	Rows    [][]string
}

// Add appends a row of stringified cells.
func (t *Table) Add(cells ...string) { t.Rows = append(t.Rows, cells) }

// Render writes the table with aligned columns.
func (t *Table) Render(w io.Writer) {
	widths := make([]int, len(t.Columns))
	for k, c := range t.Columns {
		widths[k] = utf8.RuneCountInString(c)
	}
	for _, row := range t.Rows {
		for k, cell := range row {
			if k < len(widths) && utf8.RuneCountInString(cell) > widths[k] {
				widths[k] = utf8.RuneCountInString(cell)
			}
		}
	}
	line := func(cells []string) {
		var sb strings.Builder
		for k, cell := range cells {
			if k > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(cell)
			if k < len(widths) {
				sb.WriteString(strings.Repeat(" ", widths[k]-utf8.RuneCountInString(cell)))
			}
		}
		fmt.Fprintln(w, strings.TrimRight(sb.String(), " "))
	}
	line(t.Columns)
	sep := make([]string, len(t.Columns))
	for k := range sep {
		sep[k] = strings.Repeat("-", widths[k])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
}

// fmtDur renders a duration compactly for table cells.
func fmtDur(d time.Duration) string {
	switch {
	case d < time.Microsecond:
		return fmt.Sprintf("%dns", d.Nanoseconds())
	case d < time.Millisecond:
		return fmt.Sprintf("%.1fµs", float64(d)/float64(time.Microsecond))
	case d < time.Second:
		return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
	default:
		return fmt.Sprintf("%.2fs", d.Seconds())
	}
}

// fmtBytes renders a byte count in MB like the paper's Figure 19.
func fmtBytes(b int64) string {
	return fmt.Sprintf("%.2fMB", float64(b)/(1<<20))
}

func fmtPct(x float64) string { return fmt.Sprintf("%.2f%%", 100*x) }

// dataset fetches one synthetic workload, cached per (name, n, seed).
var datasetCache = map[string]*traj.Trajectory{}

func dataset(name datagen.Name, n int, seed int64) *traj.Trajectory {
	key := fmt.Sprintf("%s/%d/%d", name, n, seed)
	if t, ok := datasetCache[key]; ok {
		return t
	}
	t, err := datagen.Dataset(name, datagen.Config{Seed: seed, N: n})
	if err != nil {
		panic(err) // names come from the fixed registry
	}
	datasetCache[key] = t
	return t
}

func datasetPair(name datagen.Name, n int, seed int64) (*traj.Trajectory, *traj.Trajectory) {
	a, b, err := datagen.Pair(name, datagen.Config{Seed: seed, N: n})
	if err != nil {
		panic(err)
	}
	return a, b
}

// checkAgreement asserts two algorithms returned the same optimal
// distance; every timing experiment doubles as an exactness test.
func checkAgreement(dists map[string]float64) error {
	var ref float64
	var refName string
	first := true
	for name, d := range dists {
		if math.IsNaN(d) {
			continue
		}
		if first {
			ref, refName, first = d, name, false
			continue
		}
		if math.Abs(d-ref) > 1e-6*(1+math.Abs(ref)) {
			return fmt.Errorf("algorithms disagree: %s=%g vs %s=%g", refName, ref, name, d)
		}
	}
	return nil
}

// sortedKeys returns map keys in deterministic order for table output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// timed measures one motif-discovery call, returning elapsed wall time.
func timed(f func() (*core.Result, error)) (time.Duration, *core.Result, error) {
	start := time.Now()
	res, err := f()
	return time.Since(start), res, err
}
