// Command motiffind discovers the motif — the most similar pair of
// non-overlapping subtrajectories under the discrete Fréchet distance —
// in one trajectory file, or between two.
//
// Usage:
//
//	motiffind -xi 100 walk.plt
//	motiffind -xi 100 -algo btm day1.csv day2.csv
//	motiffind -xi 50 -algo gtmstar -tau 64 -stats big.plt
//	motiffind -xi 100 -workers 8 big.plt   # split the search over 8 cores
//	motiffind -xi 100 -algo gtm,btm,brutedp -cache -stats walk.plt
//	motiffind -xi 20 -corpus /data/geolife  # every trajectory under a dir
//	motiffind -xi 20 -corpus /data/geolife -pairs -max-dist 500
//
// -corpus streams a whole directory tree (.plt, .csv, .ndjson) through
// GTM discovery with bounded memory: trajectories are read one at a time
// and released as soon as their search finishes, so corpora far larger
// than RAM work. Unreadable files are reported and skipped.
//
// -pairs switches corpus mode to cross-trajectory discovery: every
// unordered pair (or each trajectory against the -window preceding it)
// is searched for the best shared motif. -max-dist keeps only pairs
// whose motif is within the given meters and lets the spatial MBR
// prefilter skip pairs provably out of range before any search runs —
// output is identical either way, only the work changes.
//
// -algo accepts a comma-separated list; with -cache the queries share one
// artifact store, so every algorithm after the first reuses the ground-
// distance grid and bound tables instead of recomputing them (visible in
// -stats as "grids reused").
//
// Input files may be GeoLife .plt or CSV ("lat,lng[,unix]").
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"trajmotif"
)

func main() {
	xi := flag.Int("xi", 100, "minimum motif length ξ (each leg spans > ξ steps)")
	algo := flag.String("algo", "gtm", "algorithm, or comma-separated list: brutedp, btm, gtm, gtmstar")
	tau := flag.Int("tau", trajmotif.DefaultTau, "initial group size for gtm/gtmstar")
	stats := flag.Bool("stats", false, "print search statistics")
	topk := flag.Int("k", 1, "report the k best mutually disjoint motifs (single trajectory, k>1 uses the BTM engine)")
	epsilon := flag.Float64("epsilon", 0, "approximation slack: result within (1+ε) of optimal; 0 is exact")
	workers := flag.Int("workers", 0, "parallel workers within the search; 0 = GOMAXPROCS (results are identical for any count). With -corpus it bounds concurrent single-worker trajectory searches instead (total concurrency; 1 = serial)")
	cache := flag.Bool("cache", false, "share one artifact store across this invocation's queries (several -algo entries, or -k rounds), reusing grids instead of rebuilding them")
	geoOut := flag.String("geojson", "", "write the trajectory with highlighted motif legs to this GeoJSON file")
	corpus := flag.String("corpus", "", "discover motifs in every trajectory under this directory (streamed; replaces the positional file arguments)")
	pairs := flag.Bool("pairs", false, "with -corpus: discover cross-trajectory motifs over unordered pairs instead of per-trajectory motifs")
	window := flag.Int("window", 0, "with -pairs: pair each trajectory only with the window-1 preceding it (0 pairs everything)")
	maxDist := flag.Float64("max-dist", 0, "with -pairs: report only pairs whose motif DFD is within this many meters, pruning provably out-of-range pairs via the spatial MBR index (0 disables)")
	flag.Parse()

	args := flag.Args()
	if *corpus != "" {
		if len(args) != 0 {
			fmt.Fprintln(os.Stderr, "motiffind: -corpus replaces the positional file arguments")
			os.Exit(2)
		}
		// Corpus mode is GTM-per-trajectory only; reject flags it would
		// otherwise silently ignore rather than let the user believe a
		// different algorithm or cache configuration ran.
		if *algo != "gtm" || *topk > 1 || *epsilon != 0 || *cache || *geoOut != "" {
			fmt.Fprintln(os.Stderr, "motiffind: -corpus supports only -xi, -tau, -workers and -stats (not -algo, -k, -epsilon, -cache, -geojson)")
			os.Exit(2)
		}
		if *pairs {
			runCorpusPairs(*corpus, *xi, *tau, *window, *workers, *maxDist, *stats)
		} else {
			if *window != 0 || *maxDist != 0 {
				fmt.Fprintln(os.Stderr, "motiffind: -window and -max-dist require -pairs")
				os.Exit(2)
			}
			runCorpus(*corpus, *xi, *tau, *workers, *stats)
		}
		return
	}
	if *pairs || *window != 0 || *maxDist != 0 {
		fmt.Fprintln(os.Stderr, "motiffind: -pairs, -window and -max-dist require -corpus")
		os.Exit(2)
	}
	if len(args) < 1 || len(args) > 2 {
		fmt.Fprintln(os.Stderr, "usage: motiffind [flags] trajectory.(plt|csv) [second.(plt|csv)]")
		flag.PrintDefaults()
		os.Exit(2)
	}

	t, err := trajmotif.ReadFile(args[0])
	fatal(err)
	var u *trajmotif.Trajectory
	if len(args) == 2 {
		u, err = trajmotif.ReadFile(args[1])
		fatal(err)
	}

	opt := &trajmotif.Options{Epsilon: *epsilon, Workers: *workers}
	if *cache {
		opt.Artifacts = trajmotif.NewStore(nil)
	}

	if *topk > 1 {
		var results []trajmotif.Result
		start := time.Now()
		if u == nil {
			results, err = trajmotif.TopK(t, *xi, *topk, opt)
		} else {
			results, err = trajmotif.TopKBetween(t, u, *xi, *topk, opt)
		}
		fatal(err)
		for rank, res := range results {
			fmt.Printf("#%d  DFD %.2f m  legs %v / %v\n", rank+1, res.Distance, res.A, res.B)
		}
		fmt.Printf("found %d disjoint motifs in %v\n", len(results), time.Since(start).Round(time.Millisecond))
		return
	}

	algos := strings.Split(*algo, ",")
	var last *trajmotif.Result
	for _, name := range algos {
		res := runAlgo(strings.TrimSpace(name), t, u, *xi, *tau, opt, *stats, len(algos) > 1)
		last = res
	}

	if *geoOut != "" && u == nil && last != nil {
		f, err := os.Create(*geoOut)
		fatal(err)
		fatal(trajmotif.WriteGeoJSON(f, t, last))
		fatal(f.Close())
		fmt.Printf("wrote %s (view it in any GeoJSON map tool)\n", *geoOut)
	}
}

// runCorpus streams a directory through batch discovery. -workers sizes
// the across-trajectory pool (each search stays single-worker), so it
// bounds total concurrency, and at most a pool's worth of trajectories
// is ever resident.
func runCorpus(dir string, xi, tau, workers int, stats bool) {
	src, err := trajmotif.OpenCorpus(dir, nil)
	fatal(err)
	start := time.Now()
	items, err := trajmotif.DiscoverStream(src, xi, &trajmotif.BatchOptions{
		Tau:     tau,
		Workers: workers,
	})
	fatal(err)
	paths := src.Paths()
	found := 0
	for _, it := range items {
		if it.Err != nil {
			fmt.Printf("%s: %v\n", paths[it.Index], it.Err)
			continue
		}
		found++
		fmt.Printf("%s: DFD %.2f m, legs %v / %v", paths[it.Index], it.Result.Distance, it.Result.A, it.Result.B)
		if stats {
			s := it.Result.Stats
			fmt.Printf("  (n=%d, DP cells %d, pruned %.2f%%)", s.N, s.DPCells, 100*s.PruneRatio())
		}
		fmt.Println()
	}
	for _, fe := range src.Errs() {
		fmt.Fprintf(os.Stderr, "motiffind: skipped %v\n", fe)
	}
	fmt.Printf("%d/%d trajectories with motifs in %v (%d read errors)\n",
		found, len(items), time.Since(start).Round(time.Millisecond), len(src.Errs()))
}

// runCorpusPairs streams a directory through all-pairs cross-trajectory
// discovery. A positive maxDist turns on the spatial MBR prefilter:
// pairs whose boxes are provably farther apart than the cutoff are
// skipped before any DP runs, with identical output to the full sweep.
func runCorpusPairs(dir string, xi, tau, window, workers int, maxDist float64, stats bool) {
	src, err := trajmotif.OpenCorpus(dir, nil)
	fatal(err)
	var ixs trajmotif.BatchIndexStats
	opt := &trajmotif.BatchOptions{
		Tau:         tau,
		Workers:     workers,
		MaxDistance: maxDist,
		IndexStats:  &ixs,
	}
	start := time.Now()
	items, err := trajmotif.DiscoverAllPairsStream(src, xi, window, opt)
	fatal(err)
	paths := src.Paths()
	found := 0
	for _, it := range items {
		if it.Err != nil {
			fmt.Printf("%s <> %s: %v\n", paths[it.I], paths[it.J], it.Err)
			continue
		}
		found++
		fmt.Printf("%s <> %s: DFD %.2f m, legs %v / %v", paths[it.I], paths[it.J],
			it.Result.Distance, it.Result.A, it.Result.B)
		if stats {
			s := it.Result.Stats
			fmt.Printf("  (DP cells %d, pruned %.2f%%)", s.DPCells, 100*s.PruneRatio())
		}
		fmt.Println()
	}
	for _, fe := range src.Errs() {
		fmt.Fprintf(os.Stderr, "motiffind: skipped %v\n", fe)
	}
	fmt.Printf("%d/%d pairs with motifs in %v (%d read errors)\n",
		found, len(items), time.Since(start).Round(time.Millisecond), len(src.Errs()))
	if maxDist > 0 {
		fmt.Printf("spatial prefilter: %d/%d pairs pruned before search\n", ixs.Pruned, ixs.Consulted)
	}
}

// runAlgo executes one algorithm of the -algo list and prints its report.
func runAlgo(algo string, t, u *trajmotif.Trajectory, xi, tau int, opt *trajmotif.Options, stats, multi bool) *trajmotif.Result {
	start := time.Now()
	var res *trajmotif.Result
	var err error
	switch algo {
	case "brutedp":
		if u == nil {
			res, err = trajmotif.BruteDP(t, xi, opt)
		} else {
			res, err = trajmotif.BruteDPBetween(t, u, xi, opt)
		}
	case "btm":
		if u == nil {
			res, err = trajmotif.BTM(t, xi, opt)
		} else {
			res, err = trajmotif.BTMBetween(t, u, xi, opt)
		}
	case "gtm", "gtmstar":
		var gr *trajmotif.GroupResult
		switch {
		case algo == "gtm" && u == nil:
			gr, err = trajmotif.GTM(t, xi, tau, opt)
		case algo == "gtm":
			gr, err = trajmotif.GTMBetween(t, u, xi, tau, opt)
		case u == nil:
			gr, err = trajmotif.GTMStar(t, xi, tau, opt)
		default:
			gr, err = trajmotif.GTMStarBetween(t, u, xi, tau, opt)
		}
		if gr != nil {
			res = &gr.Result
		}
	default:
		fmt.Fprintf(os.Stderr, "motiffind: unknown algorithm %q\n", algo)
		os.Exit(2)
	}
	fatal(err)
	elapsed := time.Since(start)

	if multi {
		fmt.Printf("--- %s ---\n", algo)
	}
	fmt.Printf("motif distance: %.2f m (discrete Fréchet)\n", res.Distance)
	describeLeg("leg A", t, res.A)
	if u == nil {
		describeLeg("leg B", t, res.B)
	} else {
		describeLeg("leg B", u, res.B)
	}
	fmt.Printf("found in %v with %s\n", elapsed.Round(time.Millisecond), algo)
	if stats {
		s := res.Stats
		fmt.Printf("candidate subsets: %d, processed: %d (pruned %.2f%%), abandoned mid-DP: %d, DP cells: %d, grids reused: %d, ~%.1f MB\n",
			s.Subsets, s.SubsetsProcessed, 100*s.PruneRatio(), s.SubsetsAbandoned, s.DPCells,
			s.GridRebuildsAvoided, float64(s.PeakBytes)/(1<<20))
	}
	return res
}

func describeLeg(label string, t *trajmotif.Trajectory, sp trajmotif.Span) {
	fmt.Printf("%s: points %d..%d (%d samples)", label, sp.Start, sp.End, sp.Len())
	if first, last, ok := t.TimeRange(sp); ok {
		fmt.Printf(", %s -> %s", first.Format("2006-01-02 15:04:05"), last.Format("15:04:05"))
	}
	fmt.Println()
}

func fatal(err error) {
	if err != nil {
		fmt.Fprintf(os.Stderr, "motiffind: %v\n", err)
		os.Exit(1)
	}
}
