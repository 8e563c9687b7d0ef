// Command motifbench regenerates the paper's evaluation artifacts (every
// table and figure of §6, plus the motivating demonstrations of §1-2) as
// text tables.
//
// Usage:
//
//	motifbench [-exp all|T1|F2|F3|F4|T3|F13..F21|C1] [-scale small|full]
//	           [-seed N] [-brute-budget 15s] [-workers N] [-list]
//	motifbench -exp C1 -corpus /data/geolife   # stream a real corpus dir
//	motifbench -json BENCH.json                # machine-readable counters
//	motifbench -json BENCH.json -cpuprofile cpu.out -memprofile mem.out
//
// -cpuprofile/-memprofile write pprof profiles of the run (`make
// profile` wraps this).
//
// Every timing experiment cross-checks that all algorithms return the same
// optimal motif distance, so a full run doubles as an end-to-end exactness
// test of the implementation.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"trajmotif"
	"trajmotif/internal/bench"
)

func main() {
	exp := flag.String("exp", "all", "experiment id (T1, F2, F3, F4, T3, F13..F21) or 'all'")
	scale := flag.String("scale", "small", "experiment sizing: 'small' (minutes) or 'full' (paper sizes, hours)")
	seed := flag.Int64("seed", 42, "workload generator seed")
	budget := flag.Duration("brute-budget", 15*time.Second, "per-run BruteDP budget before truncation")
	workers := flag.Int("workers", 0, "parallel workers within each timed search; 0 = GOMAXPROCS (results are identical for any count). For the C1 corpus experiment it bounds concurrent single-worker searches instead, so 1 is a serial run")
	cache := flag.Bool("cache", false, "share one artifact store across every run: repeated workloads reuse grids and bound tables (results unchanged; cold-start timings become cache-hit timings)")
	corpus := flag.String("corpus", "", "trajectory corpus directory for experiment C1 (.plt/.csv/.mcsv/.ndjson/.jsonl, streamed in bounded memory)")
	corpusXi := flag.Int("corpus-xi", 0, "minimum motif length for -corpus runs; 0 selects the default (8)")
	jsonOut := flag.String("json", "", "run the fixed deterministic workload and write a machine-readable counter report to this file instead of tables (CI diffs it against the checked-in BENCH_*.json baseline)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file (inspect with go tool pprof)")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file (inspect with go tool pprof)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	if *list {
		for _, e := range bench.Experiments() {
			fmt.Printf("%-4s %-10s %s\n", e.ID, e.Paper, e.Title)
		}
		return
	}

	cfg := bench.Config{
		Scale:       bench.Scale(*scale),
		Seed:        *seed,
		BruteBudget: *budget,
		Workers:     *workers,
		CorpusDir:   *corpus,
		CorpusXi:    *corpusXi,
	}
	if *cache {
		cfg.Artifacts = trajmotif.NewStore(nil)
	}
	if cfg.Scale != bench.ScaleSmall && cfg.Scale != bench.ScaleFull {
		fmt.Fprintf(os.Stderr, "motifbench: unknown scale %q\n", *scale)
		os.Exit(2)
	}

	run := func() error {
		if *jsonOut == "" {
			return bench.Run(*exp, cfg, os.Stdout)
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		err = bench.RunJSON(cfg, f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifbench: %v\n", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "motifbench: %v\n", err)
			os.Exit(1)
		}
	}
	runErr := run()
	if *cpuprofile != "" {
		pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		runtime.GC() // flush unreachable grids so the profile shows live bytes
		f, err := os.Create(*memprofile)
		if err == nil {
			err = pprof.WriteHeapProfile(f)
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "motifbench: %v\n", err)
			os.Exit(1)
		}
	}
	if runErr != nil {
		fmt.Fprintf(os.Stderr, "motifbench: %v\n", runErr)
		os.Exit(1)
	}
}
