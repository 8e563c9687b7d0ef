package trajmotif

// One benchmark per table/figure of the paper (see DESIGN.md's
// per-experiment index), plus ablation benches for the design choices the
// paper motivates. The full sweep tables are produced by cmd/motifbench;
// these benchmarks time the core computation of each experiment at a
// fixed representative size so regressions surface in `go test -bench`.

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"trajmotif/internal/bounds"
	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/dist"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/knn"
	"trajmotif/internal/symbolic"
	"trajmotif/internal/traj"
)

const (
	benchN  = 400
	benchXi = 16
)

func benchTraj(b *testing.B, name datagen.Name) *traj.Trajectory {
	b.Helper()
	t, err := datagen.Dataset(name, datagen.Config{Seed: 42, N: benchN})
	if err != nil {
		b.Fatal(err)
	}
	return t
}

func sink(b *testing.B, res *core.Result, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
	if math.IsInf(res.Distance, 1) {
		b.Fatal("no motif found")
	}
}

// BenchmarkTable1Measures times each similarity measure at the same
// length, exhibiting the O(l) vs O(l^2) cost column of Table 1.
func BenchmarkTable1Measures(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	x, y := t.Points[:128], t.Points[128:256]
	b.Run("ED", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := dist.ED(x, y, geo.Haversine); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("DTW", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DTW(x, y, geo.Haversine)
		}
	})
	b.Run("LCSS", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.LCSS(x, y, geo.Haversine, 50)
		}
	})
	b.Run("EDR", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.EDR(x, y, geo.Haversine, 50)
		}
	})
	b.Run("DFD", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DFD(x, y, geo.Haversine)
		}
	})
}

// BenchmarkFigure2EDvsDFD times DFD motif discovery on the pedestrian
// workload underlying Figure 2.
func BenchmarkFigure2EDvsDFD(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := group.GTM(t, benchXi, 16, nil)
		if err != nil {
			b.Fatal(err)
		}
		sink(b, &res.Result, nil)
	}
}

// BenchmarkFigure3DTWvsDFD times the DTW/DFD comparison on the
// non-uniformly sampled curves of Figure 3.
func BenchmarkFigure3DTWvsDFD(b *testing.B) {
	n := 60
	sa := make([]geo.Point, n)
	for i := range sa {
		sa[i] = geo.Point{Lng: float64(i), Lat: math.Sin(float64(i) / 8)}
	}
	sc := make([]geo.Point, 0, 260)
	for i := 0; i < 250; i++ {
		x := float64(i) * 6.0 / 250
		sc = append(sc, geo.Point{Lng: x, Lat: math.Sin(x/8) + 1})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		dist.DTW(sa, sc, geo.Euclidean)
		dist.DFD(sa, sc, geo.Euclidean)
	}
}

// BenchmarkFigure4Symbolic times the symbolic pipeline of Figure 4.
func BenchmarkFigure4Symbolic(b *testing.B) {
	t := benchTraj(b, datagen.TruckName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		symbolic.Discover(t, 8)
	}
}

// BenchmarkTable3BoundCost compares the per-call cost of tight versus
// relaxed bound machinery (Table 3).
func BenchmarkTable3BoundCost(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	g := dmatrix.ComputeSelf(t.Points, geo.Haversine)
	tight := bounds.NewTight(g, benchXi, true)
	rb := bounds.NewRelaxed(g, bounds.PointParams(benchXi, true))
	i, j := benchN/4, benchN/4+benchXi+10
	b.Run("tight-cross", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			tight.StartCross(i, j)
		}
	})
	b.Run("tight-band", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			tight.RowBand(i, j)
		}
	})
	b.Run("relaxed-precompute-total", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			bounds.NewRelaxed(g, bounds.PointParams(benchXi, true))
		}
	})
	b.Run("relaxed-query", func(b *testing.B) {
		for k := 0; k < b.N; k++ {
			rb.SubsetLB(g.At(i, j), i, j)
		}
	})
}

// BenchmarkFigure13TightVsRelaxed compares full BTM runs under tight and
// relaxed bounds (Figure 13; n varies in cmd/motifbench).
func BenchmarkFigure13TightVsRelaxed(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName).Clip(200)
	b.Run("tight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, 8, &core.Options{Bounds: core.BoundsTight})
			sink(b, res, err)
		}
	})
	b.Run("relaxed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, 8, nil)
			sink(b, res, err)
		}
	})
}

// BenchmarkFigure14TightVsRelaxedXi repeats the comparison at a larger ξ
// (Figure 14's sweep dimension).
func BenchmarkFigure14TightVsRelaxedXi(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName).Clip(200)
	for _, xi := range []int{8, 16} {
		b.Run(map[int]string{8: "xi8-tight", 16: "xi16-tight"}[xi], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, xi, &core.Options{Bounds: core.BoundsTight})
				sink(b, res, err)
			}
		})
		b.Run(map[int]string{8: "xi8-relaxed", 16: "xi16-relaxed"}[xi], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, xi, nil)
				sink(b, res, err)
			}
		})
	}
}

// BenchmarkFigure15Breakdown times BTM with the pruning-attribution pass
// enabled (Figure 15's accounting).
func BenchmarkFigure15Breakdown(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := core.BTM(t, benchXi, &core.Options{CollectBreakdown: true})
		sink(b, res, err)
	}
}

// BenchmarkFigure16BoundVariants times the cumulative bound
// configurations (Figure 16).
func BenchmarkFigure16BoundVariants(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	for _, v := range []struct {
		name string
		set  core.BoundSet
	}{
		{"cell", core.BoundsCellOnly},
		{"cell+cross", core.BoundsCellCross},
		{"cell+cross+band", core.BoundsRelaxed},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, benchXi, &core.Options{Bounds: v.set})
				sink(b, res, err)
			}
		})
	}
}

// BenchmarkFigure17GroupSize sweeps GTM's initial τ (Figure 17).
func BenchmarkFigure17GroupSize(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	for _, tau := range []int{8, 16, 32, 64, 128} {
		b.Run(map[int]string{8: "tau8", 16: "tau16", 32: "tau32", 64: "tau64", 128: "tau128"}[tau], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTM(t, benchXi, tau, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
	}
}

// BenchmarkFigure18ResponseTime compares the four methods on each
// dataset (Figure 18). BruteDP runs at this size; larger sweeps truncate
// it in cmd/motifbench.
func BenchmarkFigure18ResponseTime(b *testing.B) {
	for _, name := range datagen.Names() {
		t := benchTraj(b, name)
		b.Run(string(name)+"/BruteDP", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BruteDP(t.Clip(150), 6, nil)
				sink(b, res, err)
			}
		})
		b.Run(string(name)+"/BTM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, benchXi, nil)
				sink(b, res, err)
			}
		})
		b.Run(string(name)+"/GTM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTM(t, benchXi, 32, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
		b.Run(string(name)+"/GTMStar", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTMStar(t, benchXi, 32, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
	}
}

// BenchmarkFigure19Space reports each method's principal memory as a
// benchmark metric (Figure 19).
func BenchmarkFigure19Space(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.Run("BTM", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, benchXi, nil)
			if err != nil {
				b.Fatal(err)
			}
			bytes = res.Stats.PeakBytes
		}
		b.ReportMetric(float64(bytes), "peak-bytes")
	})
	b.Run("GTM", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := group.GTM(t, benchXi, 32, nil)
			if err != nil {
				b.Fatal(err)
			}
			bytes = res.Stats.PeakBytes
		}
		b.ReportMetric(float64(bytes), "peak-bytes")
	})
	b.Run("GTMStar", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			res, err := group.GTMStar(t, benchXi, 32, nil)
			if err != nil {
				b.Fatal(err)
			}
			bytes = res.Stats.PeakBytes
		}
		b.ReportMetric(float64(bytes), "peak-bytes")
	})
}

// BenchmarkFigure20MinLength sweeps ξ (Figure 20).
func BenchmarkFigure20MinLength(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	for _, xi := range []int{8, 16, 24, 32} {
		b.Run(map[int]string{8: "xi8", 16: "xi16", 24: "xi24", 32: "xi32"}[xi], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTM(t, xi, 32, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
	}
}

// BenchmarkFigure21CrossTrajectory times the two-trajectory variant
// (Figure 21).
func BenchmarkFigure21CrossTrajectory(b *testing.B) {
	for _, name := range datagen.Names() {
		a, u, err := datagen.Pair(name, datagen.Config{Seed: 42, N: benchN})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(string(name)+"/BTM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTMCross(a, u, benchXi, nil)
				sink(b, res, err)
			}
		})
		b.Run(string(name)+"/GTM", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTMCross(a, u, benchXi, 32, nil)
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
	}
}

// --- Ablation benches (DESIGN.md §6) ---

// BenchmarkAblationSearchOrder isolates the value of processing candidate
// subsets in ascending-LB order (§4.4 "prioritizing search order").
func BenchmarkAblationSearchOrder(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.Run("sorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, benchXi, nil)
			sink(b, res, err)
		}
	})
	b.Run("unsorted", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, benchXi, &core.Options{Unsorted: true})
			sink(b, res, err)
		}
	})
}

// BenchmarkAblationEndCross isolates the within-subset end-cross cap
// (Alg. 2 lines 12-13).
func BenchmarkAblationEndCross(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.Run("with-endcross", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, benchXi, nil)
			sink(b, res, err)
		}
	})
	b.Run("without-endcross", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := core.BTM(t, benchXi, &core.Options{DisableEndCross: true})
			sink(b, res, err)
		}
	})
}

// BenchmarkAblationMultiLevel contrasts GTM's multi-level halving with
// GTM*'s single grouping pass on the same τ.
func BenchmarkAblationMultiLevel(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	b.Run("multi-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := group.GTM(t, benchXi, 32, nil)
			if err != nil {
				b.Fatal(err)
			}
			sink(b, &res.Result, nil)
		}
	})
	b.Run("single-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			res, err := group.GTMStar(t, benchXi, 32, nil)
			if err != nil {
				b.Fatal(err)
			}
			sink(b, &res.Result, nil)
		}
	})
}

// BenchmarkAblationEarlyAbandon isolates the kernel-level early
// abandoning of subset DPs against the best-so-far bound (ROADMAP:
// "Early-abandoning DFD inside motif search"), on the two drivers where
// hopeless subsets actually reach the DP: the BruteDP baseline and
// unsorted BTM. DP cells expanded are reported as a metric so the
// reduction is visible alongside the time.
func BenchmarkAblationEarlyAbandon(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	clipped := t.Clip(120)
	run := func(b *testing.B, f func() *core.Result) {
		var cells int64
		for i := 0; i < b.N; i++ {
			cells = f().Stats.DPCells
		}
		b.ReportMetric(float64(cells), "dp-cells")
	}
	b.Run("brutedp-abandon", func(b *testing.B) {
		run(b, func() *core.Result {
			res, err := core.BruteDP(clipped, 6, nil)
			sink(b, res, err)
			return res
		})
	})
	b.Run("brutedp-full", func(b *testing.B) {
		run(b, func() *core.Result {
			res, err := core.BruteDP(clipped, 6, &core.Options{DisableEarlyAbandon: true})
			sink(b, res, err)
			return res
		})
	})
	b.Run("btm-unsorted-abandon", func(b *testing.B) {
		run(b, func() *core.Result {
			res, err := core.BTM(t, benchXi, &core.Options{Unsorted: true})
			sink(b, res, err)
			return res
		})
	})
	b.Run("btm-unsorted-full", func(b *testing.B) {
		run(b, func() *core.Result {
			res, err := core.BTM(t, benchXi, &core.Options{Unsorted: true, DisableEarlyAbandon: true})
			sink(b, res, err)
			return res
		})
	})
}

// BenchmarkParallelBTM measures the block-synchronous parallel subset
// sweep at a size where the search dominates (n >= 1000): workers = 1
// against the full machine. Results — including pruning counters — are
// byte-identical across the two runs (TestParallelDeterminism); only
// wall-clock changes.
func BenchmarkParallelBTM(b *testing.B) {
	t, err := datagen.Dataset(datagen.GeoLifeName, datagen.Config{Seed: 42, N: 1000})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, 20, &core.Options{Workers: w})
				sink(b, res, err)
			}
		})
	}
}

// BenchmarkParallelGTM is the GTM counterpart: grid build, level scans,
// group-pair interval DFDs and the point-level sweep all shard across
// the same worker pool.
func BenchmarkParallelGTM(b *testing.B) {
	t, err := datagen.Dataset(datagen.GeoLifeName, datagen.Config{Seed: 42, N: 1000})
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := group.GTM(t, 20, 32, &core.Options{Workers: w})
				if err != nil {
					b.Fatal(err)
				}
				sink(b, &res.Result, nil)
			}
		})
	}
}

// BenchmarkKernelCapped measures the capped kernel against the plain
// exact kernel at the same length. capped-tight's cap is the kind of
// best-so-far bound k-NN holds against a hopeless candidate, so it
// abandons within a few rows; capped-certified's cap is the next float
// above the distance, the radius k-NN and the exact join measure a
// certified candidate in, so it completes over the cells below the cap.
func BenchmarkKernelCapped(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	x, y := t.Points[:200], t.Points[200:400]
	exact := dist.DFD(x, y, geo.Haversine)
	b.Run("exact", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DFD(x, y, geo.Haversine)
		}
	})
	b.Run("capped-tight", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DFDCapped(x, y, geo.Haversine, exact/4)
		}
	})
	b.Run("capped-certified", func(b *testing.B) {
		certified := math.Nextafter(exact, math.Inf(1))
		for i := 0; i < b.N; i++ {
			dist.DFDCapped(x, y, geo.Haversine, certified)
		}
	})
	b.Run("decision", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DFDDecision(x, y, geo.Haversine, exact/4)
		}
	})
}

// BenchmarkAblationDFDSpace compares the linear-space DFD inner loop with
// the full-matrix form (§5.5, Idea ii).
func BenchmarkAblationDFDSpace(b *testing.B) {
	t := benchTraj(b, datagen.GeoLifeName)
	x, y := t.Points[:200], t.Points[200:400]
	b.Run("linear-space", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dist.DFD(x, y, geo.Haversine)
		}
	})
	b.Run("full-matrix", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			dp := dist.DFDMatrix(x, y, geo.Haversine)
			_ = dp[len(x)-1][len(y)-1]
		}
	})
}

// BenchmarkExtensionTopK measures top-3 discovery relative to single-motif
// BTM (the k rounds share grid and bounds).
func BenchmarkExtensionTopK(b *testing.B) {
	t := benchTraj(b, datagen.BaboonName)
	b.Run("top1", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TopK(t, benchXi, 1, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("top3", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := core.TopK(t, benchXi, 3, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkExtensionApproximate measures the pruning payoff of the (1+ε)
// guarantee.
func BenchmarkExtensionApproximate(b *testing.B) {
	t := benchTraj(b, datagen.TruckName)
	for _, eps := range []float64{0, 0.25, 1.0} {
		name := map[float64]string{0: "exact", 0.25: "eps0.25", 1.0: "eps1.0"}[eps]
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res, err := core.BTM(t, benchXi, &core.Options{Epsilon: eps})
				sink(b, res, err)
			}
		})
	}
}

// BenchmarkExtensionKNN measures k-NN search over a fleet with lower-bound
// pruning versus the brute-force scan.
func BenchmarkExtensionKNN(b *testing.B) {
	var fleet []*traj.Trajectory
	for seed := int64(1); seed <= 20; seed++ {
		tr, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: seed, N: 150})
		if err != nil {
			b.Fatal(err)
		}
		fleet = append(fleet, tr)
	}
	query, _ := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: 99, N: 150})
	b.Run("pruned", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, err := knn.Nearest(query, fleet, 3, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bruteforce", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, tr := range fleet {
				dist.DFD(query.Points, tr.Points, geo.Haversine)
			}
		}
	})
}
