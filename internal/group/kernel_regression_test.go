package group

// Regression suite for the kernel swap: motif results on fixed synthetic
// workloads are pinned bit-for-bit (distances via math.Float64bits, spans
// exactly), all algorithms must agree with each other, and the
// kernel-level early abandoning must strictly reduce DP-cell counts while
// leaving results untouched.

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/traj"
)

func fixture(t *testing.T, name datagen.Name, n int) *traj.Trajectory {
	t.Helper()
	tr, err := datagen.Dataset(name, datagen.Config{Seed: 42, N: n})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestKernelSwapGoldenResults pins BTM/GTM/GTMStar results on the worked
// synthetic fixtures to the values produced when the canonical kernel was
// introduced: distances are compared byte-identically and the witnessing
// spans exactly, so any later kernel change that perturbs the search —
// reassociated arithmetic, a changed tie, a lost candidate — fails loudly
// here.
func TestKernelSwapGoldenResults(t *testing.T) {
	cases := []struct {
		name     datagen.Name
		n, xi    int
		tau      int
		distBits uint64
		a, b     traj.Span
	}{
		{datagen.GeoLifeName, 160, 8, 8, 0x4042fbb200e729d4,
			traj.Span{Start: 96, End: 105}, traj.Span{Start: 106, End: 115}},
		{datagen.TruckName, 160, 8, 8, 0x405e3ac51691a948,
			traj.Span{Start: 59, End: 68}, traj.Span{Start: 125, End: 134}},
		{datagen.BaboonName, 160, 8, 8, 0x401188c7d998d180,
			traj.Span{Start: 42, End: 51}, traj.Span{Start: 52, End: 61}},
	}
	for _, c := range cases {
		tr := fixture(t, c.name, c.n)
		opt := &core.Options{}

		btm, err := core.BTM(tr, c.xi, opt)
		if err != nil {
			t.Fatalf("%s: BTM: %v", c.name, err)
		}
		gtm, err := GTM(tr, c.xi, c.tau, opt)
		if err != nil {
			t.Fatalf("%s: GTM: %v", c.name, err)
		}
		star, err := GTMStar(tr, c.xi, c.tau, opt)
		if err != nil {
			t.Fatalf("%s: GTM*: %v", c.name, err)
		}

		for alg, res := range map[string]*core.Result{"GTM": &gtm.Result, "GTM*": &star.Result} {
			if math.Float64bits(res.Distance) != math.Float64bits(btm.Distance) {
				t.Errorf("%s: %s distance %v != BTM %v", c.name, alg, res.Distance, btm.Distance)
			}
			if res.A != btm.A || res.B != btm.B {
				t.Errorf("%s: %s spans %v/%v != BTM %v/%v", c.name, alg, res.A, res.B, btm.A, btm.B)
			}
		}
		if math.Float64bits(btm.Distance) != c.distBits {
			t.Errorf("%s: golden distance bits %#x, got %#x (%v)",
				c.name, c.distBits, math.Float64bits(btm.Distance), btm.Distance)
		}
		if btm.A != c.a || btm.B != c.b {
			t.Errorf("%s: golden spans %+v/%+v, got %+v/%+v", c.name, c.a, c.b, btm.A, btm.B)
		}
	}
}

// TestEarlyAbandonReducesDPCells verifies the payoff the kernel swap was
// made for. Early abandoning bites exactly where hopeless subsets reach
// the DP: BruteDP (no bounds at all) and unsorted BTM (bounds consulted
// but in arrival order) must expand strictly fewer cells with abandoning
// on; sorted BTM with the full relaxed bound set already admits only
// essential subsets, so there it may only break even — never regress.
// Results must be byte-identical in every configuration.
func TestEarlyAbandonReducesDPCells(t *testing.T) {
	tr := fixture(t, datagen.GeoLifeName, 200)
	xi := 8

	check := func(name string, on, off *core.Result, strict bool) {
		t.Helper()
		if math.Float64bits(on.Distance) != math.Float64bits(off.Distance) ||
			on.A != off.A || on.B != off.B {
			t.Fatalf("%s: early abandoning changed the result: %v %v/%v vs %v %v/%v",
				name, on.Distance, on.A, on.B, off.Distance, off.A, off.B)
		}
		if strict && on.Stats.DPCells >= off.Stats.DPCells {
			t.Errorf("%s: early abandoning did not reduce DP cells: on=%d off=%d",
				name, on.Stats.DPCells, off.Stats.DPCells)
		}
		if on.Stats.DPCells > off.Stats.DPCells {
			t.Errorf("%s: early abandoning increased DP cells: on=%d off=%d",
				name, on.Stats.DPCells, off.Stats.DPCells)
		}
		if strict && on.Stats.SubsetsAbandoned == 0 {
			t.Errorf("%s: no subsets abandoned despite early abandoning on", name)
		}
		if off.Stats.SubsetsAbandoned != 0 {
			t.Errorf("%s: %d subsets abandoned with early abandoning off",
				name, off.Stats.SubsetsAbandoned)
		}
	}

	run := func(opt core.Options) *core.Result {
		t.Helper()
		res, err := core.BTM(tr, xi, &opt)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	check("btm-unsorted",
		run(core.Options{Unsorted: true}),
		run(core.Options{Unsorted: true, DisableEarlyAbandon: true}), true)
	check("btm-cellonly",
		run(core.Options{Bounds: core.BoundsCellOnly}),
		run(core.Options{Bounds: core.BoundsCellOnly, DisableEarlyAbandon: true}), true)
	check("btm-sorted", run(core.Options{}),
		run(core.Options{DisableEarlyAbandon: true}), false)

	clipped := tr.Clip(120)
	bon, err := core.BruteDP(clipped, 6, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	boff, err := core.BruteDP(clipped, 6, &core.Options{DisableEarlyAbandon: true})
	if err != nil {
		t.Fatal(err)
	}
	check("brutedp", bon, boff, true)

	// GTM feeds the same searcher through group-level pruning; abandoning
	// must never change its result or cost it cells.
	gon, err := GTM(tr, xi, 16, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	goff, err := GTM(tr, xi, 16, &core.Options{DisableEarlyAbandon: true})
	if err != nil {
		t.Fatal(err)
	}
	check("gtm", &gon.Result, &goff.Result, false)
}

// TestParallelDeterminism locks down the block-synchronous parallel
// engine: for every algorithm (BruteDP, BTM under every BoundSet and
// unsorted, GTM, GTM*), self and cross, with and without ε, runs at
// workers = 2, 4, 8 must be byte-identical to workers = 1 — distance
// bits, witness spans, AND every effort counter (only the wall-clock
// durations are scrubbed before comparison). Any scheduling dependence
// in pruning, abandoning, or witness merging fails loudly here; the
// grouping cases include the interval-DFD cell count.
func TestParallelDeterminism(t *testing.T) {
	tr := fixture(t, datagen.GeoLifeName, 200)
	clipped := tr.Clip(120)
	ca, cb, err := datagen.Pair(datagen.TruckName, datagen.Config{Seed: 7, N: 160})
	if err != nil {
		t.Fatal(err)
	}
	xi := 8

	// scrub zeroes the timing fields so reflect.DeepEqual compares only
	// deterministic content.
	scrubCore := func(r *core.Result) *core.Result {
		r.Stats.Precompute, r.Stats.Search = 0, 0
		return r
	}
	scrubGroup := func(r *Result) *Result {
		r.Stats.Precompute, r.Stats.Search = 0, 0
		r.Group.Stats.Precompute, r.Group.Stats.Search = 0, 0
		return r
	}

	cases := []struct {
		name string
		run  func(workers int) (any, error)
	}{
		{"brutedp/self", func(w int) (any, error) {
			r, err := core.BruteDP(clipped, 6, &core.Options{Workers: w})
			return r, err
		}},
		{"brutedp/cross", func(w int) (any, error) {
			r, err := core.BruteDPCross(ca, cb, 6, &core.Options{Workers: w})
			return r, err
		}},
		{"btm/unsorted", func(w int) (any, error) {
			r, err := core.BTM(tr, xi, &core.Options{Workers: w, Unsorted: true})
			return r, err
		}},
		{"btm/cross", func(w int) (any, error) {
			r, err := core.BTMCross(ca, cb, 6, &core.Options{Workers: w})
			return r, err
		}},
		{"btm/eps0.4", func(w int) (any, error) {
			r, err := core.BTM(tr, xi, &core.Options{Workers: w, Epsilon: 0.4})
			return r, err
		}},
		{"gtm/tau16", func(w int) (any, error) {
			r, err := GTM(tr, xi, 16, &core.Options{Workers: w})
			return r, err
		}},
		{"gtm/tau16/eps0.5", func(w int) (any, error) {
			r, err := GTM(tr, xi, 16, &core.Options{Workers: w, Epsilon: 0.5})
			return r, err
		}},
		{"gtmstar/tau16", func(w int) (any, error) {
			r, err := GTMStar(tr, xi, 16, &core.Options{Workers: w})
			return r, err
		}},
		{"gtm/cross", func(w int) (any, error) {
			r, err := GTMCross(ca, cb, 6, 8, &core.Options{Workers: w})
			return r, err
		}},
		{"gtmstar/cross/eps0.3", func(w int) (any, error) {
			r, err := GTMStarCross(ca, cb, 6, 8, &core.Options{Workers: w, Epsilon: 0.3})
			return r, err
		}},
		// TopK is the one parallel driver exercising the exclude
		// predicate (rounds >= 2 mask prior witnesses) and the shared
		// grid across rounds.
		{"topk3/self", func(w int) (any, error) {
			r, err := core.TopK(tr, xi, 3, &core.Options{Workers: w})
			return r, err
		}},
		{"topk2/cross", func(w int) (any, error) {
			r, err := core.TopKCross(ca, cb, 6, 2, &core.Options{Workers: w})
			return r, err
		}},
	}
	for _, bs := range []core.BoundSet{core.BoundsRelaxed, core.BoundsTight, core.BoundsCellOnly, core.BoundsCellCross} {
		bs := bs
		cases = append(cases, struct {
			name string
			run  func(workers int) (any, error)
		}{fmt.Sprintf("btm/%v", bs), func(w int) (any, error) {
			r, err := core.BTM(tr, xi, &core.Options{Workers: w, Bounds: bs})
			return r, err
		}})
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			scrub := func(v any) any {
				switch r := v.(type) {
				case *core.Result:
					return scrubCore(r)
				case *Result:
					return scrubGroup(r)
				case []core.Result:
					for k := range r {
						scrubCore(&r[k])
					}
					return r
				}
				t.Fatalf("unexpected result type %T", v)
				return nil
			}
			base, err := c.run(1)
			if err != nil {
				t.Fatalf("workers=1: %v", err)
			}
			base = scrub(base)
			// The grouping runs must exercise the interval-DFD counter,
			// so the comparison below covers it.
			if g, ok := base.(*Result); ok && g.Group.Levels > 0 && g.Group.IntervalCells == 0 {
				t.Errorf("workers=1: %d grouping levels filled no interval-DFD cells", g.Group.Levels)
			}
			for _, w := range []int{2, 4, 8} {
				got, err := c.run(w)
				if err != nil {
					t.Fatalf("workers=%d: %v", w, err)
				}
				got = scrub(got)
				if !reflect.DeepEqual(base, got) {
					t.Errorf("workers=%d diverged from workers=1:\n  w1: %+v\n  w%d: %+v", w, base, w, got)
				}
			}
		})
	}
}

// TestKernelSwapCrossGolden repeats the bit-identical pin for the
// two-trajectory variant.
func TestKernelSwapCrossGolden(t *testing.T) {
	a, b, err := datagen.Pair(datagen.TruckName, datagen.Config{Seed: 42, N: 120})
	if err != nil {
		t.Fatal(err)
	}
	btm, err := core.BTMCross(a, b, 6, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	gtm, err := GTMCross(a, b, 6, 8, &core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(gtm.Distance) != math.Float64bits(btm.Distance) {
		t.Errorf("GTMCross %v != BTMCross %v", gtm.Distance, btm.Distance)
	}
	const wantBits = uint64(0x40628a40e1753326) // 148.32042000666223
	if math.Float64bits(btm.Distance) != wantBits {
		t.Errorf("golden cross distance bits %#x, got %#x (%v)",
			wantBits, math.Float64bits(btm.Distance), btm.Distance)
	}
	wantA := traj.Span{Start: 73, End: 80}
	wantB := traj.Span{Start: 49, End: 56}
	if btm.A != wantA || btm.B != wantB {
		t.Errorf("golden cross spans %+v/%+v, got %+v/%+v", wantA, wantB, btm.A, btm.B)
	}
}
