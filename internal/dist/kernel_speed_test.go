package dist

// White-box parity tests and benchmarks for the kernel fast paths:
// the prepared (hoisted-cos) haversine rows and the projected decision
// DP. These live in package dist so the tests can drive the greedy
// certificate and the decision DP directly.

import (
	"math"
	"math/rand"
	"testing"

	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// speedTrack builds a random-walk trajectory around a base point, the
// shape the datagen workloads produce (street-scale steps, city-scale
// extent).
func speedTrack(rng *rand.Rand, base geo.Point, n int, stepDeg float64) []geo.Point {
	pts := make([]geo.Point, n)
	p := base
	for i := range pts {
		p.Lat += (rng.Float64() - 0.5) * stepDeg
		p.Lng += (rng.Float64() - 0.5) * stepDeg
		pts[i] = p
	}
	return pts
}

// wrappedHaversine defeats geo.IsHaversine, forcing the generic
// DistanceFunc path, while computing the identical distance.
func wrappedHaversine(a, b geo.Point) float64 { return geo.Haversine(a, b) }

// TestPreparedKernelBitIdentical pins DFDCapped and DFDDecision on the
// prepared fast path against the generic path over the same haversine
// values: results must be bit-identical for exact, capped, and decision
// sweeps.
func TestPreparedKernelBitIdentical(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for trial := 0; trial < 40; trial++ {
		na, nb := 2+rng.Intn(60), 2+rng.Intn(60)
		a := speedTrack(rng, geo.Point{Lat: 39.9, Lng: 116.4}, na, 0.01)
		b := speedTrack(rng, geo.Point{Lat: 39.91, Lng: 116.41}, nb, 0.01)

		wantD, wantEx := DFDCapped(a, b, wrappedHaversine, math.Inf(1))
		gotD, gotEx := DFDCapped(a, b, geo.Haversine, math.Inf(1))
		if math.Float64bits(wantD) != math.Float64bits(gotD) || wantEx != gotEx {
			t.Fatalf("trial %d: exact DFD differs: prepared (%v, %v) vs generic (%v, %v)",
				trial, gotD, gotEx, wantD, wantEx)
		}
		for _, capFrac := range []float64{0.25, 0.5, 1, 2} {
			cap := wantD * capFrac
			wd, we := DFDCapped(a, b, wrappedHaversine, cap)
			gd, ge := DFDCapped(a, b, geo.Haversine, cap)
			if math.Float64bits(wd) != math.Float64bits(gd) || we != ge {
				t.Fatalf("trial %d cap %v: capped DFD differs: prepared (%v, %v) vs generic (%v, %v)",
					trial, cap, gd, ge, wd, we)
			}
		}
		for _, epsFrac := range []float64{0.5, 0.99, 1, 1.01} {
			eps := wantD * epsFrac
			if DFDDecision(a, b, wrappedHaversine, eps) != DFDDecision(a, b, geo.Haversine, eps) {
				t.Fatalf("trial %d eps %v: decision differs between prepared and generic", trial, eps)
			}
		}
	}
}

// TestProjectedDecisionParity sweeps eps through and around the
// interesting range on random city-scale pairs and asserts the
// projected decision equals the haversine decision everywhere, with
// certified cells doing the bulk of the work.
func TestProjectedDecisionParity(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	var totalFallbacks, totalDecisions int64
	for trial := 0; trial < 60; trial++ {
		a := speedTrack(rng, geo.Point{Lat: 39.9, Lng: 116.4}, 2+rng.Intn(50), 0.01)
		b := speedTrack(rng, geo.Point{Lat: 39.91, Lng: 116.41}, 2+rng.Intn(50), 0.01)
		minLat, maxLat, minLng, maxLng := bounds2(a, b)
		f := geo.FrameFor(minLat, maxLat, minLng, maxLng)
		if !f.OK() {
			t.Fatal("city-scale frame rejected")
		}
		pa, pb := f.ProjectAll(a), f.ProjectAll(b)
		d, _ := DFDCapped(a, b, geo.Haversine, math.Inf(1))
		for _, eps := range []float64{0, d * 0.3, d * 0.999999, d, d * 1.000001, d * 3} {
			want := DFDDecision(a, b, geo.Haversine, eps)
			got := DFDDecisionProjected(a, b, pa, pb, f, eps, &totalFallbacks)
			if want != got {
				t.Fatalf("trial %d eps %v: projected %v != haversine %v", trial, eps, got, want)
			}
			totalDecisions++
		}
	}
	t.Logf("fallbacks %d across %d decisions", totalFallbacks, totalDecisions)
}

// TestGreedyCertificate sweeps eps around the DFD of random city-scale
// pairs: a greedy certificate is always a true "within", the decision
// equals DFD <= eps whether the walk arrives or gets stuck, and both
// outcomes occur among the "within" answers.
func TestGreedyCertificate(t *testing.T) {
	rng := rand.New(rand.NewSource(46))
	var certified, stuckWithin int
	for trial := 0; trial < 60; trial++ {
		a := speedTrack(rng, geo.Point{Lat: 39.9, Lng: 116.4}, 1+rng.Intn(40), 0.01)
		b := speedTrack(rng, geo.Point{Lat: 39.91, Lng: 116.41}, 1+rng.Intn(40), 0.01)
		if len(b) > len(a) {
			a, b = b, a
		}
		d := DFD(a, b, geo.Haversine)
		for _, eps := range []float64{d * 0.5, math.Nextafter(d, 0), d, d * 1.05, d * 2} {
			g := dmatrix.NewFlyCross(a, b, geo.Haversine)
			greedy := greedyWithin(g, len(a), len(b), eps)
			got := decision(g, len(a), len(b), eps)
			if greedy && !(d <= eps) || got != (d <= eps) {
				t.Fatalf("trial %d eps %v: greedy %v, decision %v, DFD %v", trial, eps, greedy, got, d)
			}
			switch {
			case greedy:
				certified++
			case got:
				stuckWithin++
			}
		}
	}
	if certified == 0 || stuckWithin == 0 {
		t.Fatalf("certified %d, stuck but within %d: a path went untested", certified, stuckWithin)
	}
}

// TestProjectedDecisionFallbacks forces the uncertain band: a frame
// over a tens-of-degrees region has a percent-scale error band, so an
// eps in the middle of the pair distances must take per-cell haversine
// fallbacks — and still agree with the haversine decision exactly.
func TestProjectedDecisionFallbacks(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	var fallbacks int64
	agree := 0
	for trial := 0; trial < 30; trial++ {
		a := speedTrack(rng, geo.Point{Lat: 20, Lng: 10}, 30, 1.2)
		b := speedTrack(rng, geo.Point{Lat: 21, Lng: 11}, 30, 1.2)
		minLat, maxLat, minLng, maxLng := bounds2(a, b)
		f := geo.FrameFor(minLat, maxLat, minLng, maxLng)
		if !f.OK() {
			continue
		}
		pa, pb := f.ProjectAll(a), f.ProjectAll(b)
		// eps at each cell distance lands many cells inside the band.
		for i := 0; i < len(a); i += 7 {
			eps := geo.Haversine(a[i], b[i])
			want := DFDDecision(a, b, geo.Haversine, eps)
			got := DFDDecisionProjected(a, b, pa, pb, f, eps, &fallbacks)
			if want != got {
				t.Fatalf("trial %d: projected %v != haversine %v", trial, got, want)
			}
			agree++
		}
	}
	if fallbacks == 0 {
		t.Fatal("loose-frame sweep took no fallbacks; band thresholds suspiciously certain")
	}
	t.Logf("%d fallbacks across %d agreeing decisions", fallbacks, agree)
}

// TestProjectedDecisionInvalidFrame pins the whole-pair fallback: an
// invalid frame must count one fallback and still answer exactly.
func TestProjectedDecisionInvalidFrame(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	a := speedTrack(rng, geo.Point{Lat: 88, Lng: 0}, 10, 0.01) // polar: no frame
	b := speedTrack(rng, geo.Point{Lat: 88, Lng: 0.1}, 10, 0.01)
	var f geo.Frame
	var n int64
	eps := 5000.0
	want := DFDDecision(a, b, geo.Haversine, eps)
	if got := DFDDecisionProjected(a, b, nil, nil, f, eps, &n); got != want {
		t.Fatalf("invalid frame: projected %v != haversine %v", got, want)
	}
	if n != 1 {
		t.Fatalf("invalid frame counted %d fallbacks, want 1", n)
	}
	// nil counter must not panic.
	if got := DFDDecisionProjected(a, b, nil, nil, f, eps, nil); got != want {
		t.Fatal("nil fallback counter changed the answer")
	}
}

func bounds2(a, b []geo.Point) (minLat, maxLat, minLng, maxLng float64) {
	minLat, maxLat = math.Inf(1), math.Inf(-1)
	minLng, maxLng = math.Inf(1), math.Inf(-1)
	for _, pts := range [][]geo.Point{a, b} {
		for _, p := range pts {
			minLat = math.Min(minLat, p.Lat)
			maxLat = math.Max(maxLat, p.Lat)
			minLng = math.Min(minLng, p.Lng)
			maxLng = math.Max(maxLng, p.Lng)
		}
	}
	return minLat, maxLat, minLng, maxLng
}

// FuzzProjectedDecision cross-checks the projected decision against the
// haversine decision on fuzz-chosen geometry and eps: any divergence is
// a soundness bug in the frame's certified band.
func FuzzProjectedDecision(f *testing.F) {
	f.Add(int64(1), 39.9, 116.4, 0.01, 500.0)
	f.Add(int64(2), 84.9, 179.0, 0.4, 20000.0)
	f.Add(int64(3), -30.0, -179.99, 2.0, 150000.0)
	f.Add(int64(4), 0.0, 0.0, 0.0001, 3.0)
	// Pole-adjacent pairs, inside and beyond the frame's ±85° range.
	f.Add(int64(5), 84.95, 30.0, 0.02, 800.0)
	f.Add(int64(6), -88.0, -60.0, 0.3, 5000.0)
	// Antimeridian pairs: the box union wraps, so the frame is refused.
	f.Add(int64(7), 12.0, 179.995, 0.01, 900.0)
	f.Add(int64(8), -45.0, -179.99, 0.05, 3000.0)
	f.Fuzz(func(t *testing.T, seed int64, lat, lng, step, eps float64) {
		if math.IsNaN(lat) || math.IsNaN(lng) || math.IsNaN(step) || math.IsNaN(eps) {
			t.Skip()
		}
		lat = math.Mod(lat, 90)
		lng = math.Mod(lng, 180)
		step = math.Mod(math.Abs(step), 3)
		eps = math.Mod(math.Abs(eps), 2e7)
		rng := rand.New(rand.NewSource(seed))
		a := wrapLngs(speedTrack(rng, geo.Point{Lat: lat, Lng: lng}, 2+rng.Intn(20), step))
		b := wrapLngs(speedTrack(rng, geo.Point{Lat: lat, Lng: lng}, 2+rng.Intn(20), step))
		minLat, maxLat, minLng, maxLng := bounds2(a, b)
		fr := geo.FrameFor(minLat, maxLat, minLng, maxLng)
		var pa, pb []geo.Projected
		if fr.OK() {
			pa, pb = fr.ProjectAll(a), fr.ProjectAll(b)
		}
		want := DFDDecision(a, b, geo.Haversine, eps)
		var n int64
		if got := DFDDecisionProjected(a, b, pa, pb, fr, eps, &n); got != want {
			t.Fatalf("projected %v != haversine %v (frame ok=%v, fallbacks=%d, eps=%v)",
				got, want, fr.OK(), n, eps)
		}

		// The knn leg: knn decides a candidate against kth exactly, so at
		// eps = DFD the decision must say within, and at the float below,
		// beyond.
		d := DFD(a, b, geo.Haversine)
		if !DFDDecisionProjected(a, b, pa, pb, fr, d, &n) {
			t.Fatalf("projected decision at eps = DFD %v says beyond (frame ok=%v)", d, fr.OK())
		}
		if below := math.Nextafter(d, 0); below < d && DFDDecisionProjected(a, b, pa, pb, fr, below, &n) {
			t.Fatalf("projected decision at eps = %v, below DFD %v, says within (frame ok=%v)", below, d, fr.OK())
		}
	})
}

// wrapLngs folds longitudes back into [-180, 180], so a walk that drifts
// across the antimeridian straddles it the way stored data does.
func wrapLngs(pts []geo.Point) []geo.Point {
	for i := range pts {
		if pts[i].Lng > 180 {
			pts[i].Lng -= 360
		} else if pts[i].Lng < -180 {
			pts[i].Lng += 360
		}
	}
	return pts
}

// BenchmarkKernelVariants measures per-DP-cell cost of each ground-
// distance strategy on a fixed workload; CHANGES.md quotes the result.
// The value pair runs DFDCapped, which fills each ground row through
// dmatrix.Fly.Row before relaxing it: "generic" is haversine behind an
// opaque DistanceFunc, "prepared" the hoisted-cosine fill. The decision
// pair compares the haversine decision DP against the projected
// tri-state DP.
func BenchmarkKernelVariants(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 512
	ta := speedTrack(rng, geo.Point{Lat: 39.9, Lng: 116.4}, n, 0.01)
	tb := speedTrack(rng, geo.Point{Lat: 39.91, Lng: 116.41}, n, 0.01)
	cells := float64(n) * float64(n)

	b.Run("value-generic", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DFDCapped(ta, tb, wrappedHaversine, math.MaxFloat64)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})
	b.Run("value-prepared", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DFDCapped(ta, tb, geo.Haversine, math.MaxFloat64)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})

	d, _ := DFDCapped(ta, tb, geo.Haversine, math.Inf(1))
	eps := d * 0.9 // a decision that sweeps most of the table
	minLat, maxLat, minLng, maxLng := bounds2(ta, tb)
	fr := geo.FrameFor(minLat, maxLat, minLng, maxLng)
	pa, pb := fr.ProjectAll(ta), fr.ProjectAll(tb)
	b.Run("decision-haversine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DFDDecision(ta, tb, wrappedHaversine, eps)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})
	b.Run("decision-projected", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			DFDDecisionProjected(ta, tb, pa, pb, fr, eps, nil)
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})
}

// BenchmarkRowPrimitives times a full-width sweep of a materialized
// 512×512 haversine grid, so no ground distance is computed: "relax" is
// DFDBoundaryRow then DFDRelaxRow per row, "window" is DFDWindowRow at
// cap +Inf, where every cell is live and its window spans each row.
func BenchmarkRowPrimitives(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	const n = 512
	g := dmatrix.ComputeCross(
		speedTrack(rng, geo.Point{Lat: 39.9, Lng: 116.4}, n, 0.01),
		speedTrack(rng, geo.Point{Lat: 39.91, Lng: 116.41}, n, 0.01),
		geo.Haversine)
	prev, cur := make([]float64, n), make([]float64, n)
	cells := float64(n) * float64(n)

	b.Run("relax", func(b *testing.B) {
		for it := 0; it < b.N; it++ {
			DFDBoundaryRow(g.Row(0), prev)
			for i := 1; i < n; i++ {
				DFDRelaxRow(g.Row(i), prev, cur)
				prev, cur = cur, prev
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})
	b.Run("window", func(b *testing.B) {
		inf := math.Inf(1)
		i := 0
		ground := func(j0, j1 int) []float64 { return g.Row(i)[j0 : j1+1] }
		for it := 0; it < b.N; it++ {
			i = 0
			lo, hi, _ := DFDWindowRow(ground, nil, prev, 0, 0, inf)
			for i = 1; i < n; i++ {
				lo, hi, _ = DFDWindowRow(ground, prev, cur, lo, hi, inf)
				prev, cur = cur, prev
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/cells, "ns/cell")
	})
}
