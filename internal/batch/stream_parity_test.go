package batch

import (
	"math/rand"
	"reflect"
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/group"
	"trajmotif/internal/traj"
)

// prefilterCorpus scatters trajectory clusters across distant cities —
// near pairs carry motifs within range, far pairs are index fodder — and
// plants too-short members whose ErrTooShort items must survive both
// configurations identically.
func prefilterCorpus(r *rand.Rand) []*traj.Trajectory {
	centers := [][2]float64{{39.9, 116.4}, {37.97, 23.72}, {-33.87, 151.2}}
	var ts []*traj.Trajectory
	for _, c := range centers {
		for i := 0; i < 3; i++ {
			lat, lng := c[0]+r.Float64()*0.03, c[1]+r.Float64()*0.03
			pts := make([]geo.Point, 20+r.Intn(15))
			for k := range pts {
				lat += (r.Float64()*2 - 1) * 0.005
				lng += (r.Float64()*2 - 1) * 0.005
				pts[k] = geo.Point{Lat: lat, Lng: lng}
			}
			ts = append(ts, traj.FromPoints(pts))
		}
		// Too short for xi=4 (needs >= xi+2 = 6 points): pairs with it
		// return ErrTooShort, prefiltered or not.
		ts = append(ts, traj.FromPoints([]geo.Point{
			{Lat: c[0], Lng: c[1]}, {Lat: c[0] + 0.001, Lng: c[1]}, {Lat: c[0], Lng: c[1] + 0.001},
		}))
	}
	return ts
}

// rangeReference is the all-pairs range query computed the long way:
// group.GTMCross on every pair inside the residency window (window <= 0:
// all pairs), then the MaxDistance filter, error items kept.
func rangeReference(t *testing.T, ts []*traj.Trajectory, xi, window int, maxDist float64) []PairItem {
	t.Helper()
	var want []PairItem
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if window > 0 && j-i >= window {
				continue
			}
			res, err := group.GTMCross(ts[i], ts[j], xi, 32, &core.Options{Workers: 1})
			if err == nil && res.Distance > maxDist {
				continue
			}
			want = append(want, PairItem{I: i, J: j, Result: res, Err: err})
		}
	}
	return scrubPairs(want)
}

// TestAllPairsStreamPrefilterParity: with a MaxDistance cutoff, the
// spatially prefiltered all-pairs run returns exactly the pairs a search
// of every pair plus the range filter keeps, for workers 1 and 4 and
// windows 0/4 and through DiscoverAllPairs, while the prefilter actually
// skips searches.
func TestAllPairsStreamPrefilterParity(t *testing.T) {
	r := rand.New(rand.NewSource(111))
	ts := prefilterCorpus(r)
	const xi, maxDist = 4, 50_000.0 // within-city motifs pass, cross-city pairs cannot

	var prunedTotal int64
	for _, window := range []int{0, 4} {
		want := rangeReference(t, ts, xi, window, maxDist)
		tooShort := 0
		for _, it := range want {
			if it.Err != nil {
				tooShort++
			}
		}
		if tooShort == 0 || tooShort == len(want) {
			t.Fatalf("window=%d: reference has %d error items of %d; the corpus should mix both", window, tooShort, len(want))
		}
		for _, workers := range []int{1, 4} {
			var ixs IndexStats
			opt := &Options{Workers: workers, MaxDistance: maxDist, IndexStats: &ixs}
			got, err := DiscoverAllPairsStream(SliceSource(ts), xi, window, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scrubPairs(got), want) {
				t.Errorf("workers=%d window=%d: prefiltered items differ from the reference", workers, window)
			}
			if ixs.Consulted == 0 {
				t.Errorf("workers=%d window=%d: prefilter never consulted", workers, window)
			}
			prunedTotal += ixs.Pruned
			if window == 0 && ixs.Pruned == 0 {
				t.Errorf("workers=%d window=0: cross-city pairs not pruned (consulted %d)", workers, ixs.Consulted)
			}
			if window != 0 {
				continue
			}
			var slurp IndexStats
			got, err = DiscoverAllPairs(ts, xi, &Options{Workers: workers, MaxDistance: maxDist, IndexStats: &slurp})
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(scrubPairs(got), want) || slurp != ixs {
				t.Errorf("workers=%d: DiscoverAllPairs differs from the reference (stats %+v, stream %+v)", workers, slurp, ixs)
			}
		}
	}
	if prunedTotal == 0 {
		t.Error("prefilter never pruned a pair")
	}
}

// TestAllPairsStreamPrefilterInactive pins the degraded modes: zero
// MaxDistance means no filtering and no prefilter, and an unrecognized
// ground distance disables the prefilter (sound, never wrong) while the
// range post-filter still applies.
func TestAllPairsStreamPrefilterInactive(t *testing.T) {
	r := rand.New(rand.NewSource(112))
	ts := prefilterCorpus(r)

	plain, err := DiscoverAllPairsStream(SliceSource(ts), 4, 0, nil)
	if err != nil {
		t.Fatal(err)
	}
	var ixs IndexStats
	noCut, err := DiscoverAllPairsStream(SliceSource(ts), 4, 0, &Options{IndexStats: &ixs})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scrubPairs(noCut), scrubPairs(plain)) {
		t.Error("IndexStats without MaxDistance changed the output")
	}
	if ixs.Consulted != 0 {
		t.Errorf("prefilter consulted %d pairs with no cutoff", ixs.Consulted)
	}

	custom := func(p, q geo.Point) float64 { return geo.Haversine(p, q) }
	var ixs2 IndexStats
	opts := &Options{MaxDistance: 50_000, IndexStats: &ixs2}
	opts.Search = &core.Options{Dist: custom}
	got, err := DiscoverAllPairsStream(SliceSource(ts), 4, 0, opts)
	if err != nil {
		t.Fatal(err)
	}
	if ixs2.Consulted != 0 {
		t.Errorf("unrecognized metric consulted the prefilter %d times", ixs2.Consulted)
	}
	for _, it := range got {
		if it.Err == nil && it.Result.Distance > 50_000 {
			t.Fatal("post-filter inactive under an unrecognized metric")
		}
	}
}
