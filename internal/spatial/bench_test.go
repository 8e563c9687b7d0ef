package spatial_test

import (
	"math/rand"
	"slices"
	"testing"

	"trajmotif/internal/datagen"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// BenchmarkRetrieval measures the two served retrieval queries at layer
// level over a 2000-trajectory, 100-point registry (the shape of
// servebench's retrieval workload): k = 5 nearest-neighbour searches,
// each for one stored trajectory against the other 1999, and a 500 m
// similarity join over a 100-trajectory window. Both take their boxes
// from store.IndexFor, as /knn and /join do, and the index build is
// timed. knn cycles through 512 seeded queries, as servebench draws its
// own, so run it with -benchtime 512x (or a multiple) for the full set;
// it reports its effort counters averaged per search: exact and
// abandoned verifications, index-pruned candidates and projection
// fallbacks. join reports its pruned pairs, reported pairs and
// fallbacks.
func BenchmarkRetrieval(b *testing.B) {
	const n, points, queries = 2000, 100, 512
	st := store.New(nil)
	ids := make([]store.ID, n)
	ts := make([]*traj.Trajectory, n)
	names := datagen.Names()
	for i := range ts {
		t, err := datagen.Dataset(names[i%len(names)], datagen.Config{Seed: int64(i + 1), N: points})
		if err != nil {
			b.Fatal(err)
		}
		if ids[i], _, err = st.Add(t); err != nil {
			b.Fatal(err)
		}
		ts[i] = t
	}

	b.Run("knn", func(b *testing.B) {
		qs := rand.New(rand.NewSource(1)).Perm(n)[:queries]
		var sum knn.Stats
		for i := 0; i < b.N; i++ {
			q := qs[i%queries]
			dsIDs, ds := slices.Concat(ids[:q:q], ids[q+1:]), slices.Concat(ts[:q:q], ts[q+1:])
			_, kst, err := knn.Nearest(ts[q], ds, 5, &knn.Options{Index: st.IndexFor(dsIDs, ds)})
			if err != nil {
				b.Fatal(err)
			}
			sum.IndexPruned += kst.IndexPruned
			sum.Exact += kst.Exact
			sum.AbandonedEarly += kst.AbandonedEarly
			sum.ProjectionFallbacks += kst.ProjectionFallbacks
		}
		perOp := func(v int64) float64 { return float64(v) / float64(b.N) }
		b.ReportMetric(perOp(sum.IndexPruned), "pruned/op")
		b.ReportMetric(perOp(sum.Exact), "exact/op")
		b.ReportMetric(perOp(sum.AbandonedEarly), "abandoned/op")
		b.ReportMetric(perOp(sum.ProjectionFallbacks), "fallbacks/op")
	})
	b.Run("join", func(b *testing.B) {
		wIDs, w := ids[:100], ts[:100]
		var jst join.Stats
		for i := 0; i < b.N; i++ {
			var err error
			if _, jst, err = join.Join(w, 500, &join.Options{Index: st.IndexFor(wIDs, w)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(jst.IndexPruned), "pruned/op")
		b.ReportMetric(float64(jst.Reported), "reported/op")
		b.ReportMetric(float64(jst.ProjectionFallbacks), "fallbacks/op")
	})
}
