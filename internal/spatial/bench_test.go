package spatial_test

import (
	"testing"

	"trajmotif/internal/datagen"
	"trajmotif/internal/join"
	"trajmotif/internal/knn"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// BenchmarkRetrieval measures the two served retrieval queries at layer
// level over a 2000-trajectory, 100-point registry (the shape of
// servebench's retrieval workload): a k = 5 nearest-neighbour search for
// one stored trajectory against the other 1999, and a 500 m similarity
// join over a 100-trajectory window. Both take their boxes from
// store.IndexFor, as /knn and /join do, and the index build is timed.
// Each reports its effort counters per op next to pruned/op: knn's exact
// and abandoned verifications and projection fallbacks, and join's
// reported pairs and fallbacks.
func BenchmarkRetrieval(b *testing.B) {
	const n, points = 2000, 100
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
		q, dsIDs, ds := ts[0], ids[1:], ts[1:]
		var kst knn.Stats
		for i := 0; i < b.N; i++ {
			var err error
			if _, kst, err = knn.Nearest(q, ds, 5, &knn.Options{Index: st.IndexFor(dsIDs, ds)}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(kst.IndexPruned), "pruned/op")
		b.ReportMetric(float64(kst.Exact), "exact/op")
		b.ReportMetric(float64(kst.AbandonedEarly), "abandoned/op")
		b.ReportMetric(float64(kst.ProjectionFallbacks), "fallbacks/op")
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
