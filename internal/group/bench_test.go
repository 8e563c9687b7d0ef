package group

import (
	"testing"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// BenchmarkGroupWarm times warm GTM discovers the way a server answers
// them for a RAM-resident working set: six 600-point trajectories, two
// per dataset (GeoLife, truck, baboon), ξ = 20, τ = 32, one worker, with
// grids and point bounds memoized by a store so the artifact build stays
// out of the loop. One op searches all six; what remains is the grouping
// phase and the point-level sweep.
func BenchmarkGroupWarm(b *testing.B) {
	names := datagen.Names()
	var ts []*traj.Trajectory
	for i := 0; i < 6; i++ {
		t, err := datagen.Dataset(names[i%len(names)], datagen.Config{Seed: int64(1 + i), N: 600})
		if err != nil {
			b.Fatal(err)
		}
		ts = append(ts, t)
	}
	opt := &core.Options{Workers: 1, Artifacts: store.New(nil)}
	run := func() {
		for _, t := range ts {
			if _, err := GTM(t, 20, 32, opt); err != nil {
				b.Fatal(err)
			}
		}
	}
	run() // build and memoize every trajectory's artifacts
	b.ResetTimer()
	for range b.N {
		run()
	}
}
