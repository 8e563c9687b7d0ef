package store

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"trajmotif/internal/core"
	"trajmotif/internal/datagen"
	"trajmotif/internal/traj"
)

// evictFixture returns a small deterministic trajectory per seed.
func evictFixture(t *testing.T, seed int64) *traj.Trajectory {
	t.Helper()
	tr, err := datagen.Dataset(datagen.TruckName, datagen.Config{Seed: seed, N: 30})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// fakeClock is an injectable, manually-advanced clock for the TTL tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// warm routes one artifact request through the store so the cache holds
// the trajectory's self grid (eviction must purge it).
func warm(t *testing.T, s *Store, tr *traj.Trajectory) {
	t.Helper()
	g, _, _ := s.Artifacts(core.ArtifactRequest{A: tr.Points, Self: true, Dist: s.Dist(), Workers: 1})
	if g == nil {
		t.Fatal("warm: no grid")
	}
}

// TestMaxTrajectoriesLRU: adding beyond the cap evicts the
// least-recently-touched trajectory, and a Get refreshes recency so hot
// entries survive.
func TestMaxTrajectoriesLRU(t *testing.T) {
	s := New(&Options{MaxTrajectories: 2})
	a := evictFixture(t, 1)
	b := evictFixture(t, 2)
	c := evictFixture(t, 3)

	idA, _, _ := s.Add(a)
	idB, _, _ := s.Add(b)
	warm(t, s, a)

	// Touch A so B is the LRU victim when C arrives.
	if _, ok := s.Get(idA); !ok {
		t.Fatal("A vanished before the cap was hit")
	}
	idC, _, _ := s.Add(c)

	if _, ok := s.Get(idB); ok {
		t.Error("LRU victim B still registered")
	}
	if _, ok := s.Get(idA); !ok {
		t.Error("touched trajectory A was evicted")
	}
	if _, ok := s.Get(idC); !ok {
		t.Error("newest trajectory C was evicted")
	}
	st := s.Stats()
	if st.Trajectories != 2 || st.EvictedLRU != 1 || st.Removed != 0 || st.EvictedTTL != 0 {
		t.Errorf("stats after cap eviction: %+v", st)
	}
	if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
		t.Errorf("MBR cache inconsistent after eviction: missing=%v stale=%d", missing, stale)
	}
}

// TestLRUEvictionPurgesArtifacts: a capacity eviction drops the victim's
// cached grids exactly like Remove — re-adding and querying rebuilds
// from scratch, it never serves a stale artifact silently.
func TestLRUEvictionPurgesArtifacts(t *testing.T) {
	s := New(&Options{MaxTrajectories: 1})
	a := evictFixture(t, 4)
	b := evictFixture(t, 5)

	s.Add(a)
	warm(t, s, a)
	if st := s.Stats(); st.Artifacts != 1 {
		t.Fatalf("warm cached %d artifacts, want 1", st.Artifacts)
	}
	s.Add(b) // evicts a and must purge its grid
	st := s.Stats()
	if st.Artifacts != 0 {
		t.Errorf("victim's artifacts survived eviction: %d resident", st.Artifacts)
	}
	if st.Evicted != 1 || st.EvictedLRU != 1 {
		t.Errorf("eviction counters: %+v", st)
	}
}

// TestTrajectoryTTL: entries idle past the TTL are swept on any registry
// access; a touch restarts the clock.
func TestTrajectoryTTL(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	s := New(&Options{TrajectoryTTL: time.Minute})
	s.clock = clk.Now

	a := evictFixture(t, 6)
	b := evictFixture(t, 7)
	idA, _, _ := s.Add(a)
	idB, _, _ := s.Add(b)
	warm(t, s, a)

	// Half a TTL later, touch A only.
	clk.Advance(30 * time.Second)
	if _, ok := s.Get(idA); !ok {
		t.Fatal("A expired early")
	}

	// 31s more: B (idle 61s) expires, A (idle 31s) lives.
	clk.Advance(31 * time.Second)
	if n := s.sweepExpired(); n != 1 {
		t.Fatalf("after sweep %d trajectories remain, want 1", n)
	}
	if _, ok := s.Get(idB); ok {
		t.Error("idle trajectory B survived its TTL")
	}
	if _, ok := s.Get(idA); !ok {
		t.Error("touched trajectory A expired")
	}
	st := s.Stats()
	if st.EvictedTTL != 1 || st.EvictedLRU != 0 || st.Removed != 0 {
		t.Errorf("TTL counters: %+v", st)
	}

	// Expiry is by-policy on every access path: IDs() excludes the dead.
	clk.Advance(2 * time.Minute)
	if ids := s.IDs(); len(ids) != 0 {
		t.Errorf("IDs() after full expiry: %v", ids)
	}
	if st := s.Stats(); st.Trajectories != 0 || st.EvictedTTL != 2 || st.Artifacts != 0 {
		t.Errorf("stats after full expiry: %+v", st)
	}
}

// TestAddTouchesExisting: re-adding identical content refreshes its
// recency instead of leaving the duplicate as the LRU victim.
func TestAddTouchesExisting(t *testing.T) {
	s := New(&Options{MaxTrajectories: 2})
	a := evictFixture(t, 8)
	b := evictFixture(t, 9)
	c := evictFixture(t, 10)

	idA, _, _ := s.Add(a)
	s.Add(b)
	if _, created, _ := s.Add(a); created {
		t.Fatal("re-add created a duplicate")
	}
	s.Add(c) // victim must be b, not the re-touched a
	if _, ok := s.Get(idA); !ok {
		t.Error("re-added trajectory was evicted as LRU")
	}
}

// TestEvictionChurnRace hammers Add/Get/Stats and the MBR-cache parity
// probe concurrently against a tightly capped, short-TTL store: the
// registry stays bounded, the MBR cache never disagrees with the registry, and the run is
// race-clean (CI executes this under -race).
func TestEvictionChurnRace(t *testing.T) {
	const cap = 4
	s := New(&Options{MaxTrajectories: cap, TrajectoryTTL: 50 * time.Millisecond})

	trs := make([]*traj.Trajectory, 12)
	ids := make([]ID, len(trs))
	for k := range trs {
		trs[k] = evictFixture(t, int64(100+k))
		ids[k] = hashTrajectory(trs[k])
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < 50; k++ {
				switch (w + k) % 3 {
				case 0:
					// 5k + w is coprime with the iteration stride, so every
					// worker cycles through all 12 fixtures, not a cap-sized
					// subset.
					if _, _, err := s.Add(trs[(w+5*k)%len(trs)]); err != nil {
						t.Errorf("add: %v", err)
					}
				case 1:
					s.Get(ids[(w*5+k)%len(ids)]) // hit or miss both fine mid-churn
				default:
					if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
						t.Errorf("parity broke mid-churn: missing=%v stale=%d", missing, stale)
					}
				}
				if n := s.Len(); n > cap {
					t.Errorf("registry grew to %d past the %d cap", n, cap)
				}
			}
		}(w)
	}
	wg.Wait()

	if n := s.Len(); n > cap {
		t.Fatalf("final registry size %d exceeds cap %d", n, cap)
	}
	if missing, stale := mbrParity(s); len(missing) != 0 || stale != 0 {
		t.Fatalf("final parity: missing=%v stale=%d", missing, stale)
	}
	st := s.Stats()
	if st.EvictedLRU == 0 {
		t.Error("churn produced no LRU evictions — cap never exercised")
	}
	fmt.Printf("eviction churn: %d LRU + %d TTL evictions, %d resident\n",
		st.EvictedLRU, st.EvictedTTL, st.Trajectories)
}

// TestEvictedThenReadded: eviction then identical re-add yields the same
// content ID with artifacts rebuilt on demand — and the rebuilt grid is
// served, not a stale one.
func TestEvictedThenReadded(t *testing.T) {
	s := New(&Options{MaxTrajectories: 1})
	a := evictFixture(t, 11)
	b := evictFixture(t, 12)

	idA1, _, _ := s.Add(a)
	warm(t, s, a)
	builtBefore := s.Stats().Built

	s.Add(b) // evicts a
	idA2, created, _ := s.Add(a)
	if idA2 != idA1 || !created {
		t.Fatalf("re-add after eviction: id %s vs %s, created=%v", idA2, idA1, created)
	}
	warm(t, s, a)
	if built := s.Stats().Built; built <= builtBefore {
		t.Errorf("re-warm after eviction reused a purged artifact (built %d -> %d)", builtBefore, built)
	}
}
