// Package store implements the serve-mode trajectory store: a registry of
// trajectories keyed by content hash that memoizes the search artifacts
// the paper's algorithms precompute on every invocation — per-trajectory
// self-distance grids and relaxed bound tables, and per-pair cross grids
// — under one LRU cache with a byte-size budget.
//
// The store implements core.ArtifactSource, so any search handed a store
// through core.Options.Artifacts transparently skips grid construction
// when the artifacts are resident (ROADMAP: "distance-matrix
// caching/reuse" and the serve-mode prerequisite for the "millions of
// users" north star). Cached artifacts are bit-identical to a fresh
// computation — dmatrix's constructors are bit-identical for every
// worker count, and bound tables are pure functions of the grid — so
// cached and uncached searches return byte-identical results, spans,
// distance bits and effort counters alike (GridRebuildsAvoided, which
// counts the reuse itself, is the one deliberate exception).
package store

import (
	"container/list"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"reflect"
	"sync"
	"time"

	"trajmotif/internal/bounds"
	"trajmotif/internal/core"
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/traj"
)

// ID identifies a stored trajectory by content: the hex SHA-256 of its
// points and timestamps. Adding the same trajectory twice yields the
// same ID (and stores it once).
type ID string

// DefaultCacheBytes is the artifact-cache budget when Options.CacheBytes
// is zero: 256 MiB, roughly 160 self grids at n = 2000 points.
const DefaultCacheBytes = 256 << 20

// Options configures a store.
type Options struct {
	// Dist is the ground distance all cached artifacts are computed
	// under; nil selects geo.Haversine. A search routed through the
	// store with a different Options.Dist bypasses the cache (detected
	// by function identity plus probe evaluations; see distMatches)
	// rather than returning poisoned artifacts.
	Dist geo.DistanceFunc
	// CacheBytes budgets the artifact cache: least-recently-used
	// artifacts are evicted once the resident set exceeds it. Zero
	// selects DefaultCacheBytes; negative disables caching entirely
	// (every request computes, nothing is retained).
	CacheBytes int64
	// MaxTrajectories caps the registry itself: adding a trajectory
	// beyond the cap evicts the least-recently-used one (Add and Get
	// both count as use — "touch on query"), purging its cached
	// artifacts exactly like Remove. Zero or negative means unbounded.
	MaxTrajectories int
	// TrajectoryTTL expires registry entries that have not been touched
	// (added or queried) for the duration. Expired entries are swept on
	// every registry access — the check is O(1) when nothing expired —
	// and purge their artifacts like Remove. Zero or negative disables.
	TrajectoryTTL time.Duration
	// ArtifactDir enables the disk artifact tier: every grid and bound
	// table the store builds is also written (atomically, checksummed) to a
	// content-addressed file under this directory, cache misses promote
	// from disk before recomputing, and trajectory evictions purge disk
	// copies alongside RAM ones. Empty disables the tier. A directory
	// that cannot be created or scanned disables it too, counted in
	// Stats.DiskErrors — callers that must fail fast should validate the
	// path themselves (cmd/motifserve does). See disk.go for the format
	// and the crash-safety protocol.
	ArtifactDir string
}

// EvictCause discriminates why a trajectory left the registry, for the
// Stats eviction counters and the serve tier's metrics by cause.
type EvictCause uint8

const (
	// EvictManual is an explicit Remove (DELETE /trajectories/{id}).
	EvictManual EvictCause = iota
	// EvictLRU is a capacity eviction under Options.MaxTrajectories.
	EvictLRU
	// EvictTTL is an idle-expiry eviction under Options.TrajectoryTTL.
	EvictTTL
)

// Stats is a snapshot of the store's registry and cache state.
type Stats struct {
	// Trajectories currently registered.
	Trajectories int
	// Artifacts resident in the cache and their total byte footprint.
	// Both include /join's endpoint-pair memo entries (16 bytes each)
	// next to the grids and bound tables.
	Artifacts  int
	CacheBytes int64
	// CacheBudget is the configured byte budget (<= 0: caching off).
	CacheBudget int64
	// Built counts artifact constructions performed (cache misses plus
	// uncacheable requests); Reused counts constructions skipped because
	// the artifact was resident — the cross-request extension of
	// core.Stats.GridRebuildsAvoided. Evicted counts artifacts dropped
	// by the LRU budget or purged by Remove.
	Built, Reused, Evicted int64
	// Removed counts trajectories deleted from the registry via Remove.
	Removed int64
	// EvictedLRU and EvictedTTL count trajectories auto-evicted from the
	// registry by the MaxTrajectories cap and the TrajectoryTTL expiry
	// respectively (Removed covers the manual cause).
	EvictedLRU, EvictedTTL int64
	// PairDistsBuilt and PairDistsReused count endpoint-distance memo
	// misses and hits (EndpointDists, behind /join). A hit saves the two
	// endpoint ground-distance evaluations of the join's filter cascade.
	PairDistsBuilt, PairDistsReused int64
	// MaxTrajectories and TrajectoryTTL echo the configured policy
	// (zero: unbounded / no expiry).
	MaxTrajectories int
	TrajectoryTTL   time.Duration
	// DiskArtifacts and DiskBytes describe the disk artifact tier
	// (Options.ArtifactDir): files resident and their total size.
	// Zero when the tier is disabled.
	DiskArtifacts int
	DiskBytes     int64
	// DiskWrites counts artifacts spilled to disk, DiskReads artifacts
	// promoted from disk (each promotion also counts as a Reused —
	// that is what makes a warm restart's counters match a store that
	// never restarted), and DiskErrors failed writes plus corrupt or
	// torn files detected and removed on read (the self-heal path).
	DiskWrites, DiskReads, DiskErrors int64
}

// GridRebuildsAvoided returns the cumulative constructions skipped by
// reuse, mirroring the per-search counter's name.
func (s Stats) GridRebuildsAvoided() int64 { return s.Reused }

// artifactKind discriminates the cache key space.
type artifactKind uint8

const (
	kindSelfGrid artifactKind = iota
	kindCrossGrid
	kindSelfBounds
	kindCrossBounds
	// kindPairDists memoizes the two endpoint ground distances of a
	// trajectory pair (first-to-first, last-to-last) — the values the
	// join's filter cascade recomputes for every candidate pair. 16
	// bytes against the same budget as the grids, held in RAM only: the
	// disk tier has no file name for this kind.
	kindPairDists
)

// artifactKey identifies one memoized artifact. b is empty for self
// artifacts; xi is zero for grids (bound tables depend on it).
type artifactKey struct {
	kind artifactKind
	a, b ID
	xi   int
}

// entry is one cache resident.
type entry struct {
	key   artifactKey
	val   any
	bytes int64
	elem  *list.Element
}

// dataKey memoizes content hashes by slice identity: same backing array,
// start and length imply same content for the immutable slices the store
// sees. It lets repeated searches over the same trajectory skip
// re-hashing without risking collisions.
type dataKey struct {
	ptr *geo.Point
	n   int
}

// Store is a content-addressed trajectory registry with a memoizing
// artifact cache. It is safe for concurrent use; artifact construction
// happens outside the lock, so concurrent identical misses may compute
// the same artifact twice (one result is retained).
type Store struct {
	df      geo.DistanceFunc
	dfID    uintptr
	budget  int64
	maxTraj int
	ttl     time.Duration
	// clock is time.Now outside tests; the TTL suite injects a fake.
	clock func() time.Time

	mu       sync.Mutex
	trajs    map[ID]*traj.Trajectory
	order    []ID // insertion order, for deterministic listings
	hashMemo map[dataKey]ID

	// Registry recency list (front = most recently touched), driving
	// MaxTrajectories capacity evictions and TrajectoryTTL expiry.
	// Every registered id has exactly one element here.
	regLRU  *list.List
	regElem map[ID]*list.Element

	// MBR cache behind IndexFor, maintained under the same mutex as the
	// registry: trajectories are immutable, so a cached MBR is always
	// equal to spatial.Bound of its points.
	mbrs map[ID]spatial.MBR

	cache map[artifactKey]*entry
	lru   *list.List // front = most recently used
	bytes int64

	// disk is the artifact tier behind the LRU (nil: disabled). Its
	// index is guarded by mu; file I/O runs outside the lock except for
	// purges (see disk.go).
	disk *diskTier

	built, reused, evicted            int64
	removed                           int64
	evictedLRU, evictedTTL            int64
	pairsBuilt, pairsReused           int64
	diskWrites, diskReads, diskErrors int64
}

// regEntry is one registry-recency element: the id plus its last touch.
type regEntry struct {
	id   ID
	last time.Time
}

// New creates an empty store. opt may be nil for defaults (haversine,
// DefaultCacheBytes).
func New(opt *Options) *Store {
	df := geo.Haversine
	var budget int64 = DefaultCacheBytes
	maxTraj := 0
	var ttl time.Duration
	if opt != nil {
		if opt.Dist != nil {
			df = opt.Dist
		}
		if opt.CacheBytes > 0 {
			budget = opt.CacheBytes
		} else if opt.CacheBytes < 0 {
			budget = 0
		}
		if opt.MaxTrajectories > 0 {
			maxTraj = opt.MaxTrajectories
		}
		if opt.TrajectoryTTL > 0 {
			ttl = opt.TrajectoryTTL
		}
	}
	s := &Store{
		df:       df,
		dfID:     reflect.ValueOf(df).Pointer(),
		budget:   budget,
		maxTraj:  maxTraj,
		ttl:      ttl,
		clock:    time.Now,
		trajs:    make(map[ID]*traj.Trajectory),
		hashMemo: make(map[dataKey]ID),
		regLRU:   list.New(),
		regElem:  make(map[ID]*list.Element),
		mbrs:     make(map[ID]spatial.MBR),
		cache:    make(map[artifactKey]*entry),
		lru:      list.New(),
	}
	// The disk tier is pointless without a cache to promote into, so a
	// negative CacheBytes disables both.
	if opt != nil && opt.ArtifactDir != "" && budget > 0 {
		disk, healed, failed, err := newDiskTier(opt.ArtifactDir)
		if err != nil {
			s.diskErrors++
		} else {
			s.disk = disk
			s.diskErrors += healed + failed
		}
	}
	return s
}

// hashPoints returns the content ID of a point sequence. Artifact keys
// use it directly (grids depend only on points, never on timestamps).
func hashPoints(pts []geo.Point) ID {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pts {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.Lat))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Lng))
		h.Write(buf[:])
	}
	return ID(hex.EncodeToString(h.Sum(nil)))
}

// hashTrajectory extends hashPoints with the timestamps, so trajectories
// with equal geometry but different times get distinct registry IDs.
func hashTrajectory(t *traj.Trajectory) ID {
	if t.Times == nil {
		return hashPoints(t.Points)
	}
	h := sha256.New()
	var buf [16]byte
	for k, p := range t.Points {
		binary.LittleEndian.PutUint64(buf[:8], math.Float64bits(p.Lat))
		binary.LittleEndian.PutUint64(buf[8:], math.Float64bits(p.Lng))
		h.Write(buf[:])
		binary.LittleEndian.PutUint64(buf[:8], uint64(t.Times[k].UnixNano()))
		h.Write(buf[:8])
	}
	return ID(hex.EncodeToString(h.Sum(nil)))
}

// IDFor returns the registry content ID a trajectory would be stored
// under — the hash Add derives — without touching the store, so a
// client can name a trajectory before uploading it.
func IDFor(t *traj.Trajectory) ID { return hashTrajectory(t) }

// Add registers a trajectory and returns its content ID. created is
// false when an identical trajectory was already present (the existing
// copy is kept, so cached artifacts remain valid).
func (s *Store) Add(t *traj.Trajectory) (id ID, created bool, err error) {
	if t == nil || t.Len() == 0 {
		return "", false, fmt.Errorf("store: nil or empty trajectory")
	}
	id = hashTrajectory(t)
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	if _, ok := s.trajs[id]; ok {
		s.touchLocked(id)
		return id, false, nil
	}
	s.trajs[id] = t
	s.order = append(s.order, id)
	s.memoLocked(t.Points)
	s.mbrs[id] = spatial.Bound(t.Points)
	s.regElem[id] = s.regLRU.PushFront(&regEntry{id: id, last: s.clock()})
	// Capacity eviction: drop least-recently-touched entries until the
	// registry fits. The entry just added sits at the front, so with any
	// positive cap it is never its own victim.
	for s.maxTraj > 0 && len(s.trajs) > s.maxTraj {
		tail := s.regLRU.Back()
		if tail == nil || tail == s.regElem[id] {
			break
		}
		s.evictLocked(tail.Value.(*regEntry).id, EvictLRU)
	}
	return id, true, nil
}

// touchLocked refreshes an id's registry recency — Add and Get (the
// query paths resolve through Get) both count as use, so hot
// trajectories survive both the LRU cap and the TTL.
func (s *Store) touchLocked(id ID) {
	if e, ok := s.regElem[id]; ok {
		e.Value.(*regEntry).last = s.clock()
		s.regLRU.MoveToFront(e)
	}
}

// sweepLocked expires registry entries idle past TrajectoryTTL. Entries
// are checked from the recency tail, so the scan stops at the first
// live one — O(1) when nothing expired.
func (s *Store) sweepLocked() {
	if s.ttl <= 0 {
		return
	}
	deadline := s.clock().Add(-s.ttl)
	for {
		tail := s.regLRU.Back()
		if tail == nil {
			return
		}
		re := tail.Value.(*regEntry)
		if re.last.After(deadline) {
			return
		}
		s.evictLocked(re.id, EvictTTL)
	}
}

// sweepExpired applies the TTL policy immediately (it otherwise runs on
// every registry access) and reports how many trajectories currently
// remain.
func (s *Store) sweepExpired() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return len(s.trajs)
}

// memoLocked records the points→content-ID association for a slice the
// store owns (a registered trajectory). Only Add calls it: memoizing
// transient caller slices would pin their backing arrays outside the
// cache budget for the store's lifetime.
func (s *Store) memoLocked(pts []geo.Point) ID {
	k := dataKey{ptr: &pts[0], n: len(pts)}
	if id, ok := s.hashMemo[k]; ok {
		return id
	}
	id := hashPoints(pts)
	s.hashMemo[k] = id
	return id
}

// idForLocked resolves a point slice to its content ID: a memo hit for
// registered trajectories, a fresh hash (O(n), trivial next to the
// O(n²) grids it keys) for transient slices — which are deliberately not
// memoized, so the store never retains references to caller data.
func (s *Store) idForLocked(pts []geo.Point) ID {
	if id, ok := s.hashMemo[dataKey{ptr: &pts[0], n: len(pts)}]; ok {
		return id
	}
	return hashPoints(pts)
}

// Remove deletes a registered trajectory and purges every cached
// artifact derived from its geometry, returning whether the id was
// present. This is the eviction primitive long-running deployments need:
// the registry otherwise grows forever, and /knn and /join default their
// dataset to "everything stored", so a removed trajectory stops
// appearing in those defaults immediately. Searches already holding the
// trajectory are unaffected (trajectory data is immutable), and
// re-adding identical content later yields the same ID with artifacts
// rebuilt on demand. If another registered trajectory shares the exact
// geometry (same points, different timestamps), its artifacts are purged
// too — a cache miss on its next query, never a wrong answer.
func (s *Store) Remove(id ID) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.evictLocked(id, EvictManual)
}

// evictLocked deletes a registered trajectory and purges every cached
// artifact derived from its geometry — the one purge path behind
// Remove, the MaxTrajectories cap, and the TrajectoryTTL sweep, so
// automatic eviction can never leave the MBR cache or the artifact
// cache staler than a manual DELETE would.
func (s *Store) evictLocked(id ID, cause EvictCause) bool {
	t, ok := s.trajs[id]
	if !ok {
		return false
	}
	delete(s.trajs, id)
	for k, oid := range s.order {
		if oid == id {
			s.order = append(s.order[:k], s.order[k+1:]...)
			break
		}
	}
	if e, ok := s.regElem[id]; ok {
		s.regLRU.Remove(e)
		delete(s.regElem, id)
	}
	delete(s.mbrs, id)
	pid := s.idForLocked(t.Points)
	delete(s.hashMemo, dataKey{ptr: &t.Points[0], n: len(t.Points)})
	s.purgeArtifactsLocked(pid)
	switch cause {
	case EvictLRU:
		s.evictedLRU++
	case EvictTTL:
		s.evictedTTL++
	default:
		s.removed++
	}
	return true
}

// purgeArtifactsLocked drops every cached artifact — RAM and disk —
// derived from the geometry pid.
func (s *Store) purgeArtifactsLocked(pid ID) {
	for key, e := range s.cache {
		if key.a == pid || key.b == pid {
			s.lru.Remove(e.elem)
			delete(s.cache, key)
			s.bytes -= e.bytes
			s.evicted++
		}
	}
	s.diskPurgeLocked(pid)
}

// Get returns a registered trajectory, refreshing its recency ("touch
// on query"): resolving an id through Get protects it from the LRU cap
// and restarts its TTL. An entry already expired is gone before the
// lookup, so a TTL'd store never serves stale-by-policy data.
func (s *Store) Get(id ID) (*traj.Trajectory, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	t, ok := s.trajs[id]
	if ok {
		s.touchLocked(id)
	}
	return t, ok
}

// Len returns the number of registered trajectories (after the TTL
// sweep, like every registry accessor).
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return len(s.trajs)
}

// IDs lists the registered trajectories in insertion order. Expired
// entries are swept first, so the /knn and /join "everything stored"
// defaults never include a trajectory the TTL has retired.
func (s *Store) IDs() []ID {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	return append([]ID(nil), s.order...)
}

// Dist returns the ground distance the store's artifacts are computed
// under.
func (s *Store) Dist() geo.DistanceFunc { return s.df }

// IndexFor builds a position-keyed spatial index over a resolved dataset
// — the shape knn.Options.Index and join.Options.Index consume — reusing
// the registry's cached MBRs under one lock acquisition. ids and ts are
// parallel slices; entries that raced a Remove fall back to a pure
// recompute, so the returned index always describes exactly the
// trajectories the caller is about to search.
func (s *Store) IndexFor(ids []ID, ts []*traj.Trajectory) *spatial.Index {
	ix := spatial.NewIndex(&spatial.IndexOptions{Dist: s.df})
	s.mu.Lock()
	for k, t := range ts {
		mbr, ok := s.mbrs[ids[k]]
		if !ok {
			mbr = spatial.Bound(t.Points)
		}
		ix.Insert(k, mbr)
	}
	s.mu.Unlock()
	return ix
}

// Stats snapshots the registry and cache state (TTL-expired entries are
// swept first, so Trajectories reflects the policy).
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.sweepLocked()
	st := Stats{
		Trajectories:    len(s.trajs),
		Artifacts:       len(s.cache),
		CacheBytes:      s.bytes,
		CacheBudget:     s.budget,
		Built:           s.built,
		Reused:          s.reused,
		Evicted:         s.evicted,
		Removed:         s.removed,
		EvictedLRU:      s.evictedLRU,
		EvictedTTL:      s.evictedTTL,
		PairDistsBuilt:  s.pairsBuilt,
		PairDistsReused: s.pairsReused,
		MaxTrajectories: s.maxTraj,
		TrajectoryTTL:   s.ttl,
		DiskWrites:      s.diskWrites,
		DiskReads:       s.diskReads,
		DiskErrors:      s.diskErrors,
	}
	if s.disk != nil {
		st.DiskArtifacts = len(s.disk.index)
		st.DiskBytes = s.disk.bytes
	}
	return st
}

// Artifacts implements core.ArtifactSource: it serves the ground-distance
// grid (and, when requested, the relaxed bound tables) for the given
// point sequences from the cache, computing and inserting on a miss. A
// request under a different ground distance than the store's bypasses
// the cache entirely (correct, just uncached). A swapped cross pair is
// served by transposing the cached grid — cheaper than re-evaluating
// every ground distance — and the transpose is cached under its own key.
func (s *Store) Artifacts(req core.ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	if !s.distMatches(req) || s.budget <= 0 {
		return s.compute(req)
	}

	s.mu.Lock()
	aid := s.idForLocked(req.A)
	var bid ID
	if !req.Self {
		bid = s.idForLocked(req.B)
	}
	gk, bk := keysFor(req, aid, bid)

	reused := 0
	var g *dmatrix.Matrix
	var rb *bounds.Relaxed
	if e, ok := s.cache[gk]; ok {
		g = e.val.(*dmatrix.Matrix)
		s.lru.MoveToFront(e.elem)
		s.reused++
		reused++
	}
	if req.WithBounds {
		if e, ok := s.cache[bk]; ok {
			rb = e.val.(*bounds.Relaxed)
			s.lru.MoveToFront(e.elem)
			s.reused++
			reused++
		}
	}
	// Swapped-pair fallback: the (B, A) grid transposes into the (A, B)
	// grid without touching the ground distance.
	var swapped *dmatrix.Matrix
	if g == nil && !req.Self {
		if e, ok := s.cache[artifactKey{kind: kindCrossGrid, a: bid, b: aid}]; ok {
			swapped = e.val.(*dmatrix.Matrix)
			s.lru.MoveToFront(e.elem)
		}
	}
	// Note what the disk tier can supply for the RAM misses; the reads
	// themselves run outside the lock. (The swapped-pair transpose beats
	// a disk decode, so it keeps priority — it counts as a build either
	// way, so the choice never shows up in a counter.)
	diskGrid := g == nil && swapped == nil && s.diskHasLocked(gk)
	diskBounds := req.WithBounds && rb == nil && s.diskHasLocked(bk)
	s.mu.Unlock()

	// Promote from disk outside the lock. A read failure means the file
	// was torn or corrupt: readArtifact already deleted it (self-heal),
	// the index entry is dropped below, and the artifact is recomputed.
	promotedGrid, promotedBounds := false, false
	var diskFailed []artifactKey
	if diskGrid {
		if payload, err := s.disk.readArtifact(gk); err == nil {
			if m, derr := dmatrix.Unmarshal(payload); derr == nil {
				g, promotedGrid = m, true
			} else {
				s.disk.removeArtifact(gk)
				diskFailed = append(diskFailed, gk)
			}
		} else {
			diskFailed = append(diskFailed, gk)
		}
	}
	if diskBounds {
		if payload, err := s.disk.readArtifact(bk); err == nil {
			if b, derr := bounds.Unmarshal(payload); derr == nil {
				rb, promotedBounds = b, true
			} else {
				s.disk.removeArtifact(bk)
				diskFailed = append(diskFailed, bk)
			}
		} else {
			diskFailed = append(diskFailed, bk)
		}
	}

	// Build what is still missing outside the lock.
	builtGrid, builtBounds := false, false
	if g == nil {
		if swapped != nil {
			g = swapped.Transposed()
		} else if req.Self {
			g = dmatrix.ComputeSelfParallel(req.A, s.df, req.Workers)
		} else {
			g = dmatrix.ComputeCrossParallel(req.A, req.B, s.df, req.Workers)
		}
		builtGrid = true
	}
	if req.WithBounds && rb == nil {
		rb = bounds.NewRelaxed(g, bounds.PointParams(req.Xi, req.Self))
		builtBounds = true
	}

	// Write fresh builds through to disk before indexing them, so every
	// RAM resident has a disk copy and LRU eviction is demotion for
	// free. size < 0 marks a failed (or disabled-tier) spill.
	var spilledGrid, spilledBounds int64 = -1, -1
	if builtGrid {
		spilledGrid = s.spill(gk, g.Marshal())
	}
	if builtBounds {
		spilledBounds = s.spill(bk, rb.Marshal())
	}

	s.mu.Lock()
	for _, k := range diskFailed {
		s.diskDropLocked(k)
	}
	if promotedGrid {
		// A promotion is a construction skipped, exactly like a RAM hit
		// — that equivalence is the warm-restart parity argument.
		s.reused++
		reused++
		s.diskReads++
		s.insertLocked(gk, g, g.Bytes())
	}
	if promotedBounds {
		s.reused++
		reused++
		s.diskReads++
		s.insertLocked(bk, rb, rb.Bytes())
	}
	if builtGrid {
		s.built++
		s.insertLocked(gk, g, g.Bytes())
		if spilledGrid >= 0 {
			s.diskRecordLocked(gk, spilledGrid)
		} else if s.disk != nil {
			s.diskErrors++
		}
	}
	if builtBounds {
		s.built++
		s.insertLocked(bk, rb, rb.Bytes())
		if spilledBounds >= 0 {
			s.diskRecordLocked(bk, spilledBounds)
		} else if s.disk != nil {
			s.diskErrors++
		}
	}
	s.mu.Unlock()
	return g, rb, reused
}

// EndpointDists returns a memoizing supplier of per-pair endpoint ground
// distances in the shape join.Options.EndpointDists consumes: given
// positions i, j into ts it returns df(a[0], b[0]) and
// df(a[n-1], b[m-1]), serving repeats from the RAM cache under the
// point-content pair key — the same key space evictLocked purges, in
// canonical ID order (the ground distance is symmetric, so both
// orientations share one entry). Entries are never written to the disk
// tier. Cached values are the exact float64s direct evaluation
// produces, so join results and counters are byte-identical with or
// without the memo. Returns nil when caching is disabled.
func (s *Store) EndpointDists(ts []*traj.Trajectory) func(i, j int) (d0, dn float64, ok bool) {
	if s.budget <= 0 {
		return nil
	}
	return func(i, j int) (float64, float64, bool) {
		s.mu.Lock()
		aid := s.idForLocked(ts[i].Points)
		bid := s.idForLocked(ts[j].Points)
		if bid < aid {
			aid, bid = bid, aid
		}
		k := artifactKey{kind: kindPairDists, a: aid, b: bid}
		if e, ok := s.cache[k]; ok {
			d := e.val.([2]float64)
			s.lru.MoveToFront(e.elem)
			s.pairsReused++
			s.mu.Unlock()
			return d[0], d[1], true
		}
		s.mu.Unlock()
		a, b := ts[i].Points, ts[j].Points
		d0 := s.df(a[0], b[0])
		dn := s.df(a[len(a)-1], b[len(b)-1])
		s.mu.Lock()
		s.pairsBuilt++
		s.insertLocked(k, [2]float64{d0, dn}, 16)
		s.mu.Unlock()
		return d0, dn, true
	}
}

// distMatches reports whether the request's ground distance is the
// store's. Function values cannot be compared in Go, so this is a
// two-stage heuristic: the code pointers must match, and because
// closures created from one function literal share a code pointer
// (different captures, same code), the two functions must also agree
// bit-for-bit on probe pairs drawn from the request's own points. A
// function passing both stages and still differing somewhere else is
// deliberately pathological; top-level functions like geo.Haversine are
// identified exactly.
func (s *Store) distMatches(req core.ArtifactRequest) bool {
	if reflect.ValueOf(req.Dist).Pointer() != s.dfID {
		return false
	}
	probe := func(p, q geo.Point) bool { return req.Dist(p, q) == s.df(p, q) }
	a := req.A
	if !probe(a[0], a[len(a)-1]) {
		return false
	}
	if len(a) > 2 && !probe(a[1], a[len(a)/2]) {
		return false
	}
	return true
}

// compute builds the requested artifacts without touching the cache (the
// distance-function-mismatch and caching-disabled paths), delegating to
// core's default always-compute source so the bypass path can never
// diverge from the uncached construction recipe.
func (s *Store) compute(req core.ArtifactRequest) (*dmatrix.Matrix, *bounds.Relaxed, int) {
	g, rb, _ := core.ResolveArtifacts(nil).Artifacts(req)
	s.mu.Lock()
	s.built++
	if req.WithBounds {
		s.built++
	}
	s.mu.Unlock()
	return g, rb, 0
}

func keysFor(req core.ArtifactRequest, aid, bid ID) (grid, bnds artifactKey) {
	if req.Self {
		return artifactKey{kind: kindSelfGrid, a: aid},
			artifactKey{kind: kindSelfBounds, a: aid, xi: req.Xi}
	}
	return artifactKey{kind: kindCrossGrid, a: aid, b: bid},
		artifactKey{kind: kindCrossBounds, a: aid, b: bid, xi: req.Xi}
}

// insertLocked adds an artifact and evicts from the LRU tail until the
// resident set fits the budget. An artifact larger than the whole budget
// is not cached at all (inserting it would evict everything for nothing).
func (s *Store) insertLocked(k artifactKey, val any, bytes int64) {
	if bytes > s.budget {
		return
	}
	if e, ok := s.cache[k]; ok {
		// A concurrent identical miss beat us to the insert; keep the
		// resident value (both are bit-identical).
		s.lru.MoveToFront(e.elem)
		return
	}
	e := &entry{key: k, val: val, bytes: bytes}
	e.elem = s.lru.PushFront(e)
	s.cache[k] = e
	s.bytes += bytes
	for s.bytes > s.budget {
		tail := s.lru.Back()
		if tail == nil || tail == e.elem {
			break
		}
		victim := tail.Value.(*entry)
		s.lru.Remove(tail)
		delete(s.cache, victim.key)
		s.bytes -= victim.bytes
		s.evicted++
	}
}
