package serve

import (
	"trajmotif/internal/core"
	"trajmotif/internal/geo"
	"trajmotif/internal/spatial"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// Backend is the state surface the HTTP layer serves from. *store.Store
// implements it directly; keeping handlers behind the interface lets a
// wrapper (such as a tracing shim) stand in for the store unchanged.
type Backend interface {
	core.ArtifactSource

	// Registry surface.
	Add(t *traj.Trajectory) (store.ID, bool, error)
	Get(id store.ID) (*traj.Trajectory, bool)
	Remove(id store.ID) bool
	Len() int
	IDs() []store.ID

	// Search support surface.
	Dist() geo.DistanceFunc
	IndexFor(ids []store.ID, ts []*traj.Trajectory) *spatial.Index
	EndpointDists(ts []*traj.Trajectory) func(i, j int) (d0, dn float64, ok bool)

	// Observability surface.
	Stats() store.Stats
}

var _ Backend = (*store.Store)(nil)
