// Package cluster implements subtrajectory clustering under the discrete
// Fréchet distance — the second future-work operation named in the
// paper's §7 and the application domain of its references [3, 12]
// (commuting-pattern detection, GPU subtrajectory clustering).
//
// The algorithm is leader (sequential) clustering over sliding windows:
// the trajectory is cut into windows of L points with stride s; each
// window joins the first existing cluster whose representative lies
// within DFD radius eps (decided by the early-abandoning procedure from
// internal/join), or founds a new cluster. Leader clustering is a single
// pass, deterministic, and — because every membership test is a true DFD
// decision — every reported cluster is a set of subtrajectories pairwise
// within 2·eps of each other (triangle inequality through the
// representative; DFD is a metric).
package cluster

import (
	"fmt"
	"sort"

	"trajmotif/internal/geo"
	"trajmotif/internal/join"
	"trajmotif/internal/traj"
)

// Options tunes the clustering.
type Options struct {
	// Dist is the ground distance; nil selects haversine.
	Dist geo.DistanceFunc
	// Stride between window starts; 0 defaults to half the window.
	Stride int
	// MinSize drops clusters with fewer members from the output; 0
	// defaults to 2 (singletons are not patterns).
	MinSize int
}

func (o *Options) dist() geo.DistanceFunc {
	if o == nil || o.Dist == nil {
		return geo.Haversine
	}
	return o.Dist
}

// Cluster is a group of subtrajectory windows within eps of the
// representative.
type Cluster struct {
	// Representative is the founding window's span.
	Representative traj.Span
	// Members are the spans assigned to this cluster, including the
	// representative, in discovery order.
	Members []traj.Span
}

// Size returns the member count.
func (c Cluster) Size() int { return len(c.Members) }

// Windows enumerates the sliding-window spans used by Subtrajectories.
func Windows(n, window, stride int) []traj.Span {
	if window < 2 || stride < 1 {
		return nil
	}
	var out []traj.Span
	for s := 0; s+window-1 < n; s += stride {
		out = append(out, traj.Span{Start: s, End: s + window - 1})
	}
	return out
}

// Subtrajectories clusters the sliding windows of t. Windows of length
// window points are tested against cluster representatives under DFD
// radius eps. Clusters are returned largest first; ties broken by the
// representative's position.
func Subtrajectories(t *traj.Trajectory, window int, eps float64, opt *Options) ([]Cluster, error) {
	if t == nil || t.Len() < window {
		return nil, fmt.Errorf("cluster: trajectory shorter than window %d", window)
	}
	if window < 2 {
		return nil, fmt.Errorf("cluster: window must be at least 2 points, got %d", window)
	}
	if eps < 0 {
		return nil, fmt.Errorf("cluster: negative radius %g", eps)
	}
	stride := window / 2
	minSize := 2
	if opt != nil {
		if opt.Stride > 0 {
			stride = opt.Stride
		}
		if opt.MinSize > 0 {
			minSize = opt.MinSize
		}
	}
	df := opt.dist()
	// Every membership test starts with two endpoint distances between
	// points of t; under haversine their cos(lat) factors are hoisted
	// into one table (HaversinePrepared is bit-identical to Haversine).
	var cos []float64
	if geo.IsHaversine(df) {
		cos = geo.CosLats(t.Points)
	}
	endp := func(i, j int) float64 {
		if cos != nil {
			return geo.HaversinePrepared(t.Points[i], t.Points[j], cos[i], cos[j])
		}
		return df(t.Points[i], t.Points[j])
	}

	var clusters []Cluster
	for _, w := range Windows(t.Len(), window, stride) {
		pts := t.SubSpan(w)
		placed := false
		for k := range clusters {
			rep := t.SubSpan(clusters[k].Representative)
			// Cheap endpoint rejection before the DP decision.
			r := clusters[k].Representative
			if endp(w.Start, r.Start) > eps || endp(w.End, r.End) > eps {
				continue
			}
			if join.DFDWithin(pts, rep, df, eps) {
				clusters[k].Members = append(clusters[k].Members, w)
				placed = true
				break
			}
		}
		if !placed {
			clusters = append(clusters, Cluster{Representative: w, Members: []traj.Span{w}})
		}
	}

	var out []Cluster
	for _, c := range clusters {
		if c.Size() >= minSize {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(a, b int) bool {
		if out[a].Size() != out[b].Size() {
			return out[a].Size() > out[b].Size()
		}
		return out[a].Representative.Start < out[b].Representative.Start
	})
	return out, nil
}
