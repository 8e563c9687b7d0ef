package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"

	"trajmotif/internal/datagen"
	"trajmotif/internal/geo"
	"trajmotif/internal/store"
	"trajmotif/internal/traj"
)

// Input sizes, fixed for every workload and seed.
const (
	discoverPoints = 600
	discoverXi     = 20
	discoverTau    = 32
	// workingSet is the discover-warm and disk-warm working set.
	workingSet = 30
	// coldPool is how many never-searched trajectories discover-cold
	// loads: more than two clients complete in a run on the reference
	// machine, so no timed request repeats one.
	coldPool = 1500

	registrySize   = 2000
	registryPoints = 100
	knnK           = 5
	knnQueries     = 512
	joinEps        = 500.0
	joinWindow     = 100
	joinWindows    = 8
)

// kind is a request type of the schedules.
type kind int

const (
	kDiscover kind = iota
	kKNN
	kJoin
	kUpload
	kDelete
)

func (k kind) String() string {
	return [...]string{"discover", "knn", "join", "upload", "delete"}[k]
}

// request is one scheduled HTTP call; arg indexes the input it is about
// (the trajectory, the query, the join window or the written trajectory),
// which is also the answer oracle's key.
type request struct {
	kind   kind
	method string
	path   string
	body   []byte
	arg    int
}

// plan is everything one workload sends, fixed from the seed before any
// server starts.
type plan struct {
	// registry is bulk-loaded at setup, in this order; ids are the
	// content ids the server must assign.
	registry []*traj.Trajectory
	ids      []store.ID
	bulk     []byte
	// warm is sent once after the bulk load, untimed, split over the
	// two clients (so both keep-alive connections are open).
	warm []request
	// restart: setup stops the first server (snapshotting it) and
	// serves the timed window from a second one on the same artifact
	// directory with restartArgs.
	restart     bool
	serverArgs  []string
	restartArgs []string
	clients     [2][]request
	// retrieval inputs: knn queries (registry indexes), join windows
	// (registry index ranges) and the trajectories written.
	queries []int
	windows [][2]int
	writes  []*traj.Trajectory
	wids    []store.ID
}

// seedFor derives a datagen seed for the i-th trajectory of a stream.
func seedFor(base int64, stream, i int) int64 {
	x := uint64(base)*0x9e3779b97f4a7c15 + uint64(stream)<<32 + uint64(i)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// generate makes one untimed trajectory of the dataset, shifted by
// (dlat, dlng) degrees.
func generate(name datagen.Name, seed int64, n int, dlat, dlng float64) *traj.Trajectory {
	t, err := datagen.Dataset(name, datagen.Config{Seed: seed, N: n})
	if err != nil {
		panic(err) // names come from datagen.Names
	}
	pts := make([]geo.Point, len(t.Points))
	for k, p := range t.Points {
		pts[k] = geo.Point{Lat: p.Lat + dlat, Lng: p.Lng + dlng}
	}
	return traj.FromPoints(pts)
}

// catalogue is the fixed base seed of the trajectories the discover
// workloads search. The cost of one 600-point discover varies threefold
// between trajectories of one dataset, so a per-seed draw of the few
// hundred a run searches would put the draw, not the server, into the
// run-to-run spread (README). The run's seed still moves every
// trajectory and orders the requests.
const catalogue = 1

func newPlan(workload string, seed int64) (*plan, error) {
	r := rand.New(rand.NewSource(seed))
	// Every run shifts its inputs by a seeded offset, so ids, grids and
	// artifact files are new in every run.
	dlat, dlng := (r.Float64()-0.5)*0.2, (r.Float64()-0.5)*0.2
	names := datagen.Names()
	p := &plan{}
	// discoverSet registers the first n trajectories of the catalogue.
	discoverSet := func(n int) {
		for i := 0; i < n; i++ {
			p.registry = append(p.registry, generate(names[i%3], seedFor(catalogue, 0, i), discoverPoints, dlat, dlng))
		}
	}
	switch workload {
	case "discover-cold":
		discoverSet(coldPool)
		// Client c takes pool entries c, c+2, ...: no trajectory is
		// searched twice.
		for i := range p.registry {
			p.clients[i%2] = append(p.clients[i%2], discoverReq(i))
		}
	case "discover-warm", "disk-warm":
		discoverSet(workingSet)
		for i := range p.registry {
			p.warm = append(p.warm, discoverReq(i))
		}
		// Both clients cycle over the whole working set, each in its own
		// seeded order.
		const rounds = 5000
		for c := range p.clients {
			order := r.Perm(workingSet)
			for k := 0; k < rounds; k++ {
				p.clients[c] = append(p.clients[c], discoverReq(order[k%workingSet]))
			}
		}
		if workload == "disk-warm" {
			p.restart = true
			p.serverArgs = []string{"-snapshot-on-shutdown"}
			// A cache smaller than one bound table keeps nothing it
			// promotes, so every discover reads its grid and bounds
			// from disk however the two clients interleave.
			p.restartArgs = []string{"-cache-bytes", "4096"}
		}
	case "retrieval":
		for i := 0; i < registrySize; i++ {
			p.registry = append(p.registry, generate(names[i%3], seedFor(seed, 1, i), registryPoints, dlat, dlng))
		}
		p.queries = r.Perm(registrySize)[:knnQueries]
		for w := 0; w < joinWindows; w++ {
			lo := r.Intn(registrySize - joinWindow)
			p.windows = append(p.windows, [2]int{lo, lo + joinWindow})
		}
		for w := range p.windows {
			p.warm = append(p.warm, joinReq(w))
		}
		const blocks = 400
		for c := range p.clients {
			for b := 0; b < blocks; b++ {
				// Written trajectories are moved 45° south and 70° west,
				// thousands of kilometres from every query, so no knn or
				// join answer depends on when a write lands.
				wi := len(p.writes)
				p.writes = append(p.writes, generate(names[wi%3], seedFor(seed, 2, wi), registryPoints, dlat-45, dlng-70))
				block := make([]request, 0, 10)
				for k := 0; k < 7; k++ {
					block = append(block, knnReq(r.Intn(knnQueries)))
				}
				block = append(block, joinReq(r.Intn(joinWindows)))
				r.Shuffle(len(block), func(i, j int) { block[i], block[j] = block[j], block[i] })
				// The upload goes somewhere in the first half of the
				// block and its delete somewhere in the second.
				up, del := r.Intn(5), 5+r.Intn(4)
				block = insert(block, up, uploadReq(wi))
				block = insert(block, del+1, deleteReq(wi))
				p.clients[c] = append(p.clients[c], block...)
			}
		}
		for _, t := range p.writes {
			p.wids = append(p.wids, store.IDFor(t))
		}
	default:
		return nil, fmt.Errorf("unknown workload %q", workload)
	}
	var bulk bytes.Buffer
	enc := json.NewEncoder(&bulk)
	for _, t := range p.registry {
		p.ids = append(p.ids, store.IDFor(t))
		if err := enc.Encode(pointsBody(t)); err != nil {
			return nil, err
		}
	}
	p.bulk = bulk.Bytes()
	// Requests built before the ids existed refer to them by index.
	for c := range p.clients {
		for k := range p.clients[c] {
			p.clients[c][k].finish(p)
		}
	}
	for k := range p.warm {
		p.warm[k].finish(p)
	}
	return p, nil
}

func insert(rs []request, at int, r request) []request {
	rs = append(rs, request{})
	copy(rs[at+1:], rs[at:])
	rs[at] = r
	return rs
}

type pointsJSON struct {
	Points [][2]float64 `json:"points"`
}

func pointsBody(t *traj.Trajectory) pointsJSON {
	out := pointsJSON{Points: make([][2]float64, len(t.Points))}
	for k, pt := range t.Points {
		out.Points[k] = [2]float64{pt.Lat, pt.Lng}
	}
	return out
}

func discoverReq(i int) request {
	return request{kind: kDiscover, method: "POST", path: "/discover", arg: i}
}
func knnReq(q int) request  { return request{kind: kKNN, method: "POST", path: "/knn", arg: q} }
func joinReq(w int) request { return request{kind: kJoin, method: "POST", path: "/join", arg: w} }
func uploadReq(w int) request {
	return request{kind: kUpload, method: "POST", path: "/trajectories", arg: w}
}
func deleteReq(w int) request { return request{kind: kDelete, method: "DELETE", arg: w} }

// finish renders the request body (and the delete path) from the plan.
func (rq *request) finish(p *plan) {
	var v any
	switch rq.kind {
	case kDiscover:
		v = map[string]any{"id": p.ids[rq.arg], "xi": discoverXi, "tau": discoverTau}
	case kKNN:
		v = map[string]any{"query": p.ids[p.queries[rq.arg]], "k": knnK}
	case kJoin:
		w := p.windows[rq.arg]
		v = map[string]any{"ids": p.ids[w[0]:w[1]], "eps": joinEps}
	case kUpload:
		v = pointsBody(p.writes[rq.arg])
	case kDelete:
		rq.path = "/trajectories/" + string(p.wids[rq.arg])
		return
	}
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // plain maps and slices always marshal
	}
	rq.body = b
}
