package dist

import (
	"trajmotif/internal/dmatrix"
	"trajmotif/internal/geo"
)

// GreedyWithin exposes the decision kernel's greedy certificate to the
// external fuzz test, oriented the way DFDDecision orients its input.
func GreedyWithin(a, b []geo.Point, df geo.DistanceFunc, eps float64) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	return greedyWithin(dmatrix.NewFlyCross(a, b, df), len(a), len(b), eps)
}
