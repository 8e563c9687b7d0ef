package dist

import (
	"fmt"
	"math"

	"trajmotif/internal/geo"
)

// DFD returns the discrete Fréchet distance between point sequences a and
// b under the ground distance df, in df's unit.
//
// DFD is the bottleneck cost of the cheapest order-preserving coupling:
// both sequences are traversed front to back, each step advancing one or
// both cursors, and the cost of a traversal is the largest ground distance
// between paired points; DFD minimizes that cost over all traversals
// (Eiter & Mannila 1994). The recurrence is
//
//	dp[i][j] = max(df(a[i], b[j]), min(dp[i-1][j], dp[i][j-1], dp[i-1][j-1]))
//
// computed by the canonical kernel (kernel.go) with two rolling rows over
// the shorter sequence, each ground row filled just before it is relaxed,
// so the cost is O(n·m) time and O(min(n,m)) working space (§5.5,
// Idea ii).
//
// Two empty sequences are at distance 0; an empty sequence is infinitely
// far from a non-empty one (no coupling exists).
func DFD(a, b []geo.Point, df geo.DistanceFunc) float64 {
	d, _ := DFDCapped(a, b, df, math.Inf(1))
	return d
}

// DFDMatrix returns the full len(a)×len(b) dynamic-programming table of
// the discrete Fréchet recurrence; the distance itself is the final cell
// dp[len(a)-1][len(b)-1]. Callers that only need the distance should use
// DFD, which runs the identical recurrence in O(min(n,m)) space; the full
// table exists for inspecting intermediate couplings and for the
// space-ablation benchmarks. Returns nil if either sequence is empty.
func DFDMatrix(a, b []geo.Point, df geo.DistanceFunc) [][]float64 {
	if len(a) == 0 || len(b) == 0 {
		return nil
	}
	dp := make([][]float64, len(a))
	for i := range dp {
		dp[i] = make([]float64, len(b))
	}
	dp[0][0] = df(a[0], b[0])
	for j := 1; j < len(b); j++ {
		dp[0][j] = math.Max(dp[0][j-1], df(a[0], b[j]))
	}
	for i := 1; i < len(a); i++ {
		dp[i][0] = math.Max(dp[i-1][0], df(a[i], b[0]))
		for j := 1; j < len(b); j++ {
			reach := math.Min(dp[i-1][j], math.Min(dp[i][j-1], dp[i-1][j-1]))
			dp[i][j] = math.Max(reach, df(a[i], b[j]))
		}
	}
	return dp
}

// DTW returns the dynamic time warping distance between a and b under df:
// the minimal sum of ground distances over all order-preserving couplings.
// Unlike DFD's bottleneck objective, DTW accumulates a cost for every
// matched pair, which is why an oversampled segment inflates it (paper
// Figure 3) — each extra sample adds another term to the sum. O(n·m) time,
// O(min(n,m)) space.
//
// Two empty sequences are at distance 0; an empty sequence is infinitely
// far from a non-empty one.
func DTW(a, b []geo.Point, df geo.DistanceFunc) float64 {
	if len(a) == 0 || len(b) == 0 {
		if len(a) == len(b) {
			return 0
		}
		return math.Inf(1)
	}
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	prev := make([]float64, m)
	cur := make([]float64, m)

	prev[0] = df(a[0], b[0])
	for j := 1; j < m; j++ {
		prev[j] = prev[j-1] + df(a[0], b[j])
	}
	for i := 1; i < len(a); i++ {
		cur[0] = prev[0] + df(a[i], b[0])
		for j := 1; j < m; j++ {
			reach := math.Min(prev[j], math.Min(cur[j-1], prev[j-1]))
			cur[j] = reach + df(a[i], b[j])
		}
		prev, cur = cur, prev
	}
	return prev[m-1]
}

// ED returns the lock-step Euclidean-style distance between two
// equal-length sequences: the mean ground distance between positionally
// paired points, in df's unit. It errors when the lengths differ — the
// measure has no alignment freedom, which is exactly the fragility Table 1
// records: it cannot compare sequences sampled at different rates, and a
// single stall misaligns every subsequent pair. Two empty sequences are at
// distance 0.
func ED(a, b []geo.Point, df geo.DistanceFunc) (float64, error) {
	if len(a) != len(b) {
		return 0, fmt.Errorf("dist: ED requires equal-length sequences, got %d and %d points", len(a), len(b))
	}
	if len(a) == 0 {
		return 0, nil
	}
	sum := 0.0
	for i := range a {
		sum += df(a[i], b[i])
	}
	return sum / float64(len(a)), nil
}

// EDR returns the edit distance on real sequences (Chen, Özsu & Oria
// 2005) between a and b: the minimal number of insert, delete and
// substitute operations turning one sequence into the other, where two
// points match for free when their ground distance is at most eps. It is
// Levenshtein distance with the eps-ball as the character-equality test.
// The result lies in [|len(a)-len(b)|, max(len(a), len(b))]. O(n·m) time,
// O(min(n,m)) space.
func EDR(a, b []geo.Point, df geo.DistanceFunc, eps float64) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for j := 0; j <= m; j++ {
		prev[j] = j
	}
	for i := 1; i <= len(a); i++ {
		cur[0] = i
		for j := 1; j <= m; j++ {
			sub := prev[j-1]
			if df(a[i-1], b[j-1]) > eps {
				sub++
			}
			cur[j] = min(sub, min(prev[j]+1, cur[j-1]+1))
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// LCSS returns the length of the longest common subsequence of a and b,
// where two points are considered equal when their ground distance is at
// most eps (Vlachos, Kollios & Gunopulos 2002). The result is a
// similarity in [0, min(len(a), len(b))] — larger is more alike. Because
// it is a raw match count, densely sampled near-misses outscore exact but
// thinly sampled twins (Table 1's non-uniform-sampling failure); use
// LCSSDistance for the normalized dissimilarity. O(n·m) time, O(min(n,m))
// space.
func LCSS(a, b []geo.Point, df geo.DistanceFunc, eps float64) int {
	if len(b) > len(a) {
		a, b = b, a
	}
	m := len(b)
	prev := make([]int, m+1)
	cur := make([]int, m+1)
	for i := 1; i <= len(a); i++ {
		for j := 1; j <= m; j++ {
			if df(a[i-1], b[j-1]) <= eps {
				cur[j] = prev[j-1] + 1
			} else {
				cur[j] = max(prev[j], cur[j-1])
			}
		}
		prev, cur = cur, prev
	}
	return prev[m]
}

// LCSSDistance returns the normalized LCSS dissimilarity
// 1 − LCSS(a, b)/min(len(a), len(b)), in [0, 1]: 0 when the shorter
// sequence matches entirely inside the longer, 1 when nothing matches.
// Two empty sequences are at distance 0; one empty sequence is at the
// maximal distance 1 from a non-empty one.
func LCSSDistance(a, b []geo.Point, df geo.DistanceFunc, eps float64) float64 {
	n := min(len(a), len(b))
	if n == 0 {
		if len(a) == len(b) {
			return 0
		}
		return 1
	}
	return 1 - float64(LCSS(a, b, df, eps))/float64(n)
}
