// Package cbir implements the content-based image retrieval pipeline of
// the case study (paper §IV): offline k-means clustering of the feature
// database, the IVF (inverted-file) index, batched shortlist retrieval via
// the Eq. 1 decomposition, candidate gathering, KNN rerank via Eq. 2, and
// recall evaluation against exhaustive search.
package cbir

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sync"

	"repro/internal/kernels"
)

// KMeansResult holds the offline clustering output.
type KMeansResult struct {
	Centroids     *kernels.Matrix // K × D
	Assign        []int           // N, cluster per point
	Iterations    int             // iterations actually run
	Moved         int             // points that changed cluster in the last iteration
	DistanceEvals int64           // squared-L2 evaluations in the assignment steps
}

// KMeans runs Lloyd's algorithm with k-means++ style seeding (first centre
// uniform, subsequent centres from distinct random points) for at most
// maxIters iterations, stopping early on convergence. Deterministic for a
// given seed.
//
// The assignment step is Yinyang k-means (Ding et al., ICML 2015): it
// skips centroid groups that triangle-inequality bounds prove too far, and
// its result is bit-identical to scanning every centroid with
// kernels.SquaredL2 and keeping the lowest index among equal minima
// (DESIGN.md §6). It splits the points of an input of at least 2,048
// over up to GOMAXPROCS goroutines, and the result does not depend on the
// split. Input with a NaN or ±Inf value is rejected.
func KMeans(data *kernels.Matrix, k, maxIters int, seed int64) (*KMeansResult, error) {
	n, d := data.Rows, data.Cols
	if k <= 0 || k > n {
		return nil, fmt.Errorf("cbir: kmeans k=%d invalid for n=%d", k, n)
	}
	if maxIters <= 0 {
		return nil, fmt.Errorf("cbir: kmeans needs maxIters >= 1")
	}
	if err := checkFinite(data); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(seed))

	// Seed centroids from distinct points.
	centroids := kernels.NewMatrix(k, d)
	perm := rng.Perm(n)
	for c := 0; c < k; c++ {
		copy(centroids.Row(c), data.Row(perm[c]))
	}

	assign := make([]int, n)
	for i := range assign {
		assign[i] = -1
	}
	counts := make([]int, k)
	res := &KMeansResult{Centroids: centroids, Assign: assign}
	y, err := newYinyang(data, centroids, seed)
	if err != nil {
		return nil, err
	}

	for iter := 0; iter < maxIters; iter++ {
		moved, evals := y.assignStep(assign)
		res.DistanceEvals += evals
		res.Iterations = iter + 1
		res.Moved = moved
		if moved == 0 {
			break
		}
		// Update step.
		copy(y.prev.Data, centroids.Data)
		for i := range centroids.Data {
			centroids.Data[i] = 0
		}
		for c := range counts {
			counts[c] = 0
		}
		for i := 0; i < n; i++ {
			c := assign[i]
			counts[c]++
			crow := centroids.Row(c)
			drow := data.Row(i)
			for j := range crow {
				crow[j] += drow[j]
			}
		}
		for c := 0; c < k; c++ {
			if counts[c] == 0 {
				// Re-seed an empty cluster from a random point.
				copy(centroids.Row(c), data.Row(rng.Intn(n)))
				continue
			}
			inv := 1 / float32(counts[c])
			crow := centroids.Row(c)
			for j := range crow {
				crow[j] *= inv
			}
		}
		y.measureDrift()
		y.loadLanes()
	}
	return res, nil
}

// checkFinite rejects a matrix holding a NaN or ±Inf value, naming the
// first row that does.
func checkFinite(m *kernels.Matrix) error {
	for i := 0; i < m.Rows; i++ {
		for _, v := range m.Row(i) {
			if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
				return fmt.Errorf("cbir: row %d has non-finite value %v", i, v)
			}
		}
	}
	return nil
}

// yinyang is the assignment step of KMeans. Every point keeps an upper
// bound ub on the Euclidean distance to its assigned centroid and, per
// centroid group, a lower bound lb on the distance to every other centroid
// of the group. Both are relaxed by the centroid drift after each update
// and stored as float32 rounded toward the safe side. A group is scanned
// only when lb ≤ slope·ub + offset; slope and offset absorb the rounding
// error of the float32 distances, so a skipped centroid's computed
// distance is strictly greater than the assigned one's.
type yinyang struct {
	data, centroids *kernels.Matrix
	prev            *kernels.Matrix // centroids before the last update
	groupOf         []int           // k: group of each centroid
	members         []int           // k: centroid indices, grouped, ascending within a group
	start           []int           // t+1: group g is members[start[g]:start[g+1]]
	ub              []float32       // n
	lb              []float32       // n × t
	lanes           []kernels.Lanes // t: each group's centroids, lane-blocked
	drift           []float64       // k: distance each centroid moved in the last update
	groupDrift      []float64       // t: largest drift in each group
	driftSlack      float64
	slope, offset   float64
}

// maxThreshold caps the skip test well below sqrt(MaxFloat32), so a point
// whose assigned distance might overflow float32 scans every group.
const maxThreshold = 1 << 62

func newYinyang(data, centroids *kernels.Matrix, seed int64) (*yinyang, error) {
	t := (centroids.Rows + 9) / 10
	groupOf, err := groupCentroids(centroids, t, seed)
	if err != nil {
		return nil, err
	}
	return groupedYinyang(data, centroids, groupOf, t), nil
}

// groupedYinyang builds the filter over a grouping of the centroids into
// t groups: groupOf[c] in [0, t) for every centroid c.
func groupedYinyang(data, centroids *kernels.Matrix, groupOf []int, t int) *yinyang {
	k := centroids.Rows
	start := make([]int, t+1)
	for _, g := range groupOf {
		start[g+1]++
	}
	for g := 0; g < t; g++ {
		start[g+1] += start[g]
	}
	members := make([]int, k)
	next := append([]int(nil), start[:t]...)
	for c, g := range groupOf {
		members[next[g]] = c
		next[g]++
	}

	// A float32 squared-L2 sum over D terms is within relative error
	// e = γ(D+2) of the exact value, plus D·2⁻¹⁴⁹ absolute under gradual
	// underflow. A group may be skipped once lb/√(1+e) − √A still exceeds √((1+e)/(1−e))·(ub/√(1−e) + √(A/(1−e))) + √(2A/(1−e)), which
	// slope = (1+e)/(1−e) and offset = 5√A cover for e ≤ 1/7; 2⁻⁴⁰ covers
	// the float64 rounding of the test itself.
	d := float64(centroids.Cols)
	y := &yinyang{
		data:       data,
		centroids:  centroids,
		prev:       kernels.NewMatrix(k, centroids.Cols),
		groupOf:    groupOf,
		members:    members,
		start:      start,
		ub:         make([]float32, data.Rows),
		lb:         make([]float32, data.Rows*t),
		lanes:      make([]kernels.Lanes, t),
		drift:      make([]float64, k),
		groupDrift: make([]float64, t),
		driftSlack: 1 + (d+4)*0x1p-52,
		slope:      math.Inf(1),
	}
	const margin = 1 + 0x1p-40
	if u := (d + 2) * 0x1p-24; u < 1.0/8 {
		e := u / (1 - u)
		y.slope = (1 + e) / (1 - e) * margin
		y.offset = 5 * math.Sqrt(d*0x1p-149) * margin
	}
	for i := range y.ub {
		y.ub[i] = float32(math.Inf(1))
	}
	y.loadLanes()
	return y
}

// groupCentroids splits the initial centroids into t groups the way Ding
// et al. do: five k-means iterations over the centroids themselves. A
// group left empty gets a vacuous lower bound and is never scanned again.
func groupCentroids(centroids *kernels.Matrix, t int, seed int64) ([]int, error) {
	if t == 1 {
		return make([]int, centroids.Rows), nil
	}
	km, err := KMeans(centroids, t, 5, seed)
	if err != nil {
		return nil, err
	}
	return km.Assign, nil
}

// minSplit is the fewest points a goroutine of the assignment step
// takes. Even where every point passes the global test, a range this long
// costs tens of microseconds, against a few for starting and joining a
// goroutine; a smaller input runs inline.
const minSplit = 1024

// assignParts reports how many contiguous ranges, each run by its own
// goroutine, the assignment step splits n points into: up to one per
// GOMAXPROCS, and one when n is below 2·minSplit.
func assignParts(n int) int {
	return max(1, min(runtime.GOMAXPROCS(0), n/minSplit))
}

// assignStep sets every point's entry of assign to its nearest centroid and
// returns how many changed and the distance evaluations it took. Each
// range keeps its own counts, summed after the step. A point reads only
// the shared centroids, lanes and drifts and writes only its own ub, lb
// row and assign entry, so the result does not depend on the split.
func (y *yinyang) assignStep(assign []int) (moved int, evals int64) {
	n := len(assign)
	parts := assignParts(n)
	counts := make([]struct {
		moved int
		evals int64
	}, parts)
	var wg sync.WaitGroup
	for p := 1; p < parts; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := &counts[p]
			c.moved, c.evals = y.assignRange(assign, p*n/parts, (p+1)*n/parts)
		}()
	}
	counts[0].moved, counts[0].evals = y.assignRange(assign, 0, n/parts)
	wg.Wait()
	for _, c := range counts {
		moved += c.moved
		evals += c.evals
	}
	return moved, evals
}

// assignRange runs the assignment step over points lo to hi−1.
func (y *yinyang) assignRange(assign []int, lo, hi int) (moved int, evals int64) {
	for i := lo; i < hi; i++ {
		best, e := y.nearest(i, assign[i])
		evals += e
		if assign[i] != best {
			moved++
			assign[i] = best
		}
	}
	return moved, evals
}

// nearest returns the centroid point i is assigned to this iteration, the
// lowest index among the minima of kernels.SquaredL2 over all centroids,
// and the distance evaluations it took. cur is the previous assignment,
// or -1 in the first iteration.
func (y *yinyang) nearest(i, cur int) (int, int64) {
	t := len(y.groupDrift)
	lb := y.lb[i*t : (i+1)*t]
	a := max(cur, 0)

	// Relax the bounds by the last update's drift.
	ub := roundUp(float64(y.ub[i]) + y.drift[a])
	minLB := kernels.RelaxBounds(lb, y.groupDrift)
	if float64(minLB) > y.threshold(ub) {
		y.ub[i] = ub
		return a, 0
	}

	// Tighten the upper bound and try the global test again.
	row := y.data.Row(i)
	da := kernels.SquaredL2(row, y.centroids.Row(a))
	evals := int64(1)
	ub = sqrtUp(da)
	thr := y.threshold(ub)
	if float64(minLB) > thr {
		y.ub[i] = ub
		return a, evals
	}

	// One NearestLanes call per scanned group gives its nearest centroid
	// and its two smallest distances, d1 ≤ d2; a's lane scores da again,
	// bit for bit, so only the other centroids count as evaluations.
	// sqrtDown reads a +Inf distance as MaxFloat32: a bound from below
	// for an overflowed sum, and vacuous where there is no distance, as
	// for d2 of a one-centroid group or anything of an empty group.
	ga := y.groupOf[a]
	best, bestD := a, da
	bestGroup, bestSecond := -1, float32(0)
	for g := range lb {
		if float64(lb[g]) > thr {
			continue
		}
		group := y.members[y.start[g]:y.start[g+1]]
		if len(group) == 0 {
			lb[g] = sqrtDown(float32(math.Inf(1)))
			continue
		}
		j, d1, d2 := kernels.NearestLanes(row, &y.lanes[g])
		evals += int64(len(group))
		if g == ga {
			evals--
		}
		lb[g] = sqrtDown(d1)
		c := group[j]
		if d1 <= bestD && (d1 < bestD || c < best) {
			best, bestD = c, d1
		}
		if best == c {
			// The best centroid so far is the smallest of this group, so
			// the bound for the rest of the group is its second smallest.
			bestGroup, bestSecond = g, d2
		}
	}
	if bestGroup >= 0 {
		lb[bestGroup] = sqrtDown(bestSecond)
	}
	if best != a {
		// The old centroid joins its group's bound; a no-op if that
		// group was scanned, since its bound then already covers da.
		lb[ga] = min(lb[ga], sqrtDown(da))
	}
	y.ub[i] = sqrtUp(bestD)
	return best, evals
}

// threshold is the value a lower bound must exceed for its centroids to
// be skipped when the assigned centroid is within ub.
func (y *yinyang) threshold(ub float32) float64 {
	thr := y.slope*float64(ub) + y.offset
	if !(thr < maxThreshold) {
		return math.Inf(1)
	}
	return thr
}

// loadLanes copies each group's centroids into its lane block, after
// seeding and after every update step.
func (y *yinyang) loadLanes() {
	for g := range y.lanes {
		y.lanes[g].Load(y.centroids, y.members[y.start[g]:y.start[g+1]])
	}
}

// measureDrift records how far each centroid moved in the update that just
// ran, rounded up. A centroid that overflowed float32 moved infinitely far.
func (y *yinyang) measureDrift() {
	for g := range y.groupDrift {
		y.groupDrift[g] = 0
	}
	for c := range y.drift {
		old := y.prev.Row(c)
		var sum float64
		for j, v := range y.centroids.Row(c) {
			diff := float64(v) - float64(old[j])
			sum += diff * diff
		}
		dr := math.Sqrt(sum) * y.driftSlack
		if !(dr <= math.MaxFloat64) {
			dr = math.Inf(1)
		}
		y.drift[c] = dr
		g := y.groupOf[c]
		y.groupDrift[g] = max(y.groupDrift[g], dr)
	}
}

// roundUp returns a float32 strictly above v ≥ 0 (+Inf beyond float32
// range), so it stays an upper bound despite float64 rounding in v.
func roundUp(v float64) float32 {
	if v > math.MaxFloat32 {
		return float32(math.Inf(1))
	}
	return math.Float32frombits(math.Float32bits(float32(v)) + 1)
}

// roundDown returns a float32 in [0, v) for v > 0, the lower-bound twin of
// roundUp.
func roundDown(v float64) float32 {
	f := float32(v)
	if f == 0 {
		return 0
	}
	return math.Float32frombits(math.Float32bits(f) - 1)
}

func sqrtUp(sq float32) float32 { return roundUp(math.Sqrt(float64(sq))) }

// sqrtDown reads an overflowed (+Inf) sum as MaxFloat32, below which its
// exact value cannot lie.
func sqrtDown(sq float32) float32 {
	return roundDown(math.Sqrt(float64(min(sq, math.MaxFloat32))))
}
