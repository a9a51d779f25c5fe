// Package workload builds the training and testing query workloads of §6:
// query points drawn from the dataset, per-query thresholds chosen by
// target selectivity (uniform selectivities for training, geometric for
// testing), exact cardinality labels, per-data-segment labels for the
// global-local framework, and join sets. Labeling is exact (brute force,
// parallel across queries) — it is also how the paper computes ground truth
// and why it reports label-construction time in Fig 14.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"

	"simquery/internal/cluster"
	"simquery/internal/dataset"
	"simquery/internal/dist"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// Query is one labeled similarity-search query: a vector, a threshold, the
// true cardinality, and (when segment labels are attached) the true
// cardinality within every data segment.
type Query struct {
	Vec      []float64
	Tau      float64
	Card     float64
	SegCards []float64
}

// SearchWorkload is the labeled train/test split for one dataset.
type SearchWorkload struct {
	Train []Query
	Test  []Query
}

// SearchConfig controls workload construction.
type SearchConfig struct {
	// TrainPoints and TestPoints are the numbers of distinct query points;
	// each point contributes ThresholdsPerPoint labeled queries.
	TrainPoints, TestPoints int
	// ThresholdsPerPoint defaults to 10, as in §6.
	ThresholdsPerPoint int
	// MaxSelectivity caps the target selectivity (default 0.01 — the
	// paper's "selectivities less than 1%" convention).
	MaxSelectivity float64
	// Seed drives query-point and threshold sampling.
	Seed int64
	// Workers bounds labeling parallelism (default GOMAXPROCS).
	Workers int
}

func (c *SearchConfig) fill() error {
	if c.TrainPoints <= 0 || c.TestPoints <= 0 {
		return fmt.Errorf("workload: train/test points must be positive (%d/%d)", c.TrainPoints, c.TestPoints)
	}
	if c.ThresholdsPerPoint <= 0 {
		c.ThresholdsPerPoint = 10
	}
	if c.MaxSelectivity <= 0 || c.MaxSelectivity > 1 {
		c.MaxSelectivity = 0.01
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	return nil
}

// BuildSearch constructs a labeled search workload for the dataset.
func BuildSearch(ds *dataset.Dataset, cfg SearchConfig) (*SearchWorkload, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	n := ds.Size()
	need := cfg.TrainPoints + cfg.TestPoints
	if need > n {
		return nil, fmt.Errorf("workload: %d query points requested from %d data objects", need, n)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	perm := rng.Perm(n)
	trainIdx := perm[:cfg.TrainPoints]
	testIdx := perm[cfg.TrainPoints:need]

	// Pre-draw per-point selectivity lists so labeling order doesn't
	// affect determinism.
	trainSels := make([][]float64, len(trainIdx))
	for i := range trainSels {
		trainSels[i] = uniformSelectivities(cfg.ThresholdsPerPoint, cfg.MaxSelectivity)
	}
	testSels := make([][]float64, len(testIdx))
	for i := range testSels {
		testSels[i] = geometricSelectivities(rng, cfg.ThresholdsPerPoint, cfg.MaxSelectivity)
	}

	packed := packIfHamming(ds)
	sp := reqtrace.StartStage(nil, reqtrace.StageLabelWorkload)
	defer sp.End()
	w := &SearchWorkload{}
	w.Train = labelPoints(ds, packed, trainIdx, trainSels, cfg.Workers)
	w.Test = labelPoints(ds, packed, testIdx, testSels, cfg.Workers)
	return w, nil
}

// packIfHamming bit-packs the dataset for popcount distances when the
// metric allows it; labeling dominates workload-construction time (Fig 14),
// and four of the six dataset profiles are Hamming.
func packIfHamming(ds *dataset.Dataset) []dist.BitVector {
	if ds.Metric != dist.Hamming {
		return nil
	}
	return dist.PackAll(ds.Vectors)
}

// distancesTo fills dists[i] = dis(q, D[i]) using the packed fast path when
// available.
func distancesTo(ds *dataset.Dataset, packed []dist.BitVector, q []float64, dists []float64) {
	if packed != nil {
		qb := dist.PackBits(q)
		for i := range packed {
			dists[i] = dist.HammingBits(qb, packed[i])
		}
		return
	}
	for i, v := range ds.Vectors {
		dists[i] = ds.Distance(q, v)
	}
}

// uniformSelectivities returns t selectivities evenly spaced in (0, max],
// the paper's training-threshold scheme ("uniformly generate 10 thresholds
// from range [0, τ_max] by selectivities", §6).
func uniformSelectivities(t int, max float64) []float64 {
	out := make([]float64, t)
	for i := range out {
		out[i] = max * float64(i+1) / float64(t)
	}
	return out
}

// geometricSelectivities draws t selectivities geometrically biased toward
// low values ("more queries with lower selectivity", §6).
func geometricSelectivities(rng *rand.Rand, t int, max float64) []float64 {
	out := make([]float64, t)
	for i := range out {
		// max · r^k with k geometric-ish via exponent of a uniform draw.
		out[i] = max * math.Pow(0.5, float64(rng.Intn(6))) * (0.2 + 0.8*rng.Float64())
	}
	return out
}

// labelPoints computes exact labels for every (point, selectivity) pair in
// parallel. Each worker computes one distance array per query point and
// derives all of its thresholds from it.
func labelPoints(ds *dataset.Dataset, packed []dist.BitVector, idx []int, sels [][]float64, workers int) []Query {
	sp := reqtrace.StartStage(nil, reqtrace.StageLabelQueries)
	out := make([]Query, 0, len(idx)*len(sels[0]))
	results := make([][]Query, len(idx))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for pi, p := range idx {
		wg.Add(1)
		go func(pi, p int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			results[pi] = labelOnePoint(ds, packed, ds.Vectors[p], sels[pi])
		}(pi, p)
	}
	wg.Wait()
	for _, qs := range results {
		out = append(out, qs...)
	}
	sp.End()
	telemetry.Default().Count(telemetry.MetricLabeledQueriesTotal, int64(len(out)))
	return out
}

// labelOnePoint computes distances from q to every data object once, then
// derives (τ, card) for each requested selectivity.
func labelOnePoint(ds *dataset.Dataset, packed []dist.BitVector, q []float64, sels []float64) []Query {
	n := ds.Size()
	dists := make([]float64, n)
	distancesTo(ds, packed, q, dists)
	sorted := append([]float64(nil), dists...)
	sort.Float64s(sorted)
	queries := make([]Query, 0, len(sels))
	for _, sel := range sels {
		rank := int(math.Ceil(sel * float64(n)))
		if rank < 1 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		tau := sorted[rank-1]
		if tau > ds.TauMax {
			tau = ds.TauMax
		}
		card := float64(countLE(sorted, tau))
		queries = append(queries, Query{Vec: q, Tau: tau, Card: card})
	}
	return queries
}

// countLE counts values ≤ tau in an ascending slice.
func countLE(sorted []float64, tau float64) int {
	return sort.Search(len(sorted), func(i int) bool { return sorted[i] > tau })
}

// TrueCard computes the exact cardinality of (q, τ) by brute force,
// scanning dataset chunks in parallel once the dataset is large enough to
// amortize goroutine startup. Counting is exact either way.
func TrueCard(ds *dataset.Dataset, q []float64, tau float64) float64 {
	n := ds.Size()
	workers := runtime.GOMAXPROCS(0)
	const parallelThreshold = 4096
	if n < parallelThreshold || workers < 2 {
		var c float64
		for _, v := range ds.Vectors {
			if ds.Distance(q, v) <= tau {
				c++
			}
		}
		return c
	}
	counts := make([]float64, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		if lo >= n {
			break
		}
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			var c float64
			for _, v := range ds.Vectors[lo:hi] {
				if ds.Distance(q, v) <= tau {
					c++
				}
			}
			counts[w] = c
		}(w, lo, hi)
	}
	wg.Wait()
	var total float64
	for _, c := range counts {
		total += c
	}
	return total
}

// LabelPairs exactly labels caller-chosen (vecs[i], taus[i]) pairs with a
// bounded worker pool (workers ≤ 0 means GOMAXPROCS) — the batch form of
// TrueCard for labeling real query logs.
func LabelPairs(ds *dataset.Dataset, vecs [][]float64, taus []float64, workers int) []Query {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := reqtrace.StartStage(nil, reqtrace.StageLabelQueries)
	defer func() {
		sp.End()
		telemetry.Default().Count(telemetry.MetricLabeledQueriesTotal, int64(len(vecs)))
	}()
	packed := packIfHamming(ds)
	out := make([]Query, len(vecs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			dists := make([]float64, ds.Size())
			distancesTo(ds, packed, vecs[i], dists)
			var card float64
			for _, d := range dists {
				if d <= taus[i] {
					card++
				}
			}
			out[i] = Query{Vec: vecs[i], Tau: taus[i], Card: card}
		}(i)
	}
	wg.Wait()
	return out
}

// JoinSegLabels computes each query's exact per-segment cardinality at τ
// under the given point-to-segment assignment, parallel across queries —
// the label matrix join fine-tuning consumes (workers ≤ 0 means
// GOMAXPROCS).
func JoinSegLabels(ds *dataset.Dataset, assignments []int, k int, vecs [][]float64, tau float64, workers int) [][]float64 {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := reqtrace.StartStage(nil, reqtrace.StageLabelSegments)
	defer sp.End()
	packed := packIfHamming(ds)
	out := make([][]float64, len(vecs))
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for i := range vecs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			dists := make([]float64, ds.Size())
			distancesTo(ds, packed, vecs[i], dists)
			segCards := make([]float64, k)
			for vi, d := range dists {
				if d <= tau {
					segCards[assignments[vi]]++
				}
			}
			out[i] = segCards
		}(i)
	}
	wg.Wait()
	return out
}

// AttachSegmentLabels fills SegCards on every query: the exact per-segment
// cardinality under the given segmentation. It parallelizes across queries.
func AttachSegmentLabels(ds *dataset.Dataset, seg *cluster.Segmentation, queries []Query, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sp := reqtrace.StartStage(nil, reqtrace.StageLabelSegments)
	defer sp.End()
	packed := packIfHamming(ds)
	var wg sync.WaitGroup
	sem := make(chan struct{}, workers)
	for qi := range queries {
		wg.Add(1)
		go func(q *Query) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			segCards := make([]float64, seg.K)
			dists := make([]float64, ds.Size())
			distancesTo(ds, packed, q.Vec, dists)
			for i, d := range dists {
				if d <= q.Tau {
					segCards[seg.Assignments[i]]++
				}
			}
			q.SegCards = segCards
		}(&queries[qi])
	}
	wg.Wait()
}

// ApplyInserts updates the labels of existing queries after newVecs were
// appended to the dataset (data-update experiment, §5.3 / Fig 15). assign
// gives the segment of each new vector; pass nil when segment labels are
// not tracked.
func ApplyInserts(ds *dataset.Dataset, queries []Query, newVecs [][]float64, assign []int) {
	for qi := range queries {
		q := &queries[qi]
		for vi, v := range newVecs {
			if ds.Distance(q.Vec, v) <= q.Tau {
				q.Card++
				if q.SegCards != nil && assign != nil {
					a := assign[vi]
					if a >= 0 && a < len(q.SegCards) {
						q.SegCards[a]++
					}
				}
			}
		}
	}
}

// ApplyDeletes updates labels after vectors were removed from the dataset:
// each removed vector within a query's threshold decrements its cardinality
// (and segment cardinality when tracked). Pass the removed vectors and
// their former segment assignments.
func ApplyDeletes(ds *dataset.Dataset, queries []Query, removedVecs [][]float64, assign []int) {
	for qi := range queries {
		q := &queries[qi]
		for vi, v := range removedVecs {
			if ds.Distance(q.Vec, v) <= q.Tau {
				q.Card--
				if q.Card < 0 {
					q.Card = 0
				}
				if q.SegCards != nil && assign != nil {
					a := assign[vi]
					if a >= 0 && a < len(q.SegCards) && q.SegCards[a] > 0 {
						q.SegCards[a]--
					}
				}
			}
		}
	}
}

// JoinSet is one labeled similarity-join query: a set of query vectors, a
// shared threshold, the exact total pair count, and optional per-query
// per-segment labels.
type JoinSet struct {
	Vecs [][]float64
	Tau  float64
	Card float64
	// PerQueryCards[i] is query i's exact cardinality at Tau.
	PerQueryCards []float64
	// PerQuerySegCards[i][s] is query i's exact cardinality in segment s
	// (filled when a segmentation is supplied).
	PerQuerySegCards [][]float64
}

// JoinConfig controls join-set construction.
type JoinConfig struct {
	// Sets is the number of join sets to build.
	Sets int
	// MinSize and MaxSize bound the query-set size (uniform in
	// [MinSize, MaxSize)).
	MinSize, MaxSize int
	// Thresholds per set (default 1: one labeled JoinSet per (set, τ)).
	Thresholds int
	// MaxSelectivity caps the per-query selectivity used to pick τ.
	MaxSelectivity float64
	Seed           int64
	Workers        int
}

// BuildJoin samples join sets from a pool of query points (dataset member
// vectors), picking thresholds by target selectivity on the first member
// and labeling exactly.
func BuildJoin(ds *dataset.Dataset, seg *cluster.Segmentation, cfg JoinConfig) ([]JoinSet, error) {
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	if cfg.Sets <= 0 {
		return nil, fmt.Errorf("workload: join sets must be positive")
	}
	if cfg.MinSize <= 0 || cfg.MaxSize <= cfg.MinSize {
		return nil, fmt.Errorf("workload: invalid join size range [%d,%d)", cfg.MinSize, cfg.MaxSize)
	}
	if cfg.Thresholds <= 0 {
		cfg.Thresholds = 1
	}
	if cfg.MaxSelectivity <= 0 || cfg.MaxSelectivity > 1 {
		cfg.MaxSelectivity = 0.01
	}
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	n := ds.Size()
	joinPacked := packIfHamming(ds)

	type job struct {
		vecs [][]float64
		taus []float64
	}
	jobs := make([]job, cfg.Sets)
	for s := range jobs {
		size := cfg.MinSize + rng.Intn(cfg.MaxSize-cfg.MinSize)
		vecs := make([][]float64, size)
		for i := range vecs {
			vecs[i] = ds.Vectors[rng.Intn(n)]
		}
		// Thresholds from the selectivity profile of the first member.
		sels := geometricSelectivities(rng, cfg.Thresholds, cfg.MaxSelectivity)
		qs := labelOnePoint(ds, joinPacked, vecs[0], sels)
		taus := make([]float64, len(qs))
		for i, q := range qs {
			taus[i] = q.Tau
		}
		jobs[s] = job{vecs: vecs, taus: taus}
	}

	var mu sync.Mutex
	var sets []JoinSet
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for _, j := range jobs {
		for _, tau := range j.taus {
			wg.Add(1)
			go func(vecs [][]float64, tau float64) {
				defer wg.Done()
				sem <- struct{}{}
				defer func() { <-sem }()
				js := labelJoinSet(ds, joinPacked, seg, vecs, tau)
				mu.Lock()
				sets = append(sets, js)
				mu.Unlock()
			}(j.vecs, tau)
		}
	}
	wg.Wait()
	// Deterministic order for reproducibility.
	sort.Slice(sets, func(a, b int) bool {
		if len(sets[a].Vecs) != len(sets[b].Vecs) {
			return len(sets[a].Vecs) < len(sets[b].Vecs)
		}
		return sets[a].Tau < sets[b].Tau
	})
	return sets, nil
}

// labelJoinSet computes exact join labels for one (set, τ).
func labelJoinSet(ds *dataset.Dataset, packed []dist.BitVector, seg *cluster.Segmentation, vecs [][]float64, tau float64) JoinSet {
	js := JoinSet{
		Vecs:          vecs,
		Tau:           tau,
		PerQueryCards: make([]float64, len(vecs)),
	}
	if seg != nil {
		js.PerQuerySegCards = make([][]float64, len(vecs))
	}
	dists := make([]float64, ds.Size())
	for qi, q := range vecs {
		var segCards []float64
		if seg != nil {
			segCards = make([]float64, seg.K)
		}
		var card float64
		distancesTo(ds, packed, q, dists)
		for i, d := range dists {
			if d <= tau {
				card++
				if segCards != nil {
					segCards[seg.Assignments[i]]++
				}
			}
		}
		js.PerQueryCards[qi] = card
		js.Card += card
		if seg != nil {
			js.PerQuerySegCards[qi] = segCards
		}
	}
	return js
}
