// Package cardest is the public API of simquery: learned cardinality
// estimation for similarity queries, reproducing Sun, Li & Tang, SIGMOD
// 2021. It wraps the internal substrates behind a small surface:
//
//	ds, _ := cardest.GenerateProfile("imagenet", 8000, 40, 1)
//	train, test, _ := cardest.BuildWorkload(ds, cardest.WorkloadOptions{TrainPoints: 200, TestPoints: 50})
//	est, _ := cardest.Train(ds, train, cardest.TrainOptions{Method: "gl+"})
//	card := est.EstimateSearch(test[0].Vec, test[0].Tau)
//
// Methods are named as in the paper's Table 2: "gl+", "local+", "gl-cnn",
// "gl-mlp", "qes", "mlp", "cardnet", "sampling", "kernel".
package cardest

import (
	"fmt"
	"sort"

	"simquery/internal/dataset"
	"simquery/internal/dist"
	"simquery/internal/workload"
)

// Dataset is a collection of equal-dimension vectors with a distance metric
// and a maximum realistic search threshold.
type Dataset struct {
	inner *dataset.Dataset
}

// NewDataset wraps caller-provided vectors. metric is one of "l1", "l2"
// (or "euclidean"), "cosine", "angular", "hamming". tauMax is the largest
// threshold queries will use (it normalizes model inputs).
func NewDataset(name string, vectors [][]float64, metric string, tauMax float64) (*Dataset, error) {
	m, err := dist.ParseMetric(metric)
	if err != nil {
		return nil, err
	}
	if len(vectors) == 0 {
		return nil, fmt.Errorf("cardest: empty dataset")
	}
	ds := &dataset.Dataset{
		Name:    name,
		Metric:  m,
		Dim:     len(vectors[0]),
		Vectors: vectors,
		TauMax:  tauMax,
	}
	if err := ds.Validate(); err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// GenerateProfile builds one of the paper's six dataset stand-ins ("bms",
// "glove300", "imagenet", "aminer", "youtube", "dblp") at the given scale.
func GenerateProfile(profile string, n, clusters int, seed int64) (*Dataset, error) {
	p, err := dataset.ParseProfile(profile)
	if err != nil {
		return nil, err
	}
	ds, err := dataset.Generate(p, dataset.Config{N: n, Clusters: clusters, Seed: seed})
	if err != nil {
		return nil, err
	}
	return &Dataset{inner: ds}, nil
}

// Name returns the dataset name.
func (d *Dataset) Name() string { return d.inner.Name }

// Size returns the number of data objects.
func (d *Dataset) Size() int { return d.inner.Size() }

// Dim returns the vector dimensionality.
func (d *Dataset) Dim() int { return d.inner.Dim }

// Metric returns the metric name.
func (d *Dataset) Metric() string { return d.inner.Metric.String() }

// TauMax returns the maximum supported threshold.
func (d *Dataset) TauMax() float64 { return d.inner.TauMax }

// Vectors exposes the raw vectors — shared, not copied. The returned slice
// aliases the dataset's live storage: Append may reallocate it and Remove
// swap-moves entries in place, so a slice captured before an update can see
// reordered rows or miss appended ones. Estimators trained earlier are
// unaffected (they copy what they need at training time), but callers that
// iterate concurrently with updates, or keep the slice across updates,
// should use VectorsCopy instead.
func (d *Dataset) Vectors() [][]float64 { return d.inner.Vectors }

// VectorsCopy returns a snapshot of the dataset's vectors that stays valid
// and stable across Append/Remove. The row slices are copied too, so the
// snapshot shares no memory with the live dataset.
func (d *Dataset) VectorsCopy() [][]float64 {
	out := make([][]float64, len(d.inner.Vectors))
	for i, v := range d.inner.Vectors {
		out[i] = append([]float64(nil), v...)
	}
	return out
}

// Distance computes the dataset's metric between two vectors.
func (d *Dataset) Distance(a, b []float64) float64 { return d.inner.Distance(a, b) }

// Append adds vectors to the dataset (data updates, §5.3). Estimators
// trained earlier keep working; GlobalLocal estimators can route the new
// points with Insert and retrain incrementally.
func (d *Dataset) Append(vectors [][]float64) error {
	for i, v := range vectors {
		if len(v) != d.inner.Dim {
			return fmt.Errorf("cardest: new vector %d has dim %d, want %d", i, len(v), d.inner.Dim)
		}
	}
	d.inner.Vectors = append(d.inner.Vectors, vectors...)
	return nil
}

// Stats summarizes the dataset's distance distribution, nearest-neighbour
// tightness, and sparsity from a random sample (one line, human-readable).
func (d *Dataset) Stats(seed int64) string {
	s, err := dataset.ComputeStats(d.inner, 2000, 50, seed)
	if err != nil {
		return fmt.Sprintf("stats unavailable: %v", err)
	}
	return s.String()
}

// Remove deletes the given dataset indices by swap-remove (each removed
// slot is filled by the then-last vector; order is not preserved). It
// returns the removed vectors so labels and models can be updated. Pair
// with GlobalLocalEstimator.Remove to keep a trained model's segmentation
// in sync — call that FIRST, while indices still refer to the same points.
func (d *Dataset) Remove(indices []int) ([][]float64, error) {
	n := len(d.inner.Vectors)
	seen := make(map[int]bool, len(indices))
	removed := make([][]float64, 0, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("cardest: remove index %d out of range [0,%d)", idx, n)
		}
		if seen[idx] {
			return nil, fmt.Errorf("cardest: duplicate remove index %d", idx)
		}
		seen[idx] = true
	}
	sorted := append([]int(nil), indices...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	for _, idx := range sorted {
		last := len(d.inner.Vectors) - 1
		removed = append(removed, d.inner.Vectors[idx])
		d.inner.Vectors[idx] = d.inner.Vectors[last]
		d.inner.Vectors = d.inner.Vectors[:last]
	}
	return removed, nil
}

// Query is one labeled similarity-search query.
type Query struct {
	Vec  []float64
	Tau  float64
	Card float64
}

// WorkloadOptions controls labeled-workload construction.
type WorkloadOptions struct {
	// TrainPoints and TestPoints are distinct query points; each yields
	// ThresholdsPerPoint labeled queries (default 10).
	TrainPoints, TestPoints int
	ThresholdsPerPoint      int
	// MaxSelectivity caps threshold selectivities (default 1%).
	MaxSelectivity float64
	Seed           int64
}

// BuildWorkload samples query points from the dataset and labels them
// exactly, using uniform selectivities for the training split and geometric
// (low-skewed) selectivities for the test split, as in §6.
func BuildWorkload(d *Dataset, opts WorkloadOptions) (train, test []Query, err error) {
	w, err := workload.BuildSearch(d.inner, workload.SearchConfig{
		TrainPoints:        opts.TrainPoints,
		TestPoints:         opts.TestPoints,
		ThresholdsPerPoint: opts.ThresholdsPerPoint,
		MaxSelectivity:     opts.MaxSelectivity,
		Seed:               opts.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	return fromWorkload(w.Train), fromWorkload(w.Test), nil
}

func fromWorkload(qs []workload.Query) []Query {
	out := make([]Query, len(qs))
	for i, q := range qs {
		out[i] = Query{Vec: q.Vec, Tau: q.Tau, Card: q.Card}
	}
	return out
}

// TrueCard computes the exact cardinality by brute force — the ground
// truth for evaluation.
func TrueCard(d *Dataset, q []float64, tau float64) float64 {
	return workload.TrueCard(d.inner, q, tau)
}

// LabelQueries exactly labels caller-chosen (query, τ) pairs, producing
// training data for Train from a real query log instead of sampled points.
// Labeling runs in parallel across queries.
func LabelQueries(d *Dataset, vecs [][]float64, taus []float64) ([]Query, error) {
	if len(vecs) != len(taus) {
		return nil, fmt.Errorf("cardest: %d queries but %d thresholds", len(vecs), len(taus))
	}
	for i, v := range vecs {
		if len(v) != d.Dim() {
			return nil, fmt.Errorf("cardest: query %d has dim %d, want %d", i, len(v), d.Dim())
		}
	}
	return fromWorkload(workload.LabelPairs(d.inner, vecs, taus, 0)), nil
}

// JoinSet is one labeled similarity-join query set.
type JoinSet struct {
	Vecs [][]float64
	Tau  float64
	Card float64
}

// JoinOptions controls labeled join-set construction.
type JoinOptions struct {
	Sets             int
	MinSize, MaxSize int
	MaxSelectivity   float64
	Seed             int64
}

// BuildJoinWorkload samples labeled join sets from the dataset.
func BuildJoinWorkload(d *Dataset, opts JoinOptions) ([]JoinSet, error) {
	sets, err := workload.BuildJoin(d.inner, nil, workload.JoinConfig{
		Sets:           opts.Sets,
		MinSize:        opts.MinSize,
		MaxSize:        opts.MaxSize,
		MaxSelectivity: opts.MaxSelectivity,
		Seed:           opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	out := make([]JoinSet, len(sets))
	for i, s := range sets {
		out[i] = JoinSet{Vecs: s.Vecs, Tau: s.Tau, Card: s.Card}
	}
	return out, nil
}

// Estimator is a trained cardinality estimator for similarity search and
// join queries. After training, estimators are safe for concurrent use:
// EstimateSearch, EstimateSearchBatch, and EstimateJoin may be called from
// many goroutines against one trained instance. The methods have no error
// channel — a fault inside an estimator panics — so serving code wraps an
// Estimator with Harden, whose Ctx methods run the same estimate at no
// extra cost and return typed errors instead.
type Estimator interface {
	// Name identifies the method (Table 2 naming).
	Name() string
	// EstimateSearch returns the estimated card(q, τ, D).
	EstimateSearch(q []float64, tau float64) float64
	// EstimateSearchBatch returns one estimate per (qs[i], taus[i]) pair.
	// Learned methods amortize routing and network evaluation across the
	// batch; results match per-query EstimateSearch exactly. Methods
	// without a native batch path (sampling, kernel, prototype) silently
	// serialize into a per-query loop — batching then costs per-query
	// latency times the batch size. Each serialized call is counted in the
	// simquery_batch_serial_fallback_total telemetry metric (see
	// ServeTelemetry) so the degradation is observable in production.
	EstimateSearchBatch(qs [][]float64, taus []float64) []float64
	// EstimateJoin returns the estimated card(Q, τ, D).
	EstimateJoin(qs [][]float64, tau float64) float64
	// SizeBytes reports the model footprint.
	SizeBytes() int
}
