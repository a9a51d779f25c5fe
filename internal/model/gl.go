package model

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"

	"simquery/internal/cluster"
	"simquery/internal/dist"
	"simquery/internal/faultinject"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
	"simquery/internal/tensor"
)

// Variant selects which member of the model family a GlobalLocal instance
// is (Table 2 rows 2–5).
type Variant int

// The data-segmentation model family.
const (
	// LocalPlus trains one local model per segment and sums all of them
	// (no global selection); local models use per-segment sample anchors.
	LocalPlus Variant = iota
	// GLMLP is the global-local framework with MLP query embeddings.
	GLMLP
	// GLCNN is the global-local framework with CNN query segmentation.
	GLCNN
	// GLPlus is GLCNN with per-local tuned hyperparameters (Algorithm 3).
	GLPlus
)

// String implements fmt.Stringer.
func (v Variant) String() string {
	switch v {
	case LocalPlus:
		return "Local+"
	case GLMLP:
		return "GL-MLP"
	case GLCNN:
		return "GL-CNN"
	case GLPlus:
		return "GL+"
	default:
		return fmt.Sprintf("Variant(%d)", int(v))
	}
}

// GLConfig configures construction of a GlobalLocal model.
type GLConfig struct {
	Variant Variant
	// Segments is the number of data segments (paper default 100; the
	// harness scales this down).
	Segments int
	// QuerySegments is the query-segmentation count for CNN variants.
	QuerySegments int
	// ConvConfigs is the CNN stack after the segment layer (ignored by
	// MLP variants). PerLocalConv, when non-nil, overrides it per local
	// model — the GL+ tuned configuration.
	ConvConfigs  []ConvConfig
	PerLocalConv [][]ConvConfig
	// AnchorsPerSegment is the x_D sample count for Local+ local models.
	AnchorsPerSegment int
	// Sigma is the global selection threshold (default 0.5).
	Sigma float64
	// PCADims is the PCA dimensionality for segmentation (default 8).
	PCADims int
	Arch    Arch
	Seed    int64
	// Workers bounds local-model training parallelism.
	Workers int
}

func (c *GLConfig) fill(dim int) {
	if c.Segments <= 0 {
		c.Segments = 16
	}
	if c.QuerySegments <= 0 {
		c.QuerySegments = 8
	}
	if c.QuerySegments > dim {
		c.QuerySegments = dim
	}
	if c.ConvConfigs == nil {
		c.ConvConfigs = DefaultConvConfigs()
	}
	if c.AnchorsPerSegment <= 0 {
		c.AnchorsPerSegment = 8
	}
	if c.Sigma <= 0 || c.Sigma >= 1 {
		c.Sigma = 0.5
	}
	if c.PCADims <= 0 {
		c.PCADims = 8
	}
	if c.Arch == (Arch{}) {
		c.Arch = DefaultArch()
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
}

// GlobalLocal is the paper's data-segmentation estimator family: a
// segmentation of the dataset, one local regression model per segment, and
// (except for Local+) a global discriminative model that selects which
// local models to evaluate (Fig 1(C), Fig 5, Fig 6).
type GlobalLocal struct {
	Label   string
	Variant Variant

	Seg    *cluster.Segmentation
	Locals []*BasicModel
	Global *GlobalModel // nil for Local+

	Metric   dist.Metric
	TauScale float64
	Dim      int
	Sigma    float64

	// refs are the per-segment reference points for the triangle-inequality
	// bound (centroids, unit-normalized for angular distance), and
	// MetricRadii the max member distance to them under the dataset metric.
	refs        [][]float64
	MetricRadii []float64

	// deltas is the online-mutation state (nil until NoteDelta or
	// EnableDeltaTracking arms it; see delta.go). Not serialized.
	deltas atomic.Pointer[SegDeltas]

	cfg GLConfig
}

// initRefs derives the triangle-bound reference points from the centroids.
func (gl *GlobalLocal) initRefs() {
	gl.refs = make([][]float64, gl.Seg.K)
	for i, c := range gl.Seg.Centroids {
		ref := c
		if gl.Metric == dist.Angular {
			ref = append([]float64(nil), c...)
			normalizeVec(ref)
		}
		gl.refs[i] = ref
	}
}

// initBounds computes the reference points and metric radii from data.
func (gl *GlobalLocal) initBounds(data [][]float64) {
	gl.initRefs()
	gl.MetricRadii = make([]float64, gl.Seg.K)
	for i, a := range gl.Seg.Assignments {
		if d := dist.Distance(gl.Metric, data[i], gl.refs[a]); d > gl.MetricRadii[a] {
			gl.MetricRadii[a] = d
		}
	}
}

// normalizeVec scales to unit L2 norm in place (no-op for zero vectors).
func normalizeVec(v []float64) {
	var s float64
	for _, x := range v {
		s += x * x
	}
	if s == 0 {
		return
	}
	n := math.Sqrt(s)
	for i := range v {
		v[i] /= n
	}
}

// NewGlobalLocal segments the data (PCA + batch k-means, §3.3) and builds
// the local and global models. data rows are the dataset vectors.
func NewGlobalLocal(label string, data [][]float64, metric dist.Metric, tauMax float64, cfg GLConfig) (*GlobalLocal, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: global-local over empty dataset")
	}
	dim := len(data[0])
	cfg.fill(dim)
	rng := rand.New(rand.NewSource(cfg.Seed))
	seg, err := cluster.KMeans(data, cfg.Segments, cluster.KMeansOptions{PCADims: cfg.PCADims}, rng)
	if err != nil {
		return nil, fmt.Errorf("model: segmentation: %w", err)
	}
	return newGlobalLocalFromSeg(label, data, seg, metric, tauMax, cfg, rng)
}

// NewGlobalLocalWithSegmentation builds the model family on a caller-made
// segmentation (used by the segmentation-method ablation).
func NewGlobalLocalWithSegmentation(label string, data [][]float64, seg *cluster.Segmentation, metric dist.Metric, tauMax float64, cfg GLConfig) (*GlobalLocal, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("model: global-local over empty dataset")
	}
	cfg.fill(len(data[0]))
	cfg.Segments = seg.K
	rng := rand.New(rand.NewSource(cfg.Seed))
	return newGlobalLocalFromSeg(label, data, seg, metric, tauMax, cfg, rng)
}

func newGlobalLocalFromSeg(label string, data [][]float64, seg *cluster.Segmentation, metric dist.Metric, tauMax float64, cfg GLConfig, rng *rand.Rand) (*GlobalLocal, error) {
	dim := len(data[0])
	gl := &GlobalLocal{
		Label:    label,
		Variant:  cfg.Variant,
		Seg:      seg,
		Metric:   metric,
		TauScale: tauMax,
		Dim:      dim,
		Sigma:    cfg.Sigma,
		cfg:      cfg,
	}
	useGlobal := cfg.Variant != LocalPlus
	for i := 0; i < seg.K; i++ {
		var anchors [][]float64
		if useGlobal {
			// GL local models consume x_C: distances to all centroids
			// (Fig 5 replaces x_D with x_C).
			anchors = seg.Centroids
		} else {
			anchors = segmentAnchors(data, seg, i, cfg.AnchorsPerSegment, rng)
		}
		var (
			local *BasicModel
			err   error
		)
		name := fmt.Sprintf("%s/local%d", label, i)
		switch cfg.Variant {
		case GLMLP:
			local, err = NewMLPModel(name, rng, dim, anchors, metric, tauMax, cfg.Arch)
		default: // LocalPlus, GLCNN, GLPlus use CNN query embeddings
			convs := cfg.ConvConfigs
			if cfg.PerLocalConv != nil && i < len(cfg.PerLocalConv) && cfg.PerLocalConv[i] != nil {
				convs = cfg.PerLocalConv[i]
			}
			local, err = NewQESModel(name, rng, dim, cfg.QuerySegments, convs, anchors, metric, tauMax, cfg.Arch)
		}
		if err != nil {
			return nil, fmt.Errorf("model: local %d: %w", i, err)
		}
		// A local model can never see more matches than its segment holds.
		local.MaxCard = float64(len(seg.Members[i]))
		gl.Locals = append(gl.Locals, local)
	}
	if useGlobal {
		g, err := NewGlobalModel(rng, dim, seg.Centroids, metric, tauMax, cfg.Arch)
		if err != nil {
			return nil, err
		}
		gl.Global = g
	}
	gl.initBounds(data)
	return gl, nil
}

// segmentAnchors draws up to k member vectors of segment i (falling back to
// the centroid for empty segments).
func segmentAnchors(data [][]float64, seg *cluster.Segmentation, i, k int, rng *rand.Rand) [][]float64 {
	members := seg.Members[i]
	if len(members) == 0 {
		return [][]float64{seg.Centroids[i]}
	}
	idx := rng.Perm(len(members))
	if len(idx) > k {
		idx = idx[:k]
	}
	anchors := make([][]float64, len(idx))
	for j, m := range idx {
		anchors[j] = data[members[m]]
	}
	return anchors
}

// SegSample is one training example with per-segment labels.
type SegSample struct {
	Q        []float64
	Tau      float64
	SegCards []float64
}

// localTrainingSet builds segment i's training set: every query whose
// threshold ball intersects the segment (positive label), plus a capped set
// of zero-label negatives. At inference a local model only runs when the
// global model selects its segment — a mostly-positive distribution — so
// training on all queries would drown the positives in zeros and collapse
// the regressor (the clipped gradients of the 0-labels dominate). The
// negatives that are kept are the *hardest* ones: queries whose threshold
// ball comes closest to the segment without touching it, exactly the
// borderline cases a miscalibrated global model routes here — training on
// them keeps false-positive selections from turning into huge
// overestimates.
func (gl *GlobalLocal) localTrainingSet(samples []SegSample, i int, seed int64) []Sample {
	type negCand struct {
		s    Sample
		marg float64 // distance margin beyond the threshold ball
	}
	var pos []Sample
	var negs []negCand
	for _, s := range samples {
		sm := Sample{Q: s.Q, Tau: s.Tau, Card: s.SegCards[i]}
		if s.SegCards[i] > 0 {
			pos = append(pos, sm)
			continue
		}
		marg := dist.Distance(gl.Metric, s.Q, gl.Seg.Centroids[i]) - s.Tau
		negs = append(negs, negCand{s: sm, marg: marg})
	}
	maxNeg := len(pos)/2 + 4
	if len(negs) > maxNeg {
		sort.Slice(negs, func(a, b int) bool { return negs[a].marg < negs[b].marg })
		negs = negs[:maxNeg]
	}
	out := append([]Sample(nil), pos...)
	for _, n := range negs {
		out = append(out, n.s)
	}
	if len(out) == 0 {
		// Degenerate segment with no queries at all: train on a few zeros
		// so the model safely answers ≈0.
		for si := 0; si < len(samples) && si < 8; si++ {
			out = append(out, Sample{Q: samples[si].Q, Tau: samples[si].Tau, Card: 0})
		}
	}
	// Deterministic shuffle so mini-batches mix positives and negatives.
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(out), func(a, b int) { out[a], out[b] = out[b], out[a] })
	return out
}

// Train runs the two-phase training of §3.3: phase 1 fits every local
// regression model (in parallel), phase 2 fits the global discriminative
// model (Algorithm 2).
func (gl *GlobalLocal) Train(samples []SegSample, cfg TrainConfig, gcfg GlobalTrainConfig) error {
	for i, s := range samples {
		if len(s.SegCards) != gl.Seg.K {
			return fmt.Errorf("model: sample %d has %d segment labels, want %d", i, len(s.SegCards), gl.Seg.K)
		}
	}
	return gl.IncrementalTrain(samples, nil, cfg, gcfg)
}

// eachLocal runs fn for every local model on up to cfg.Workers goroutines
// and returns the lowest-indexed failure.
func (gl *GlobalLocal) eachLocal(fn func(i int, local *BasicModel) error) error {
	var wg sync.WaitGroup
	sem := make(chan struct{}, gl.cfg.Workers)
	errs := make([]error, len(gl.Locals))
	for i, local := range gl.Locals {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			errs[i] = fn(i, local)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("model: local %d: %w", i, err)
		}
	}
	return nil
}

// provablyEmpty reports whether segment i cannot contain any object within
// τ of q, by the triangle inequality on the centroid distance and the
// segment radius (§5.1: "we could compute the distance upper bound between
// a query and a data object in a data segment... by using triangle
// inequality"). Cosine distance is not a metric, so no pruning there.
func (gl *GlobalLocal) provablyEmpty(q []float64, tau float64, i int) bool {
	if gl.Metric == dist.Cosine || gl.refs == nil {
		return false
	}
	d := dist.Distance(gl.Metric, q, gl.refs[i])
	return d-gl.MetricRadii[i] > tau
}

// maskInto turns one query's global-model probabilities into its selection
// mask, written into sel (len gl.Seg.K, all false): picks above σ,
// hard-filtered by the triangle-inequality bound, with a fallback to the
// highest-probability surviving segment so plausible queries never silently
// estimate zero — unless every segment is provably empty, in which case
// zero is exact. A nil probs row is the Local+ case: every
// not-provably-empty segment is selected. This is the single source of
// routing truth, so search, batch, and join select identical segments for
// identical queries.
func (gl *GlobalLocal) maskInto(sel []bool, q []float64, tau float64, probs []float64) {
	if probs == nil {
		for i := range sel {
			sel[i] = !gl.provablyEmpty(q, tau, i)
		}
		return
	}
	any := false
	bestIdx, bestProb := -1, -1.0
	for i, p := range probs {
		if gl.provablyEmpty(q, tau, i) {
			continue
		}
		if p > gl.Sigma {
			sel[i] = true
			any = true
		}
		if p > bestProb {
			bestIdx, bestProb = i, p
		}
	}
	if !any && bestIdx >= 0 {
		sel[bestIdx] = true
	}
}

// pipeOpts parameterises the estimate pipeline.
type pipeOpts struct {
	// precision is the inference plane of the router and the locals.
	precision Precision
	// join reduces each local's routed group to one sum-pooled estimate
	// (Fig 6) instead of one estimate per routed query.
	join bool
}

// glRun is the working set of one pipeline run, recycled through runPool so
// a steady-state estimate allocates its result and nothing else.
type glRun struct {
	// q1/t1/out1 stage a single query as a one-row batch without allocating;
	// taus is a join's threshold repeated per query, for routing.
	q1   [1][]float64
	t1   [1]float64
	out1 [1]float64
	taus []float64
	// probs and sel are the n×K routing probabilities and the indicator
	// matrix of Fig 6, row-major.
	probs []float64
	sel   []bool
	// Local j's group — the queries routed to it, ascending — is
	// members[start[j]:start[j+1]]; active lists the non-empty ones. vals
	// holds the raw contributions parallel to members: one per routed pair
	// for search, one per group (at its first slot) for join.
	start, members, active []int
	vals                   []float64
	errs                   []error // per active local, pooled dispatch only
}

var runPool = sync.Pool{New: func() any { return new(glRun) }}

func takeRun() *glRun { return runPool.Get().(*glRun) }

func putRun(r *glRun) {
	r.q1[0] = nil // do not pin the caller's query
	runPool.Put(r)
}

// grow returns s resized to n, reusing its backing array when it fits.
// Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// route fills r.sel with the indicator matrix for the batch: one
// global-model forward pass on plane p (none for Local+), then maskInto per
// query.
func (gl *GlobalLocal) route(r *glRun, qs [][]float64, taus []float64, p Precision) error {
	n, k := len(qs), gl.Seg.K
	r.sel = grow(r.sel, n*k)
	clear(r.sel)
	if gl.Global != nil {
		r.probs = grow(r.probs, n*k)
		if err := gl.Global.probsInto(r.probs, qs, taus, p); err != nil {
			return err
		}
	}
	for i, q := range qs {
		var probs []float64
		if gl.Global != nil {
			probs = r.probs[i*k : (i+1)*k]
		}
		gl.maskInto(r.sel[i*k:(i+1)*k], q, taus[i], probs)
	}
	return nil
}

// estimate is the one GlobalLocal estimate pipeline. The paper's search
// estimate (§5: route with the global model, sum the selected locals,
// ŷ = Σ ŷ^[i]) and its join estimate (§4, Fig 6: the same indicator matrix,
// sum-pooled per local) differ only in the per-local reduction, so both are
// route → group by local → evaluate each non-empty group → delta-adjust →
// merge, written into out (one slot per query; a single slot for a join).
// ctx is checked before routing and between groups; a panicking model fails
// the estimate with a *SegmentError naming it. Groups run serially for one
// group or one query and otherwise on the shared tensor pool — the workers
// the GEMM kernels use, so serving has one parallelism budget. The merge
// sums each query's contributions in ascending segment order whatever the
// evaluation order was (float addition is not associative) and the per-row
// network math is batch-size-invariant, so a batch equals its queries
// estimated one by one, bitwise.
func (gl *GlobalLocal) estimate(ctx context.Context, r *glRun, qs [][]float64, taus, out []float64, o pipeOpts) error {
	clear(out)
	n, k := len(qs), gl.Seg.K
	if n == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	tr := reqtrace.FromContext(ctx)

	st := reqtrace.StartStage(tr, reqtrace.StageGlobalRoute)
	err := isolate(routerSeg, func() error { return gl.route(r, qs, taus, o.precision) })
	st.End()
	if err != nil {
		return err
	}
	gl.observeSelectivity(r.sel)

	st = reqtrace.StartStage(tr, reqtrace.StageLocalEval)
	r.start = grow(r.start, k+1)
	r.members, r.active = r.members[:0], r.active[:0]
	for j := 0; j < k; j++ {
		r.start[j] = len(r.members)
		for i := 0; i < n; i++ {
			if r.sel[i*k+j] {
				r.members = append(r.members, i)
			}
		}
		if len(r.members) > r.start[j] {
			r.active = append(r.active, j)
		}
	}
	r.start[k] = len(r.members)
	r.vals = grow(r.vals, len(r.members))
	if len(r.active) <= 1 || n == 1 {
		for t := 0; t < len(r.active) && err == nil; t++ {
			err = gl.evalGroup(ctx, r, t, qs, taus, o)
		}
	} else {
		r.errs = grow(r.errs, len(r.active))
		tensor.DefaultPool().DoCtx(ctx, len(r.active), func(t int) {
			r.errs[t] = gl.evalGroup(ctx, r, t, qs, taus, o)
		})
		err = ctx.Err()
		for t := 0; t < len(r.errs) && err == nil; t++ {
			err = r.errs[t] // the first failed segment names the batch's error
		}
		clear(r.errs)
	}
	st.End()
	if err != nil {
		return err
	}

	st = reqtrace.StartStage(tr, reqtrace.StageMerge)
	for _, j := range r.active {
		lo, hi := r.start[j], r.start[j+1]
		if o.join {
			out[0] += gl.deltaAdjust(j, r.vals[lo], hi-lo)
			continue
		}
		for p := lo; p < hi; p++ {
			out[r.members[p]] += gl.deltaAdjust(j, r.vals[p], 1)
		}
	}
	st.End()
	return nil
}

// evalGroup evaluates the t-th active local over its routed group into
// r.vals, panic-isolated. A cancelled context skips the group.
func (gl *GlobalLocal) evalGroup(ctx context.Context, r *glRun, t int, qs [][]float64, taus []float64, o pipeOpts) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	j := r.active[t]
	lo, hi := r.start[j], r.start[j+1]
	return isolate(j, func() error {
		if faultinject.Armed() {
			faultinject.LocalEval.Fire()
		}
		gqs, gts := gather(qs, taus, r.members[lo:hi])
		if o.join {
			r.vals[lo] = gl.Locals[j].EstimateJoinPooled(gqs, gts[0])
			return nil
		}
		return gl.Locals[j].estimateInto(r.vals[lo:hi], gqs, gts, o.precision)
	})
}

// gather returns the rows of qs and taus at idx (ascending, non-empty). A
// contiguous run — a single query, or a local every query routes to —
// aliases the input instead of copying; locals only read their inputs.
func gather(qs [][]float64, taus []float64, idx []int) ([][]float64, []float64) {
	first, n := idx[0], len(idx)
	if idx[n-1]-first == n-1 {
		return qs[first : first+n], taus[first : first+n]
	}
	gqs, gts := make([][]float64, n), make([]float64, n)
	for k, i := range idx {
		gqs[k], gts[k] = qs[i], taus[i]
	}
	return gqs, gts
}

// observeSelectivity records, per query of the indicator matrix sel, the
// fraction of local models selected into
// simquery_routing_selectivity{method=...} — the paper's pruning claim as a
// live signal, one series per model. Free (one atomic load) when telemetry
// is off.
func (gl *GlobalLocal) observeSelectivity(sel []bool) {
	rec := telemetry.Default()
	k := gl.Seg.K
	if !rec.Enabled() || k == 0 {
		return
	}
	for ; len(sel) >= k; sel = sel[k:] {
		n := 0
		for _, on := range sel[:k] {
			if on {
				n++
			}
		}
		rec.ObserveLabeled(telemetry.MetricRoutingSelectivity, telemetry.LabelMethod, gl.Label,
			float64(n)/float64(k))
	}
}

// must is the error channel of the plain entry points: they have none, so
// a pipeline error re-panics on the caller.
func must[T any](v T, err error) T {
	if err != nil {
		panic(err)
	}
	return v
}

// SelectedSegments returns which local models will be evaluated for (q, τ):
// the global model's picks, hard-filtered by the triangle-inequality bound;
// for Local+ every not-provably-empty segment.
func (gl *GlobalLocal) SelectedSegments(q []float64, tau float64) []bool {
	var r glRun // not pooled: its mask is the result
	if err := gl.route(&r, [][]float64{q}, []float64{tau}, F64); err != nil {
		panic(err)
	}
	return r.sel
}

// EstimateSearchPrecision estimates one (q, τ) on inference plane p (F64 is
// the bitwise reference; see precision.go) with per-request cancellation
// and per-model panic isolation.
func (gl *GlobalLocal) EstimateSearchPrecision(ctx context.Context, q []float64, tau float64, p Precision) (float64, error) {
	r := takeRun()
	defer putRun(r)
	r.q1[0], r.t1[0] = q, tau
	err := gl.estimate(ctx, r, r.q1[:], r.t1[:], r.out1[:], pipeOpts{precision: p})
	return r.out1[0], err
}

// EstimateSearchBatchPrecision estimates many (q, τ) pairs at once on plane
// p: one routing pass, one sub-batch per selected local. out[i] is bitwise
// identical to EstimateSearchPrecision(qs[i], taus[i]).
func (gl *GlobalLocal) EstimateSearchBatchPrecision(ctx context.Context, qs [][]float64, taus []float64, p Precision) ([]float64, error) {
	if len(qs) != len(taus) {
		return nil, fmt.Errorf("model: batch size mismatch: %d queries, %d thresholds", len(qs), len(taus))
	}
	r := takeRun()
	defer putRun(r)
	out := make([]float64, len(qs))
	if err := gl.estimate(ctx, r, qs, taus, out, pipeOpts{precision: p}); err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateJoinCtx routes each query of the set via the global model's
// indicator matrix, sum-pools the routed queries per local model, and sums
// the pooled local estimates (Fig 6). Joins always run the F64 plane.
func (gl *GlobalLocal) EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (float64, error) {
	r := takeRun()
	defer putRun(r)
	r.taus = grow(r.taus, len(qs))
	for i := range r.taus {
		r.taus[i] = tau
	}
	err := gl.estimate(ctx, r, qs, r.taus, r.out1[:], pipeOpts{join: true})
	return r.out1[0], err
}

// EstimateSearchCtx is EstimateSearchPrecision on the F64 plane.
func (gl *GlobalLocal) EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (float64, error) {
	return gl.EstimateSearchPrecision(ctx, q, tau, F64)
}

// EstimateSearchBatchCtx is EstimateSearchBatchPrecision on the F64 plane.
func (gl *GlobalLocal) EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) ([]float64, error) {
	return gl.EstimateSearchBatchPrecision(ctx, qs, taus, F64)
}

// EstimateSearch sums the selected local models' estimates (ŷ = Σ ŷ^[i]).
// Like the other plain methods it runs the pipeline under
// context.Background() and panics where the Ctx form returns an error.
func (gl *GlobalLocal) EstimateSearch(q []float64, tau float64) float64 {
	return must(gl.EstimateSearchCtx(context.Background(), q, tau))
}

// EstimateSearchBatch is the plain form of EstimateSearchBatchCtx.
func (gl *GlobalLocal) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	return must(gl.EstimateSearchBatchCtx(context.Background(), qs, taus))
}

// EstimateJoin is the plain form of EstimateJoinCtx.
func (gl *GlobalLocal) EstimateJoin(qs [][]float64, tau float64) float64 {
	return must(gl.EstimateJoinCtx(context.Background(), qs, tau))
}

// JoinSegSample is one labeled join training example with per-query
// per-segment labels.
type JoinSegSample struct {
	Qs               [][]float64
	Tau              float64
	PerQuerySegCards [][]float64
}

// FineTuneJoin adapts the trained local models to pooled join estimation:
// for every (set, segment), the queries with nonzero true segment
// cardinality are pooled and the local model is fine-tuned toward the
// summed label. Per the paper, a couple of iterations from the transferred
// search model suffice (§4).
func (gl *GlobalLocal) FineTuneJoin(sets []JoinSegSample, cfg TrainConfig) error {
	if len(sets) == 0 {
		return fmt.Errorf("model: no join training sets")
	}
	perLocal := make([][]JoinSample, gl.Seg.K)
	for _, s := range sets {
		if len(s.PerQuerySegCards) != len(s.Qs) {
			return fmt.Errorf("model: join sample label mismatch: %d labels for %d queries", len(s.PerQuerySegCards), len(s.Qs))
		}
		for j := 0; j < gl.Seg.K; j++ {
			var routed [][]float64
			var card float64
			for qi, q := range s.Qs {
				if c := s.PerQuerySegCards[qi][j]; c > 0 {
					routed = append(routed, q)
					card += c
				}
			}
			if len(routed) == 0 {
				continue
			}
			perLocal[j] = append(perLocal[j], JoinSample{Qs: routed, Tau: s.Tau, Card: card})
		}
	}
	return gl.eachLocal(func(j int, local *BasicModel) error {
		if len(perLocal[j]) == 0 {
			return nil
		}
		lcfg := cfg
		lcfg.Seed = cfg.Seed + int64(j)*104729
		return local.FineTuneJoin(perLocal[j], lcfg)
	})
}

// InsertPoints routes new data points to their nearest segments (§5.3) and
// returns the per-point segment assignment. Labels must be updated by the
// caller (workload.ApplyInserts) before IncrementalTrain.
func (gl *GlobalLocal) InsertPoints(newVecs [][]float64) []int {
	assign := make([]int, len(newVecs))
	base := len(gl.Seg.Assignments)
	for i, v := range newVecs {
		a := gl.Seg.NearestSegment(v)
		assign[i] = a
		gl.Seg.Assignments = append(gl.Seg.Assignments, a)
		gl.Seg.Members[a] = append(gl.Seg.Members[a], base+i)
		gl.Locals[a].MaxCard = float64(len(gl.Seg.Members[a]))
		// Keep the triangle-inequality bound sound: the metric radius must
		// cover the new member.
		if gl.refs != nil {
			if d := dist.Distance(gl.Metric, v, gl.refs[a]); d > gl.MetricRadii[a] {
				gl.MetricRadii[a] = d
			}
		}
	}
	return assign
}

// RemovePoints deletes dataset points by index using swap-remove: each
// removed index is replaced by the then-last point and the tail truncated.
// The caller must apply the identical swap-remove to its vector slice (see
// cardest.Dataset.Remove). It returns the set of segments that lost points,
// for IncrementalTrain. Indices must be unique and in range.
func (gl *GlobalLocal) RemovePoints(indices []int) (map[int]bool, error) {
	n := len(gl.Seg.Assignments)
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= n {
			return nil, fmt.Errorf("model: remove index %d out of range [0,%d)", idx, n)
		}
		if seen[idx] {
			return nil, fmt.Errorf("model: duplicate remove index %d", idx)
		}
		seen[idx] = true
	}
	// Descending order keeps swap targets valid.
	sorted := append([]int(nil), indices...)
	sort.Sort(sort.Reverse(sort.IntSlice(sorted)))
	affected := map[int]bool{}
	for _, idx := range sorted {
		last := len(gl.Seg.Assignments) - 1
		affected[gl.Seg.Assignments[idx]] = true
		gl.Seg.Assignments[idx] = gl.Seg.Assignments[last]
		gl.Seg.Assignments = gl.Seg.Assignments[:last]
	}
	// Metric radii are left unchanged: they may now be loose, which keeps
	// the triangle-inequality bound conservative (sound, never unsound).
	// Rebuild member lists from the compacted assignments and refresh the
	// per-segment population caps.
	for i := range gl.Seg.Members {
		gl.Seg.Members[i] = gl.Seg.Members[i][:0]
	}
	for i, a := range gl.Seg.Assignments {
		gl.Seg.Members[a] = append(gl.Seg.Members[a], i)
	}
	for i := range gl.Locals {
		gl.Locals[i].MaxCard = float64(len(gl.Seg.Members[i]))
	}
	return affected, nil
}

// IncrementalTrain retrains only the locals named in affected (nil = all)
// plus the global model — with a few epochs, the paper's incremental-learning
// path that replaces hours of retraining with minutes (Exp-11).
func (gl *GlobalLocal) IncrementalTrain(samples []SegSample, affected map[int]bool, cfg TrainConfig, gcfg GlobalTrainConfig) error {
	if len(samples) == 0 {
		return fmt.Errorf("model: no training samples")
	}
	err := gl.eachLocal(func(i int, local *BasicModel) error {
		if affected != nil && !affected[i] {
			return nil
		}
		lcfg := cfg
		lcfg.Seed = cfg.Seed + int64(i)*7919
		return local.Train(gl.localTrainingSet(samples, i, lcfg.Seed), lcfg)
	})
	if err != nil || gl.Global == nil {
		return err
	}
	gs := make([]GlobalSample, len(samples))
	for i, s := range samples {
		gs[i] = GlobalSample{Q: s.Q, Tau: s.Tau, SegCards: s.SegCards}
	}
	return gl.Global.Train(gs, gcfg)
}

// Name implements estimator.SearchEstimator.
func (gl *GlobalLocal) Name() string { return gl.Label }

// Family implements estimator.Describer.
func (gl *GlobalLocal) Family() string { return "global-local" }

// TauRange implements estimator.Describer: the locals normalize τ by
// TauScale, so estimates beyond it extrapolate past the trained band.
func (gl *GlobalLocal) TauRange() (min, max float64) { return 0, gl.TauScale }

// SizeBytes sums all local models and the global model (Table 5).
func (gl *GlobalLocal) SizeBytes() int {
	b := 0
	for _, l := range gl.Locals {
		b += nnParamBytes(l)
	}
	if gl.Global != nil {
		b += gl.Global.SizeBytes()
	}
	// Centroids are shared state needed at estimation time.
	for _, c := range gl.Seg.Centroids {
		b += len(c) * 8
	}
	return b
}

// nnParamBytes counts only parameters for GL locals (their anchors are the
// shared centroids, already counted once by SizeBytes).
func nnParamBytes(m *BasicModel) int {
	b := m.SizeBytes()
	for _, a := range m.Anchors {
		b -= len(a) * 8
	}
	return b
}

// --- Serialization ---

type globalLocalSpec struct {
	Label       string
	Variant     int
	Locals      [][]byte
	Global      []byte
	HasGlobal   bool
	Centroids   [][]float64
	Radii       []float64
	MetricRadii []float64
	Metric      int
	TauScale    float64
	Dim         int
	Sigma       float64
}

// MarshalBinary implements encoding.BinaryMarshaler. Segment membership of
// individual points is not serialized — a loaded model can estimate but
// needs re-segmentation for further incremental updates.
func (gl *GlobalLocal) MarshalBinary() ([]byte, error) {
	spec := globalLocalSpec{
		Label:       gl.Label,
		Variant:     int(gl.Variant),
		Centroids:   gl.Seg.Centroids,
		Radii:       gl.Seg.Radii,
		MetricRadii: gl.MetricRadii,
		Metric:      int(gl.Metric),
		TauScale:    gl.TauScale,
		Dim:         gl.Dim,
		Sigma:       gl.Sigma,
	}
	for _, l := range gl.Locals {
		b, err := l.MarshalBinary()
		if err != nil {
			return nil, err
		}
		spec.Locals = append(spec.Locals, b)
	}
	if gl.Global != nil {
		b, err := gl.Global.MarshalBinary()
		if err != nil {
			return nil, err
		}
		spec.Global = b
		spec.HasGlobal = true
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(spec); err != nil {
		return nil, fmt.Errorf("model: marshal %s: %w", gl.Label, err)
	}
	return buf.Bytes(), nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (gl *GlobalLocal) UnmarshalBinary(data []byte) error {
	var spec globalLocalSpec
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
		return fmt.Errorf("model: unmarshal global-local: %w", err)
	}
	gl.Label = spec.Label
	gl.Variant = Variant(spec.Variant)
	gl.Metric = dist.Metric(spec.Metric)
	gl.TauScale = spec.TauScale
	gl.Dim = spec.Dim
	gl.Sigma = spec.Sigma
	gl.Seg = &cluster.Segmentation{
		K:         len(spec.Centroids),
		Centroids: spec.Centroids,
		Radii:     spec.Radii,
		Members:   make([][]int, len(spec.Centroids)),
	}
	gl.Locals = nil
	for i, lb := range spec.Locals {
		l := &BasicModel{}
		if err := l.UnmarshalBinary(lb); err != nil {
			return fmt.Errorf("model: local %d: %w", i, err)
		}
		gl.Locals = append(gl.Locals, l)
	}
	gl.Global = nil
	if spec.HasGlobal {
		g := &GlobalModel{}
		if err := g.UnmarshalBinary(spec.Global); err != nil {
			return err
		}
		gl.Global = g
	}
	// Rebuild the triangle-bound reference points; the radii were saved.
	gl.MetricRadii = spec.MetricRadii
	if gl.MetricRadii != nil {
		gl.initRefs()
	}
	gl.cfg.fill(gl.Dim)
	return nil
}
