package cardest

import (
	"context"
	"errors"
	"time"

	"simquery/internal/estcache"
	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/model"
	"simquery/internal/probe"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// ErrOverloaded is returned by the hardened estimate paths when the
// admission gate's in-flight limit is reached; the request was rejected
// before any model work (load shedding, counted in
// simquery_shed_requests_total).
var ErrOverloaded = faulttol.ErrOverloaded

// ServeOptions configures Harden. The zero value is a transparent wrapper:
// no deadline, no admission limit, no fallback — but still panic-isolated
// and NaN-guarded.
type ServeOptions struct {
	// Deadline bounds each request that arrives without its own context
	// deadline (0 = none).
	Deadline time.Duration
	// MaxInFlight bounds concurrent estimates; excess requests fail fast
	// with ErrOverloaded (0 = unlimited).
	MaxInFlight int
	// Fallback, when set, answers requests whose primary estimate panics
	// or comes back non-finite — the paper's cheap always-available
	// baselines (sampling is the canonical choice) as a degradation
	// ladder. Each degraded answer is counted in
	// simquery_degraded_estimates_total.
	Fallback Estimator
	// Cache, when set, answers repeated and near-repeated single-query
	// estimates from τ-anchored entries by monotone interpolation
	// (internal/estcache; build one with NewEstimateCache). Hits are served
	// before admission — a cached answer costs no model work, so it is not
	// shed and not deadline-bounded. Misses with in-band τ fill the entry
	// through the primary's batch path under singleflight; out-of-band τ
	// bypasses the cache entirely. Only healthy primary estimates are
	// cached: fill errors, panics, and non-finite anchor values fall back
	// to the uncached hardened path, so degraded answers never populate
	// the cache. The cache is stamped with ModelGeneration on every
	// lookup, so Save/Load invalidate it wholesale.
	Cache *estcache.Cache
	// Probe, when set, receives every successfully served search estimate
	// for sampled exact labeling (internal/probe): the live q-error and
	// drift instrumentation. Offering is an atomic add for unsampled
	// requests and never blocks the request path.
	Probe *probe.Pipeline
	// Adapt enables online adaptation when serving through ServeAdaptive:
	// mutation batches correct estimates immediately via per-segment delta
	// counters, and probe-detected drift triggers a background retrain of
	// the affected local models, swapped in with zero downtime (DESIGN.md
	// §16). Ignored by plain Harden — the knobs live on the Adapter.
	Adapt *AdaptOptions
	// Precision selects the serving tier (F64, F32, Int8). Non-F64 tiers
	// apply only when the primary is a learned model with a lowered plane
	// (the global-local family, qes, mlp) whose pre-check passes at Harden
	// time; otherwise serving falls back to F64 (counted in
	// simquery_precision_fallbacks_total). The estimate cache is
	// precision-agnostic: entries are keyed on the incoming f64 query, so
	// repeated queries hit regardless of the tier that filled them.
	Precision Precision
}

// RobustEstimator is the fault-tolerant serving wrapper produced by
// Harden: admission control, per-request deadlines, panic isolation,
// numeric-health guards, and automatic degradation to a fallback
// estimator. This is the path production serves on (simserve, the Adapter,
// every replica) — the hot path: on top of the bare model a no-fault
// estimate costs one atomic add/sub for the gate, one branch for the
// fault-injection guard and two float classifications per output value, and
// allocates nothing. All methods are safe for concurrent use.
type RobustEstimator struct {
	primary   Estimator
	serve     served
	fallback  Estimator
	gate      *faulttol.Gate
	deadline  time.Duration
	cache     *estcache.Cache
	probe     *probe.Pipeline
	precision Precision
}

// served is the one shape the hardened paths call the primary through:
// context-aware, error-returning, searches at tier p (joins always run F64).
// Harden resolves the implementation and the tier once (resolveServed).
type served interface {
	search(ctx context.Context, q []float64, tau float64, p Precision) (float64, error)
	searchBatch(ctx context.Context, qs [][]float64, taus []float64, p Precision) ([]float64, error)
	join(ctx context.Context, qs [][]float64, tau float64) (float64, error)
}

// resolveServed picks how the wrapper reaches e and the tier it serves,
// given the requested one. The global-local family is served natively (its
// pipeline checks ctx between local models, isolates a panic to its segment
// and runs every tier); everything else through shim — on the lowered plane
// for a basic model that has the requested one, on F64 otherwise.
func resolveServed(e Estimator, p Precision) (served, Precision) {
	switch v := e.(type) {
	case *model.GlobalLocal:
		return resolveServed(&GlobalLocalEstimator{gl: v}, p)
	case *GlobalLocalEstimator:
		if v.gl.PreCheckPrecision(p) != nil { // eagerly lowers router and locals
			p = F64
		}
		return v, p
	case basicEstimator:
		if p != F64 && v.PreCheckPrecision(p) == nil {
			return shim{e, v.BasicModel}, p
		}
	}
	return shim{e, nil}, F64
}

// shim reaches an estimator with no cooperative path through its plain
// methods, panic-captured with ctx checked at the call boundaries (a
// best-effort deadline). low, when set, is the basic model whose lowered
// plane answers search estimates instead.
type shim struct {
	e   Estimator
	low *model.BasicModel
}

func (s shim) search(ctx context.Context, q []float64, tau float64, p Precision) (float64, error) {
	return bounded(ctx, func() (float64, error) {
		if s.low != nil {
			return s.low.EstimateSearchLowered(q, tau, p)
		}
		return s.e.EstimateSearch(q, tau), nil
	})
}

func (s shim) searchBatch(ctx context.Context, qs [][]float64, taus []float64, p Precision) ([]float64, error) {
	return bounded(ctx, func() ([]float64, error) {
		if s.low != nil {
			return s.low.EstimateSearchBatchLowered(qs, taus, p)
		}
		return s.e.EstimateSearchBatch(qs, taus), nil
	})
}

func (s shim) join(ctx context.Context, qs [][]float64, tau float64) (float64, error) {
	return bounded(ctx, func() (float64, error) { return s.e.EstimateJoin(qs, tau), nil })
}

// bounded runs f panic-captured between two context checks.
func bounded[T any](ctx context.Context, f func() (T, error)) (v T, err error) {
	if err = ctx.Err(); err == nil {
		err = faulttol.Capture(func() (err error) { v, err = f(); return err })
	}
	if err == nil {
		err = ctx.Err()
	}
	return v, err
}

// Harden wraps a trained estimator in the fault-tolerant serving path. How
// the primary is called and which precision tier it serves are resolved
// here, once: a requested non-F64 tier the primary cannot serve (no lowered
// plane, or its eager pre-check fails) falls back to F64.
func Harden(e Estimator, opts ServeOptions) *RobustEstimator {
	serve, p := resolveServed(e, opts.Precision)
	if p != opts.Precision {
		telemetry.Default().Count(telemetry.MetricPrecisionFallbacks, 1)
	}
	return &RobustEstimator{
		primary:   e,
		serve:     serve,
		fallback:  opts.Fallback,
		gate:      faulttol.NewGate(opts.MaxInFlight),
		deadline:  opts.Deadline,
		cache:     opts.Cache,
		probe:     opts.Probe,
		precision: p,
	}
}

// Precision reports the resolved serving tier: the requested tier when the
// primary supports it, F64 otherwise.
func (r *RobustEstimator) Precision() Precision { return r.precision }

// Cache returns the attached estimate cache (nil when caching is off).
func (r *RobustEstimator) Cache() *estcache.Cache { return r.cache }

// RobustEstimator also satisfies the plain Estimator interface so it can
// slot in anywhere a trained estimator is expected (Save unwraps it). The
// plain methods run the hardened path under context.Background(); having
// no error channel, they answer 0 (zero-filled for batches) when a request
// is shed or faults with no fallback registered — prefer the Ctx variants
// in serving code that wants the typed errors.
var _ Estimator = (*RobustEstimator)(nil)

// Name reports the primary estimator's method name.
func (r *RobustEstimator) Name() string { return r.primary.Name() }

// EstimateSearch implements Estimator via EstimateSearchCtx (see the
// interface note above for error handling).
func (r *RobustEstimator) EstimateSearch(q []float64, tau float64) float64 {
	v, _ := r.EstimateSearchCtx(context.Background(), q, tau)
	return v
}

// EstimateSearchBatch implements Estimator via EstimateSearchBatchCtx.
func (r *RobustEstimator) EstimateSearchBatch(qs [][]float64, taus []float64) []float64 {
	out, err := r.EstimateSearchBatchCtx(context.Background(), qs, taus)
	if err != nil {
		return make([]float64, len(qs))
	}
	return out
}

// EstimateJoin implements Estimator via EstimateJoinCtx.
func (r *RobustEstimator) EstimateJoin(qs [][]float64, tau float64) float64 {
	v, _ := r.EstimateJoinCtx(context.Background(), qs, tau)
	return v
}

// SizeBytes reports the primary estimator's footprint (the fallback, when
// set, is accounted by its own SizeBytes).
func (r *RobustEstimator) SizeBytes() int { return r.primary.SizeBytes() }

// Primary returns the wrapped estimator.
func (r *RobustEstimator) Primary() Estimator { return r.primary }

// admit claims an admission slot and applies the configured deadline,
// returning the possibly-derived context and its cancel function (nil when
// no deadline was derived), or ErrOverloaded on shed. On success the caller
// must release(cancel).
func (r *RobustEstimator) admit(ctx context.Context) (context.Context, context.CancelFunc, error) {
	if !r.gate.TryAcquire() {
		telemetry.Default().Count(telemetry.MetricShedRequests, 1)
		return ctx, nil, ErrOverloaded
	}
	if r.deadline > 0 {
		if _, has := ctx.Deadline(); !has {
			ctx, cancel := context.WithTimeout(ctx, r.deadline)
			return ctx, cancel, nil
		}
	}
	return ctx, nil, nil
}

// release undoes a successful admit.
func (r *RobustEstimator) release(cancel context.CancelFunc) {
	if cancel != nil {
		cancel()
	}
	r.gate.Release()
}

// ctxFailure reports whether err is a cancellation/deadline error — those
// are returned to the caller as-is, with no fallback attempt.
func ctxFailure(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}

// cacheFlag maps an estcache lookup outcome onto the trace flag taxonomy.
// Both miss shapes — this caller ran the fill, or it shared a concurrent
// flight's — count as FlagCacheMiss: either way the answer cost model work.
func cacheFlag(o estcache.Outcome) reqtrace.Flags {
	switch o {
	case estcache.OutcomeHit:
		return reqtrace.FlagCacheHit
	case estcache.OutcomeInterpolated:
		return reqtrace.FlagCacheInterpolated
	default:
		return reqtrace.FlagCacheMiss
	}
}

// markPanic sets FlagPanicRecovered when err carries a captured panic
// (directly or wrapped in a *model.SegmentError). Error path only — the
// errors.As walk never runs on healthy requests.
func markPanic(tr *reqtrace.Trace, err error) {
	if tr == nil {
		return
	}
	var pe *faulttol.PanicError
	if errors.As(err, &pe) {
		tr.SetFlag(reqtrace.FlagPanicRecovered)
	}
}

// EstimateSearchCtx answers one search estimate through the hardened path:
// cache-served when a fresh entry covers (q, τ), shed when over the
// in-flight limit, bounded by the per-request deadline, panic-isolated,
// NaN/Inf-guarded, and degraded to the fallback estimator when the primary
// faults. When flight recording is enabled the request is sampled here (or
// joins the trace its caller started), and every successfully served
// estimate is offered to the probe pipeline for exact labeling.
func (r *RobustEstimator) EstimateSearchCtx(ctx context.Context, q []float64, tau float64) (est float64, err error) {
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if owned {
		defer func() {
			tr.SetOutcome(est, err)
			tr.Finish()
		}()
	}
	est, err = r.searchHardened(ctx, tr, q, tau)
	if err == nil {
		r.probe.Offer(q, tau, r.primary.Name(), est)
	}
	return est, err
}

// searchHardened is the EstimateSearchCtx body with the request trace in
// hand (nil when unsampled; every recording call is nil-safe).
func (r *RobustEstimator) searchHardened(ctx context.Context, tr *reqtrace.Trace, q []float64, tau float64) (float64, error) {
	if r.cache != nil {
		if !r.cache.InBand(tau) {
			tr.SetFlag(reqtrace.FlagCacheBypass)
		} else {
			r.cache.SetGeneration(ModelGeneration())
			st := reqtrace.StartStage(tr, reqtrace.StageCacheLookup)
			v, outcome, err := r.cache.GetOrFillOutcome(q, tau, func(anchors []float64) ([]float64, error) {
				ft := reqtrace.StartStage(tr, reqtrace.StageCacheFill)
				defer ft.End()
				return r.fillAnchors(ctx, q, anchors)
			})
			st.End()
			if err == nil {
				tr.SetFlag(cacheFlag(outcome))
				return v, nil
			}
			if errors.Is(err, ErrOverloaded) {
				tr.SetFlag(reqtrace.FlagShed)
				return 0, err
			}
			if ctxFailure(err) && ctx.Err() != nil {
				return 0, err
			}
			// The fill faulted (panic, non-finite anchor, or a singleflight
			// peer's context died while ours is live): serve this request
			// through the uncached hardened path, leaving the cache unfilled.
			markPanic(tr, err)
		}
	}
	return r.one(ctx, tr, func(ctx context.Context) (float64, error) {
		return r.serve.search(ctx, q, tau, r.precision)
	}, func() float64 { return r.fallback.EstimateSearch(q, tau) })
}

// one runs a single-valued request — a search or a join — through guarded,
// with the numeric-health guard on both the primary's and the fallback's
// answer.
func (r *RobustEstimator) one(ctx context.Context, tr *reqtrace.Trace, primary func(context.Context) (float64, error), fallback func() float64) (v float64, err error) {
	err = r.guarded(ctx, tr, 1, func(ctx context.Context) (err error) {
		if v, err = primary(ctx); err == nil {
			v, err = guard(v)
		}
		return err
	}, func() error {
		v = fallback()
		return faulttol.CheckFinite(v)
	})
	if err != nil {
		return 0, err
	}
	return v, nil
}

// guarded is the hardened request shape search, batch and join share:
// admit (shed when over the in-flight limit, bound by the deadline) → the
// primary → on a fault, degrade. primary runs the served call and its
// numeric-health guard under the admitted context; fallback answers the
// same request of n estimates from the fallback estimator (see degrade).
func (r *RobustEstimator) guarded(ctx context.Context, tr *reqtrace.Trace, n int, primary func(context.Context) error, fallback func() error) error {
	ctx, cancel, err := r.admit(ctx)
	if err != nil {
		tr.SetFlag(reqtrace.FlagShed)
		return err
	}
	defer r.release(cancel)
	if err = primary(ctx); err == nil {
		return nil
	}
	markPanic(tr, err)
	return r.degrade(tr, n, err, fallback)
}

// degrade answers n faulted estimates from the fallback estimator: answer
// computes them — panic-captured here — and must reject non-finite values.
// The primary's error comes back instead when it is a context failure (a
// timed-out request has no budget left for a second estimator), when no
// fallback is registered, or when the fallback faults too.
func (r *RobustEstimator) degrade(tr *reqtrace.Trace, n int, primErr error, answer func() error) error {
	if ctxFailure(primErr) || r.fallback == nil {
		return primErr
	}
	st := reqtrace.StartStage(tr, reqtrace.StageFallback)
	err := faulttol.Capture(answer)
	st.End()
	if err != nil {
		return primErr
	}
	tr.SetFlag(reqtrace.FlagDegraded)
	telemetry.Default().Count(telemetry.MetricDegradedEstimates, int64(n))
	return nil
}

// guard applies the output fault-injection point and the numeric-health
// check to one primary value.
func guard(v float64) (float64, error) {
	if faultinject.Armed() {
		v = faultinject.Output.Value(v)
	}
	return v, faulttol.CheckFinite(v)
}

// fillAnchors computes one healthy estimate per cache anchor for q through
// the admitted, panic-isolated primary batch path (so lowered tiers fill
// the precision-agnostic cache with their own estimates). Any fault — shed,
// deadline, panic, or a non-finite anchor value — is an error, so degraded
// or unhealthy values never populate the cache.
func (r *RobustEstimator) fillAnchors(ctx context.Context, q []float64, anchors []float64) ([]float64, error) {
	ctx, cancel, err := r.admit(ctx)
	if err != nil {
		return nil, err
	}
	defer r.release(cancel)
	qs := make([][]float64, len(anchors))
	for i := range qs {
		qs[i] = q
	}
	out, err := r.serve.searchBatch(ctx, qs, anchors, r.precision)
	for i := 0; i < len(out) && err == nil; i++ {
		out[i], err = guard(out[i])
	}
	if err != nil {
		return nil, err
	}
	return out, nil
}

// EstimateSearchBatchCtx answers a batch of search estimates through the
// hardened path. A primary fault (panic, routing failure) degrades the
// whole batch to the fallback; individual non-finite outputs in an
// otherwise healthy batch are replaced per query. Counted degraded
// estimates equal the number of fallback-served queries.
func (r *RobustEstimator) EstimateSearchBatchCtx(ctx context.Context, qs [][]float64, taus []float64) (out []float64, err error) {
	var tau float64
	if len(taus) > 0 {
		tau = taus[0]
	}
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if tr != nil {
		tr.SetFlag(reqtrace.FlagBatch)
		tr.BatchSize = len(qs)
	}
	if owned {
		defer func() {
			var sum float64
			for _, v := range out {
				sum += v
			}
			tr.SetOutcome(sum, err)
			tr.Finish()
		}()
	}
	err = r.guarded(ctx, tr, len(qs), func(ctx context.Context) (err error) {
		if out, err = r.serve.searchBatch(ctx, qs, taus, r.precision); err != nil {
			return err
		}
		// Numeric-health guard per query: replace non-finite entries from
		// the fallback instead of discarding the healthy majority.
		for i := range out {
			if out[i], err = guard(out[i]); err != nil {
				err = r.degrade(tr, 1, err, func() error {
					out[i] = r.fallback.EstimateSearch(qs[i], taus[i])
					return faulttol.CheckFinite(out[i])
				})
				if err != nil {
					return err
				}
			}
		}
		return nil
	}, func() error {
		if out = r.fallback.EstimateSearchBatch(qs, taus); len(out) != len(qs) {
			return faulttol.ErrNonFinite
		}
		return faulttol.CheckFinite(out...)
	})
	if err != nil {
		return nil, err
	}
	for i := range out {
		r.probe.Offer(qs[i], taus[i], r.primary.Name(), out[i])
	}
	return out, nil
}

// EstimateJoinCtx answers one join estimate through the hardened path.
func (r *RobustEstimator) EstimateJoinCtx(ctx context.Context, qs [][]float64, tau float64) (est float64, err error) {
	ctx, tr, owned := reqtrace.Ensure(ctx, r.primary.Name(), tau)
	if tr != nil {
		tr.SetFlag(reqtrace.FlagBatch)
		tr.BatchSize = len(qs)
	}
	if owned {
		defer func() {
			tr.SetOutcome(est, err)
			tr.Finish()
		}()
	}
	return r.one(ctx, tr, func(ctx context.Context) (float64, error) {
		return r.serve.join(ctx, qs, tau)
	}, func() float64 { return r.fallback.EstimateJoin(qs, tau) })
}
