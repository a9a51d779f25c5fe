// Package reqtrace is the flight recorder of the serving path: a
// request-scoped trace carried through context.Context from the hardened
// cardest wrappers down through cache, routing, local evaluation, and the
// tensor pool, recording per-stage timings, the estimator method, τ, cache
// and degradation outcomes, and the final estimate. Completed traces land
// in a lock-free ring buffer served over HTTP (/debug/traces and
// /debug/traces/slow on the telemetry mux).
//
// The cost discipline mirrors internal/telemetry: tracing off is one
// atomic pointer load per request; tracing on but this request unsampled
// (head-based 1-in-N sampling) is one more atomic add — no clock read, no
// allocation. Only sampled requests allocate (one *Trace plus the
// context.WithValue node), and a published Trace is immutable, so readers
// scrape the ring without locks while serving continues.
//
// The package imports only the stdlib and internal/telemetry (itself
// stdlib-only), so every layer — cardest, internal/model, internal/estcache,
// internal/tensor — can time a stage without import cycles. It owns the one
// stage table of the repository: StartStage times a stage once and feeds
// both observers, the request's Trace and the Prometheus span histogram.
package reqtrace

import (
	"context"
	"sync/atomic"
	"time"

	"simquery/internal/telemetry"
)

// Stage names one timed pipeline stage: the index of a Trace's timing slot
// and, through String, the stage label of simquery_stage_seconds.
type Stage uint8

// The stage taxonomy (DESIGN.md §13) — the only place stage names are
// declared.
const (
	// StageCacheLookup is the estimate-cache probe (fingerprint, LRU,
	// interpolation) including a miss's singleflight wait.
	StageCacheLookup Stage = iota
	// StageCacheFill is the anchor-fill batch estimate on a cache miss.
	StageCacheFill
	// StageGlobalRoute is the global model's segment selection.
	StageGlobalRoute
	// StageLocalEval is the selected local models' evaluation.
	StageLocalEval
	// StageMerge is the deterministic reduction of local contributions.
	StageMerge
	// StagePool is the pooled parallel region of a batched evaluation
	// (tensor.Pool.DoCtx); a subset of StageLocalEval wall time.
	StagePool
	// StageFallback is the degraded-path fallback estimate.
	StageFallback
	// StageFeatureBuild is one network's input construction (x_Q stacking,
	// τ scaling, anchor distances). It and the labeling stages below run
	// where no request context reaches, so they only ever feed the span
	// histogram.
	StageFeatureBuild
	// StageLabelWorkload, StageLabelQueries and StageLabelSegments cover
	// exact ground-truth construction (internal/workload).
	StageLabelWorkload
	StageLabelQueries
	StageLabelSegments
	numStages
)

// stageNames renders Stage values in metrics, JSON and logs.
var stageNames = [numStages]string{
	"cache_lookup", "cache_fill", "global_route", "local_eval",
	"merge", "pool", "fallback", "feature_build",
	"label_workload", "label_queries", "label_segments",
}

// String implements fmt.Stringer.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Flags mark discrete request outcomes on a Trace.
type Flags uint32

// The trace flag taxonomy. Cache flags are mutually exclusive per request;
// the rest compose freely.
const (
	// FlagCacheHit: answered from an exact cache anchor.
	FlagCacheHit Flags = 1 << iota
	// FlagCacheInterpolated: answered by monotone interpolation between
	// cache anchors.
	FlagCacheInterpolated
	// FlagCacheMiss: the cache was consulted and the entry filled (or the
	// fill was shared with a concurrent miss).
	FlagCacheMiss
	// FlagCacheBypass: τ outside the anchor band, cache not consulted.
	FlagCacheBypass
	// FlagShed: rejected by the admission gate (ErrOverloaded).
	FlagShed
	// FlagDegraded: answered by the fallback estimator.
	FlagDegraded
	// FlagPanicRecovered: a primary-path panic was captured during this
	// request.
	FlagPanicRecovered
	// FlagDeadline: the request died on context deadline/cancellation.
	FlagDeadline
	// FlagError: the request returned an error to the caller.
	FlagError
	// FlagBatch: the trace covers one batched estimate call.
	FlagBatch
	// FlagRetried: the serving router re-dispatched this request to a
	// sibling replica after a failed or shed attempt.
	FlagRetried
	// FlagHedged: the serving router launched a hedge copy of this request
	// to a sibling replica after the p99-derived hedge delay.
	FlagHedged
	// FlagReloaded: the answering replica swapped model generations while
	// this request was in flight (the response carries the generation that
	// actually answered).
	FlagReloaded
	// FlagAdapted: the answering estimator was serving delta-corrected
	// estimates (dataset mutations pending, not yet absorbed by a retrain).
	FlagAdapted
)

// flagNames renders set flags in JSON and logs, in declaration order.
var flagNames = []struct {
	f    Flags
	name string
}{
	{FlagCacheHit, "cache_hit"},
	{FlagCacheInterpolated, "cache_interpolated"},
	{FlagCacheMiss, "cache_miss"},
	{FlagCacheBypass, "cache_bypass"},
	{FlagShed, "shed"},
	{FlagDegraded, "degraded"},
	{FlagPanicRecovered, "panic_recovered"},
	{FlagDeadline, "deadline"},
	{FlagError, "error"},
	{FlagBatch, "batch"},
	{FlagRetried, "retried"},
	{FlagHedged, "hedged"},
	{FlagReloaded, "reloaded"},
	{FlagAdapted, "adapted"},
}

// Names returns the set flags as strings (nil for zero flags).
func (f Flags) Names() []string {
	if f == 0 {
		return nil
	}
	out := make([]string, 0, 4)
	for _, fn := range flagNames {
		if f&fn.f != 0 {
			out = append(out, fn.name)
		}
	}
	return out
}

// Trace is one request's flight record. A Trace is written by the request
// goroutine only (stage timers, flags, outcome) and becomes immutable once
// Finish publishes it to the ring, where readers access it lock-free
// through an atomic pointer. All recording methods are nil-receiver-safe,
// so call sites need no sampled/unsampled branches:
//
//	tr := reqtrace.FromContext(ctx) // nil when unsampled
//	st := reqtrace.StartStage(tr, reqtrace.StageGlobalRoute)
//	... stage work ...
//	st.End()
type Trace struct {
	// ID is the process-unique trace ID (monotone, never zero).
	ID uint64
	// Start is the request's wall-clock start.
	Start time.Time
	// Method is the serving estimator's name (Table 2 naming).
	Method string
	// Tau is the request threshold.
	Tau float64
	// BatchSize is the query count of a batched request (1 for single).
	BatchSize int
	// Estimate is the final served estimate (the batch sum for batched
	// requests).
	Estimate float64
	// Err is the request error, if any ("" on success).
	Err string
	// Latency is the end-to-end request latency, set by Finish.
	Latency time.Duration
	// StageNs accumulates per-stage elapsed nanoseconds.
	StageNs [numStages]int64
	// PoolTasks counts tasks dispatched into the tensor pool's parallel
	// regions on behalf of this request.
	PoolTasks int

	flags  Flags
	tracer *Tracer
}

// Flags returns the accumulated outcome flags.
func (t *Trace) Flags() Flags {
	if t == nil {
		return 0
	}
	return t.flags
}

// SetFlag marks an outcome on the trace. Nil-safe.
func (t *Trace) SetFlag(f Flags) {
	if t != nil {
		t.flags |= f
	}
}

// AddPoolTasks counts n tasks dispatched to the tensor pool. Nil-safe.
func (t *Trace) AddPoolTasks(n int) {
	if t != nil {
		t.PoolTasks += n
	}
}

// SetOutcome records the served estimate and error. A non-nil err sets
// FlagError (and FlagDeadline for context errors). Nil-safe.
func (t *Trace) SetOutcome(est float64, err error) {
	if t == nil {
		return
	}
	t.Estimate = est
	if err != nil {
		t.Err = err.Error()
		t.flags |= FlagError
		if err == context.DeadlineExceeded || err == context.Canceled {
			t.flags |= FlagDeadline
		}
	}
}

// StageTimer measures one stage; the zero value (no trace, telemetry off)
// is a no-op with no clock read.
type StageTimer struct {
	t     *Trace
	rec   telemetry.Recorder
	stage Stage
	start time.Time
}

// StartStage opens stage s for both observers from one clock read: t (nil
// when the request is unsampled or the caller has no request) accumulates
// the elapsed time into its StageNs slot, and a live telemetry recorder
// observes it into simquery_stage_seconds{stage=s}. With neither, it
// returns the zero timer at the cost of one atomic load. Stages may run
// more than once per request (e.g. a cache-miss request routes twice);
// trace times accumulate.
func StartStage(t *Trace, s Stage) StageTimer {
	rec := telemetry.Default()
	if !rec.Enabled() {
		if t == nil {
			return StageTimer{}
		}
		rec = nil
	}
	return StageTimer{t: t, rec: rec, stage: s, start: time.Now()}
}

// End records the stage's elapsed time. No-op on the zero timer.
func (st StageTimer) End() {
	if st.t == nil && st.rec == nil {
		return
	}
	d := time.Since(st.start)
	if st.t != nil {
		st.t.StageNs[st.stage] += d.Nanoseconds()
	}
	if st.rec != nil {
		st.rec.ObserveDurationLabeled(telemetry.MetricStageSeconds, telemetry.LabelStage, st.stage.String(), d)
	}
}

// Finish seals the trace — computes the end-to-end latency and publishes
// the record to its tracer's ring. Call exactly once, after which the
// trace must not be mutated. Nil-safe.
func (t *Trace) Finish() {
	if t == nil {
		return
	}
	t.Latency = time.Since(t.Start)
	if t.tracer != nil {
		t.tracer.publish(t)
	}
}

// ctxKey carries a *Trace in a context.Context.
type ctxKey struct{}

// NewContext returns a context carrying tr.
func NewContext(ctx context.Context, tr *Trace) context.Context {
	return context.WithValue(ctx, ctxKey{}, tr)
}

// FromContext returns the trace carried by ctx, or nil. The nil result is
// directly usable: every Trace method is nil-safe.
func FromContext(ctx context.Context) *Trace {
	if ctx == nil {
		return nil
	}
	tr, _ := ctx.Value(ctxKey{}).(*Trace)
	return tr
}

// Config configures a Tracer.
type Config struct {
	// Ring is the completed-trace ring capacity (default 256).
	Ring int
	// SampleEvery samples one request in every SampleEvery (default 1 =
	// every request). Head-based: the decision is made at request start
	// with one atomic add, so unsampled requests never allocate.
	SampleEvery int
	// SlowThreshold is the default latency floor of /debug/traces/slow
	// (default 1ms; requests at or above it count as slow).
	SlowThreshold time.Duration
}

// Tracer samples requests and retains completed traces in a fixed ring.
// All methods are safe for concurrent use.
type Tracer struct {
	ring    []atomic.Pointer[Trace]
	head    atomic.Uint64 // completed-trace publish counter
	every   uint64
	counter atomic.Uint64
	ids     atomic.Uint64
	slow    time.Duration
	started atomic.Uint64 // sampled traces started (tests, expvar)
}

// NewTracer builds a Tracer from cfg.
func NewTracer(cfg Config) *Tracer {
	if cfg.Ring <= 0 {
		cfg.Ring = 256
	}
	if cfg.SampleEvery <= 0 {
		cfg.SampleEvery = 1
	}
	if cfg.SlowThreshold <= 0 {
		cfg.SlowThreshold = time.Millisecond
	}
	return &Tracer{
		ring:  make([]atomic.Pointer[Trace], cfg.Ring),
		every: uint64(cfg.SampleEvery),
		slow:  cfg.SlowThreshold,
	}
}

// Sampled reports the number of traces this tracer has started.
func (tr *Tracer) Sampled() uint64 { return tr.started.Load() }

// Published reports the number of completed traces published to the ring.
func (tr *Tracer) Published() uint64 { return tr.head.Load() }

// sample makes the head-based sampling decision and, when this request is
// picked, allocates its Trace. The unsampled path is one atomic add.
func (tr *Tracer) sample(method string, tau float64) *Trace {
	if tr.every > 1 && tr.counter.Add(1)%tr.every != 0 {
		return nil
	}
	tr.started.Add(1)
	return &Trace{
		ID:        tr.ids.Add(1),
		Start:     time.Now(),
		Method:    method,
		Tau:       tau,
		BatchSize: 1,
		tracer:    tr,
	}
}

// publish stores the finished trace into the ring. Slot claim is a single
// atomic add; the pointer store makes the record visible to readers. A
// writer lapped by ring wrap-around simply overwrites the oldest slot.
func (tr *Tracer) publish(t *Trace) {
	h := tr.head.Add(1) - 1
	tr.ring[h%uint64(len(tr.ring))].Store(t)
}

// Snapshot returns up to n most-recent completed traces, newest first
// (n <= 0 means the whole ring). Traces are immutable once published, so
// the returned records are safe to read while serving continues. Under
// concurrent publishing the snapshot is a best-effort recent window, not
// a consistent cut.
func (tr *Tracer) Snapshot(n int) []*Trace {
	size := len(tr.ring)
	if n <= 0 || n > size {
		n = size
	}
	h := tr.head.Load()
	out := make([]*Trace, 0, n)
	for i := uint64(0); i < uint64(n) && i < h; i++ {
		t := tr.ring[(h-1-i)%uint64(size)].Load()
		if t == nil {
			break // ring not yet full
		}
		out = append(out, t)
	}
	return out
}

// SnapshotSlow returns the traces of Snapshot(n) at or above minLatency
// (minLatency <= 0 uses the configured slow threshold).
func (tr *Tracer) SnapshotSlow(n int, minLatency time.Duration) []*Trace {
	if minLatency <= 0 {
		minLatency = tr.slow
	}
	all := tr.Snapshot(n)
	out := all[:0]
	for _, t := range all {
		if t.Latency >= minLatency {
			out = append(out, t)
		}
	}
	return out
}

// defTracer holds the process-wide tracer; nil means tracing off.
var defTracer atomic.Pointer[Tracer]

// Enable installs a tracer built from cfg as the process-wide tracer and
// returns it. Sampling applies to requests started after the install.
func Enable(cfg Config) *Tracer {
	tr := NewTracer(cfg)
	defTracer.Store(tr)
	return tr
}

// Disable removes the process-wide tracer; subsequent requests pay one
// atomic load and are never sampled. Traces already started finish
// against the tracer they were sampled by (their rings stay readable
// through the retained *Tracer).
func Disable() { defTracer.Store(nil) }

// Default returns the process-wide tracer, or nil when tracing is off.
func Default() *Tracer { return defTracer.Load() }

// StartRequest makes the sampling decision for a new request against the
// process-wide tracer. It returns the input context and a nil trace when
// tracing is off or the request is unsampled (one atomic load, at most
// one atomic add — no allocation); otherwise a derived context carrying
// the new trace. The caller owns the returned trace and must Finish it.
func StartRequest(ctx context.Context, method string, tau float64) (context.Context, *Trace) {
	tr := defTracer.Load()
	if tr == nil {
		return ctx, nil
	}
	t := tr.sample(method, tau)
	if t == nil {
		return ctx, nil
	}
	return NewContext(ctx, t), t
}

// detachedIDs numbers detached traces so log lines can join on them; the
// high bit keeps them from colliding with tracer-issued IDs.
var detachedIDs atomic.Uint64

// NewDetached returns a trace bound to no tracer: Finish computes the
// latency but publishes nothing. Serving handlers use it to observe
// per-request outcome flags (degraded, shed, cache path) through the
// hardened wrappers even when flight recording is off — put it in the
// request context with NewContext and the wrappers record into it exactly
// as they would into a sampled trace.
func NewDetached(method string, tau float64) *Trace {
	return &Trace{
		ID:        detachedIDs.Add(1) | 1<<63,
		Start:     time.Now(),
		Method:    method,
		Tau:       tau,
		BatchSize: 1,
	}
}

// Ensure returns the request trace: the one already carried by ctx
// (owned=false — an upstream caller will Finish it), or a freshly sampled
// one (owned=true — the caller must Finish it). Serving wrappers use it
// so tracing works whether or not the entry point (a CLI loop, a network
// handler) started the trace itself.
func Ensure(ctx context.Context, method string, tau float64) (context.Context, *Trace, bool) {
	if t := FromContext(ctx); t != nil {
		return ctx, t, false
	}
	ctx, t := StartRequest(ctx, method, tau)
	return ctx, t, t != nil
}
