// Package telemetry is the stdlib-only observability substrate for the
// serving and training paths: atomic counters, gauges, and lock-free
// fixed-bucket histograms with p50/p95/p99 snapshots, and a registry that
// renders everything in Prometheus text format (plus an expvar snapshot).
// Per-stage timings land in MetricStageSeconds through
// internal/reqtrace.StartStage, the one stage helper.
//
// The design goal is that instrumentation is free when telemetry is off:
// every hot path records through the Recorder interface, whose default
// implementation is a no-op that performs zero allocations and no clock
// reads. Installing a live *Registry (cardest.ServeTelemetry does this)
// turns the same call sites into lock-free atomic updates.
//
// Metric naming follows Prometheus conventions: a family name like
// simquery_stage_seconds, one optional label per family (low cardinality:
// method names, stage names), histograms in base units (seconds,
// fractions). The full taxonomy lives in DESIGN.md §8.
package telemetry

import (
	"sync/atomic"
	"time"
)

// Metric families recorded by the instrumented paths. Families are
// registered with help text and buckets by NewRegistry; the constants keep
// call sites and tests in one vocabulary.
const (
	// MetricEstimateLatency is the per-call latency of single-query
	// estimates, labeled by method (Table 2 naming).
	MetricEstimateLatency = "simquery_estimate_latency_seconds"
	// MetricEstimateBatch is the per-call latency of one batched estimate
	// call (the whole batch, not per query), labeled by method.
	MetricEstimateBatch = "simquery_estimate_batch_seconds"
	// MetricEstimatesTotal counts estimates served, labeled by method;
	// batched calls add the batch size.
	MetricEstimatesTotal = "simquery_estimates_total"
	// MetricBatchFallback counts batched estimate calls that silently
	// serialized into a per-query loop because the method has no native
	// batch path, labeled by method.
	MetricBatchFallback = "simquery_batch_serial_fallback_total"
	// MetricStageSeconds is the span histogram: time per pipeline stage,
	// labeled by stage. Stages are opened through reqtrace.StartStage, which
	// owns the stage names.
	MetricStageSeconds = "simquery_stage_seconds"
	// MetricRoutingSelectivity is the fraction of local models the global
	// model selects per query — the paper's pruning claim as a live signal.
	MetricRoutingSelectivity = "simquery_routing_selectivity"
	// MetricJoinLatency is the per-call latency of join estimates, labeled
	// by method.
	MetricJoinLatency = "simquery_join_latency_seconds"
	// MetricTrainEpochLoss observes the mean mini-batch loss of each
	// finished training epoch (local, global, and CardNet loops).
	MetricTrainEpochLoss = "simquery_train_epoch_loss"
	// MetricTrainEpochsTotal counts finished training epochs.
	MetricTrainEpochsTotal = "simquery_train_epochs_total"
	// MetricLabeledQueriesTotal counts exactly-labeled queries (training
	// data construction throughput).
	MetricLabeledQueriesTotal = "simquery_labeled_queries_total"
	// MetricPoolWorkers is the configured worker count of the tensor
	// kernel pool.
	MetricPoolWorkers = "simquery_tensor_pool_workers"
	// MetricPoolUtilization is the fraction of tensor-pool workers
	// currently inside a parallel region.
	MetricPoolUtilization = "simquery_tensor_pool_utilization"
	// MetricPoolDispatchTotal counts parallel dispatches onto the tensor
	// pool (inline/serial kernel runs are not counted).
	MetricPoolDispatchTotal = "simquery_tensor_pool_dispatch_total"
	// MetricRecoveredPanics counts panics converted into errors by the
	// fault-tolerant serving paths (pool workers, local-model isolation,
	// the hardened estimate wrapper). Each panic is counted once, at first
	// capture.
	MetricRecoveredPanics = "simquery_recovered_panics_total"
	// MetricDegradedEstimates counts estimates answered by the registered
	// fallback estimator after the primary panicked or produced a
	// non-finite value; batched degradations add the batch size.
	MetricDegradedEstimates = "simquery_degraded_estimates_total"
	// MetricShedRequests counts estimate requests rejected by the
	// admission gate because the in-flight limit was reached.
	MetricShedRequests = "simquery_shed_requests_total"
	// MetricPrecisionFallbacks counts Harden calls that requested a lowered
	// serving tier (f32/int8) but fell back to f64 because the estimator has
	// no lowered path or its precision pre-check failed.
	MetricPrecisionFallbacks = "simquery_precision_fallbacks_total"
	// MetricCacheHits counts estimate-cache lookups answered from a cached
	// entry (exact anchor or interpolated).
	MetricCacheHits = "simquery_estcache_hits_total"
	// MetricCacheMisses counts estimate-cache lookups that fell through to
	// the real estimator (fingerprint miss, stale generation, or expired
	// TTL).
	MetricCacheMisses = "simquery_estcache_misses_total"
	// MetricCacheInterpolated counts cache hits answered by monotone
	// interpolation between τ anchors rather than an exact anchor match.
	MetricCacheInterpolated = "simquery_estcache_interpolated_total"
	// MetricCacheEvictions counts entries dropped from the estimate cache
	// (LRU pressure, TTL expiry, or stale generation).
	MetricCacheEvictions = "simquery_estcache_evictions_total"
	// MetricCacheHitRate is the cumulative hit fraction of the estimate
	// cache: hits / (hits + misses) since process start.
	MetricCacheHitRate = "simquery_estcache_hit_rate"
	// MetricCacheEntries is the current number of live entries across all
	// cache shards.
	MetricCacheEntries = "simquery_estcache_entries"
	// MetricProbeQError observes the q-error of sampled served estimates
	// against exact background counts, labeled by estimator family — the
	// paper's Table 2 accuracy claim as a live signal.
	MetricProbeQError = "simquery_probe_qerror"
	// MetricProbeQErrorTau is the same probe q-error broken out by τ band
	// (quartiles of τ_max), so accuracy drift localized to one end of the
	// threshold band is visible (cf. Wang et al., monotonic estimation
	// across the τ band).
	MetricProbeQErrorTau = "simquery_probe_qerror_tau"
	// MetricProbeDrift is the EWMA of |log q-error| over completed probes —
	// the drift gauge a background retrainer watches: near 0 while the
	// model tracks the data, rising as served accuracy decays.
	MetricProbeDrift = "simquery_probe_drift_logq"
	// MetricProbesTotal counts completed accuracy probes (exact label
	// computed and q-error recorded).
	MetricProbesTotal = "simquery_probes_total"
	// MetricProbeDropped counts sampled probes dropped because the probe
	// queue was full — backpressure never reaches the request path.
	MetricProbeDropped = "simquery_probe_dropped_total"
	// MetricProbeQueueDepth is the current probe queue occupancy.
	MetricProbeQueueDepth = "simquery_probe_queue_depth"
	// MetricServingRequests counts router-dispatched requests by final
	// outcome (LabelOutcome: ok, degraded, fallback, error).
	MetricServingRequests = "simquery_serving_requests_total"
	// MetricServingLatency observes end-to-end router request latency
	// (dispatch through final answer, including retries and hedges).
	MetricServingLatency = "simquery_serving_request_seconds"
	// MetricServingRetries counts re-dispatches to a sibling replica after
	// a failed or shed attempt.
	MetricServingRetries = "simquery_serving_retries_total"
	// MetricServingHedges counts hedge copies launched after the
	// p99-derived hedge delay.
	MetricServingHedges = "simquery_serving_hedges_total"
	// MetricServingShedByReplica counts 429 responses received from
	// replicas (the admission gate seen from the client side).
	MetricServingShedByReplica = "simquery_serving_replica_shed_total"
	// MetricServingFallbacks counts requests answered by the router's
	// local degraded tier after every replica attempt failed.
	MetricServingFallbacks = "simquery_serving_fallback_total"
	// MetricServingReloads counts completed zero-downtime model swaps on
	// replicas (POST /reload).
	MetricServingReloads = "simquery_serving_reloads_total"
	// MetricServingCircuitState reports each replica's circuit state
	// (LabelReplica; 0 = closed, 1 = half-open, 2 = open).
	MetricServingCircuitState = "simquery_serving_circuit_state"
	// MetricReplicaRequests counts requests served by this replica process,
	// labeled by outcome (ok, degraded, shed, deadline, error).
	MetricReplicaRequests = "simquery_replica_requests_total"
	// MetricMutationsTotal counts applied dataset mutations, labeled by op
	// (insert, delete).
	MetricMutationsTotal = "simquery_mutations_total"
	// MetricPendingDeltas is the number of mutations applied since the
	// serving model's last (re)train — the delta-adjusted estimates' drift
	// budget; falls back to 0 after a retrain swap.
	MetricPendingDeltas = "simquery_pending_deltas"
	// MetricLiveDatasetSize is the current live dataset size (objects).
	MetricLiveDatasetSize = "simquery_live_dataset_size"
	// MetricProbeDriftFamily is the per-family EWMA of |log q-error| the
	// drift monitor scores (probe_drift_logq broken out by family).
	MetricProbeDriftFamily = "simquery_probe_drift_logq_family"
	// MetricDriftEvents counts drift-threshold crossings (hysteresis gate
	// firings), labeled by estimator family.
	MetricDriftEvents = "simquery_drift_events_total"
	// MetricRetrainsTotal counts background retrain runs by outcome
	// (ok, error, deadline, skipped).
	MetricRetrainsTotal = "simquery_retrains_total"
	// MetricRetrainSeconds observes the wall time of background retrain
	// runs (snapshot through swap).
	MetricRetrainSeconds = "simquery_retrain_seconds"
)

// Label keys used by the standard families. LabelFamily groups the probe
// accuracy series by estimator family (Describer.Family values), and
// LabelTauBand buckets them by threshold quartile.
const (
	LabelMethod  = "method"
	LabelStage   = "stage"
	LabelFamily  = "family"
	LabelTauBand = "tau_band"
	LabelOutcome = "outcome"
	LabelReplica = "replica"
	LabelOp      = "op"
)

// Recorder is the instrumentation surface the hot paths record through.
// Implementations must be safe for concurrent use. The Labeled variants
// attach one label (key, value) to the series; families use at most one
// label key, and callers must pass the same key for a given family.
//
// Enabled reports whether recording does anything; hot paths use it to
// skip clock reads and derived-value computation entirely when telemetry
// is off.
type Recorder interface {
	Enabled() bool
	Count(name string, delta int64)
	CountLabeled(name, labelKey, labelVal string, delta int64)
	SetGauge(name string, v float64)
	SetGaugeLabeled(name, labelKey, labelVal string, v float64)
	Observe(name string, v float64)
	ObserveLabeled(name, labelKey, labelVal string, v float64)
	ObserveDuration(name string, d time.Duration)
	ObserveDurationLabeled(name, labelKey, labelVal string, d time.Duration)
}

// Nop is the default Recorder: every method is an empty body and Enabled
// is false. It allocates nothing and reads no clocks.
type Nop struct{}

// Enabled implements Recorder.
func (Nop) Enabled() bool { return false }

// Count implements Recorder.
func (Nop) Count(string, int64) {}

// CountLabeled implements Recorder.
func (Nop) CountLabeled(string, string, string, int64) {}

// SetGauge implements Recorder.
func (Nop) SetGauge(string, float64) {}

// SetGaugeLabeled implements Recorder.
func (Nop) SetGaugeLabeled(string, string, string, float64) {}

// Observe implements Recorder.
func (Nop) Observe(string, float64) {}

// ObserveLabeled implements Recorder.
func (Nop) ObserveLabeled(string, string, string, float64) {}

// ObserveDuration implements Recorder.
func (Nop) ObserveDuration(string, time.Duration) {}

// ObserveDurationLabeled implements Recorder.
func (Nop) ObserveDurationLabeled(string, string, string, time.Duration) {}

// defaultRec holds the process-wide Recorder. A nil pointer (the initial
// state) or a stored nil Recorder both mean Nop.
var defaultRec atomic.Pointer[Recorder]

// Default returns the process-wide Recorder (Nop until SetDefault installs
// a live one). The load is a single atomic pointer read, so hot paths call
// it per operation.
func Default() Recorder {
	if p := defaultRec.Load(); p != nil && *p != nil {
		return *p
	}
	return Nop{}
}

// SetDefault installs rec as the process-wide Recorder; nil restores the
// no-op default. Safe to call concurrently with recording — in-flight
// operations finish against the recorder they loaded.
func SetDefault(rec Recorder) {
	if rec == nil {
		defaultRec.Store(nil)
		return
	}
	defaultRec.Store(&rec)
}
