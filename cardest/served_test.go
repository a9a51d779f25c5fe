package cardest

import (
	"context"
	"testing"

	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// servedBatch cuts n queries off the shared test workload.
func servedBatch(f fixture, n int) ([][]float64, []float64) {
	qs, taus := make([][]float64, n), make([]float64, n)
	for i := range qs {
		qs[i], taus[i] = f.test[i%len(f.test)].Vec, f.test[i%len(f.test)].Tau
	}
	return qs, taus
}

// TestServedPathRecordsEstimateMetrics drives the path production serves on
// — Harden over a trained global-local model — and checks the per-method
// serving metrics see it: simquery_estimates_total equals the estimates
// served, and every request leaves exactly one sample in its latency
// histogram and one in each pipeline stage it ran.
func TestServedPathRecordsEstimateMetrics(t *testing.T) {
	r, _, f := hardenedFixture(t, ServeOptions{})
	reg := liveRegistry(t)
	ctx := context.Background()
	const singles, batch = 5, 7
	qs, taus := servedBatch(f, batch)
	for i := 0; i < singles; i++ {
		if _, err := r.EstimateSearchCtx(ctx, qs[i], taus[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := r.EstimateSearchBatchCtx(ctx, qs, taus); err != nil {
		t.Fatal(err)
	}
	if _, err := r.EstimateJoinCtx(ctx, qs, taus[0]); err != nil {
		t.Fatal(err)
	}

	name := r.Name()
	if got := reg.CounterValue(telemetry.MetricEstimatesTotal, name); got != singles+batch {
		t.Errorf("%s{%s} = %d, want %d estimates served", telemetry.MetricEstimatesTotal, name, got, singles+batch)
	}
	samples := func(family, label string) uint64 {
		snap, _ := reg.HistogramSnapshotOf(family, label)
		return snap.Count
	}
	for family, want := range map[string]uint64{
		telemetry.MetricEstimateLatency: singles,
		telemetry.MetricEstimateBatch:   1,
		telemetry.MetricJoinLatency:     1,
	} {
		if got := samples(family, name); got != want {
			t.Errorf("%s{%s} holds %d samples, want %d (one per request)", family, name, got, want)
		}
	}
	const requests = singles + 2
	for _, s := range []reqtrace.Stage{reqtrace.StageGlobalRoute, reqtrace.StageLocalEval, reqtrace.StageMerge} {
		if got := samples(telemetry.MetricStageSeconds, s.String()); got != requests {
			t.Errorf("stage %s holds %d samples, want %d (one per request)", s, got, requests)
		}
	}
}

// TestHardenedEstimateAllocs pins allocations where estimates are served:
// through Harden. The wrapper must add nothing to a single estimate (it and
// the plain method are the same pipeline call), and a 32-query batch stays
// near what the single pipeline measures (10: result, pool closure and job,
// and two gathers per non-contiguous group) — the three-pipeline code it
// replaced measured 41 on this fixture, and 5 against 2 on the single.
func TestHardenedEstimateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime bypasses sync.Pool; allocation counts are not meaningful")
	}
	telemetry.SetDefault(nil)
	reqtrace.Disable()
	r, _, f := hardenedFixture(t, ServeOptions{})
	ctx := context.Background()
	qs, taus := servedBatch(f, 32)
	plain := testing.AllocsPerRun(200, func() { r.Primary().EstimateSearch(qs[0], taus[0]) })
	hardened := testing.AllocsPerRun(200, func() {
		if _, err := r.EstimateSearchCtx(ctx, qs[0], taus[0]); err != nil {
			t.Fatal(err)
		}
	})
	if hardened > plain {
		t.Errorf("hardened single estimate: %g allocs/op, plain EstimateSearch %g — the wrapper must add none", hardened, plain)
	}
	const batchBudget = 12
	batch := testing.AllocsPerRun(100, func() {
		if _, err := r.EstimateSearchBatchCtx(ctx, qs, taus); err != nil {
			t.Fatal(err)
		}
	})
	if batch > batchBudget {
		t.Errorf("hardened batch of %d: %g allocs/op, budget %d", len(qs), batch, batchBudget)
	}
	t.Logf("allocs/op: plain single %g, hardened single %g, hardened batch of %d %g", plain, hardened, len(qs), batch)
}
