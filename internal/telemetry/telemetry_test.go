package telemetry

import (
	"math"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestHistogramBucketBoundaries(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	// le semantics: a value equal to a bound lands in that bound's bucket.
	for _, v := range []float64{0.5, 1.0} {
		h.Observe(v)
	}
	h.Observe(1.5)
	h.Observe(2.0)
	h.Observe(4.0)
	h.Observe(9.0) // overflow
	s := h.Snapshot()
	want := []uint64{2, 2, 1, 1}
	for i, w := range want {
		if s.Counts[i] != w {
			t.Errorf("bucket %d: got %d want %d (counts=%v)", i, s.Counts[i], w, s.Counts)
		}
	}
	if s.Count != 6 {
		t.Errorf("count: got %d want 6", s.Count)
	}
	if math.Abs(s.Sum-18.0) > 1e-12 {
		t.Errorf("sum: got %g want 18", s.Sum)
	}
}

func TestHistogramQuantile(t *testing.T) {
	h := NewHistogram(LinearBuckets(1, 1, 10)) // bounds 1..10
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i%10) + 0.5) // uniform over buckets 1..10
	}
	s := h.Snapshot()
	if p50 := s.Quantile(0.5); p50 < 4 || p50 > 6 {
		t.Errorf("p50 of uniform[0.5,9.5]: got %g, want ~5", p50)
	}
	if p99 := s.Quantile(0.99); p99 < 9 || p99 > 10 {
		t.Errorf("p99: got %g, want in [9,10]", p99)
	}
	// All mass in one bucket: quantiles interpolate within it.
	h2 := NewHistogram([]float64{1, 2, 3})
	for i := 0; i < 10; i++ {
		h2.Observe(1.5)
	}
	s2 := h2.Snapshot()
	if q := s2.Quantile(0.5); q < 1 || q > 2 {
		t.Errorf("single-bucket p50: got %g, want in (1,2]", q)
	}
	// Overflow-only mass reports the largest finite bound.
	h3 := NewHistogram([]float64{1, 2})
	h3.Observe(100)
	if q := h3.Snapshot().Quantile(0.99); q != 2 {
		t.Errorf("overflow quantile: got %g want 2", q)
	}
	// Empty histogram.
	if q := NewHistogram([]float64{1}).Snapshot().Quantile(0.5); q != 0 {
		t.Errorf("empty quantile: got %g want 0", q)
	}
}

func TestHistogramMean(t *testing.T) {
	h := NewHistogram([]float64{10})
	h.Observe(2)
	h.Observe(4)
	if m := h.Snapshot().Mean(); math.Abs(m-3) > 1e-12 {
		t.Errorf("mean: got %g want 3", m)
	}
	if m := NewHistogram([]float64{1}).Snapshot().Mean(); m != 0 {
		t.Errorf("empty mean: got %g want 0", m)
	}
}

func TestBucketPresets(t *testing.T) {
	lin := LinearBuckets(0.05, 0.05, 20)
	if len(lin) != 20 || math.Abs(lin[0]-0.05) > 1e-12 || math.Abs(lin[19]-1.0) > 1e-9 {
		t.Errorf("LinearBuckets: %v", lin)
	}
	exp := ExponentialBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if exp[i] != want[i] {
			t.Errorf("ExponentialBuckets[%d]: got %g want %g", i, exp[i], want[i])
		}
	}
	lat := LatencyBuckets()
	if lat[0] != 1e-6 || len(lat) != 25 {
		t.Errorf("LatencyBuckets: first=%g len=%d", lat[0], len(lat))
	}
	for i := 1; i < len(lat); i++ {
		if lat[i] <= lat[i-1] {
			t.Fatalf("LatencyBuckets not ascending at %d", i)
		}
	}
}

func TestRegistryCountersAndGauges(t *testing.T) {
	r := NewRegistry()
	r.Count(MetricTrainEpochsTotal, 3)
	r.Count(MetricTrainEpochsTotal, 2)
	if got := r.CounterValue(MetricTrainEpochsTotal, ""); got != 5 {
		t.Errorf("counter: got %d want 5", got)
	}
	r.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 7)
	if got := r.CounterValue(MetricEstimatesTotal, "gl+"); got != 7 {
		t.Errorf("labeled counter: got %d want 7", got)
	}
	r.SetGauge("simquery_test_gauge", 1.5)
	r.SetGauge("simquery_test_gauge", 2.5)
	if got := r.GaugeValue("simquery_test_gauge", ""); got != 2.5 {
		t.Errorf("gauge: got %g want 2.5", got)
	}
}

func TestRegistryHistogramAndDuration(t *testing.T) {
	r := NewRegistry()
	r.ObserveDurationLabeled(MetricStageSeconds, LabelStage, "global_route", 2*time.Millisecond)
	snap, ok := r.HistogramSnapshotOf(MetricStageSeconds, "global_route")
	if !ok || snap.Count != 1 {
		t.Fatalf("stage histogram missing: ok=%v snap=%+v", ok, snap)
	}
	if math.Abs(snap.Sum-0.002) > 1e-9 {
		t.Errorf("duration sum: got %g want 0.002", snap.Sum)
	}
	r.Observe(MetricRoutingSelectivity, 0.25)
	if snap, ok := r.HistogramSnapshotOf(MetricRoutingSelectivity, ""); !ok || snap.Count != 1 {
		t.Errorf("selectivity histogram: ok=%v snap=%+v", ok, snap)
	}
}

func TestPrometheusOutput(t *testing.T) {
	r := NewRegistry()
	r.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 4)
	r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
	r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.002)
	r.Observe(MetricRoutingSelectivity, 0.3)

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()

	for _, want := range []string{
		"# TYPE simquery_estimates_total counter",
		`simquery_estimates_total{method="gl+"} 4`,
		"# TYPE simquery_estimate_latency_seconds histogram",
		`simquery_estimate_latency_seconds_count{method="gl+"} 2`,
		"# TYPE simquery_routing_selectivity histogram",
		"simquery_routing_selectivity_count 1",
		`le="+Inf"`,
		"# HELP simquery_estimate_latency_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q\n%s", want, out)
		}
	}

	// Buckets must be cumulative and the +Inf bucket must equal _count.
	var lastCum, count int64 = -1, -1
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, `simquery_estimate_latency_seconds_bucket{method="gl+"`) {
			v, err := lastField(line)
			if err != nil {
				t.Fatalf("parse %q: %v", line, err)
			}
			if v < lastCum {
				t.Errorf("buckets not cumulative: %q after %d", line, lastCum)
			}
			lastCum = v
		}
		if strings.HasPrefix(line, `simquery_estimate_latency_seconds_count{method="gl+"}`) {
			v, err := lastField(line)
			if err != nil {
				t.Fatal(err)
			}
			count = v
		}
	}
	if lastCum != count || count != 2 {
		t.Errorf("+Inf bucket %d != count %d (want 2)", lastCum, count)
	}

	// The handler sets the Prometheus text content type.
	rw := httptest.NewRecorder()
	r.ServeHTTP(rw, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rw.Header().Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Errorf("content type: %q", ct)
	}
	if rw.Body.Len() == 0 {
		t.Error("empty /metrics body")
	}
}

// lastField parses the last whitespace-separated field of line as an int.
func lastField(line string) (int64, error) {
	fields := strings.Fields(line)
	return strconv.ParseInt(fields[len(fields)-1], 10, 64)
}

func TestEscapeLabel(t *testing.T) {
	r := NewRegistry()
	r.CountLabeled("simquery_test_escape_total", "k", "a\"b\\c\nd", 1)
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `k="a\"b\\c\nd"`) {
		t.Errorf("label not escaped:\n%s", sb.String())
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRegistry()
	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			method := []string{"gl+", "mlp", "sampling"}[w%3]
			for i := 0; i < perWorker; i++ {
				r.CountLabeled(MetricEstimatesTotal, LabelMethod, method, 1)
				r.ObserveLabeled(MetricEstimateLatency, LabelMethod, method, float64(i)*1e-6)
				r.Observe(MetricRoutingSelectivity, float64(i%10)/10)
				r.SetGauge("simquery_test_gauge", float64(i))
			}
		}(w)
	}
	wg.Wait()
	var total int64
	for _, m := range []string{"gl+", "mlp", "sampling"} {
		total += r.CounterValue(MetricEstimatesTotal, m)
	}
	if total != workers*perWorker {
		t.Errorf("lost counts: got %d want %d", total, workers*perWorker)
	}
	snap, ok := r.HistogramSnapshotOf(MetricRoutingSelectivity, "")
	if !ok || snap.Count != workers*perWorker {
		t.Errorf("lost observations: ok=%v count=%d want %d", ok, snap.Count, workers*perWorker)
	}
	var bucketSum uint64
	for _, c := range snap.Counts {
		bucketSum += c
	}
	if bucketSum != snap.Count {
		t.Errorf("bucket sum %d != count %d", bucketSum, snap.Count)
	}
}

func TestDefaultRecorderSwap(t *testing.T) {
	if _, ok := Default().(Nop); !ok {
		t.Fatalf("initial default not Nop: %T", Default())
	}
	r := NewRegistry()
	SetDefault(r)
	defer SetDefault(nil)
	if Default() != Recorder(r) {
		t.Error("SetDefault did not install registry")
	}
	Default().ObserveDurationLabeled(MetricStageSeconds, LabelStage, "merge", time.Millisecond)
	if snap, ok := r.HistogramSnapshotOf(MetricStageSeconds, "merge"); !ok || snap.Count != 1 {
		t.Errorf("observation through Default() not recorded: ok=%v snap=%+v", ok, snap)
	}
	SetDefault(nil)
	if _, ok := Default().(Nop); !ok {
		t.Errorf("SetDefault(nil) did not restore Nop: %T", Default())
	}
}

func TestNopZeroAlloc(t *testing.T) {
	SetDefault(nil)
	allocs := testing.AllocsPerRun(1000, func() {
		rec := Default()
		rec.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 1)
		rec.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
		rec.ObserveDurationLabeled(MetricStageSeconds, LabelStage, "global_route", time.Millisecond)
	})
	if allocs != 0 {
		t.Errorf("nop path allocates: %g allocs/op", allocs)
	}
}

func TestRegistrySteadyStateAllocs(t *testing.T) {
	r := NewRegistry()
	// Warm the series so steady state is pure map loads + atomics.
	r.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 1)
	r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
	allocs := testing.AllocsPerRun(1000, func() {
		r.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 1)
		r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
	})
	if allocs != 0 {
		t.Errorf("registry steady state allocates: %g allocs/op", allocs)
	}
}

func TestExpvarSnapshot(t *testing.T) {
	r := NewRegistry()
	r.CountLabeled(MetricEstimatesTotal, LabelMethod, "gl+", 2)
	r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.004)
	snap := r.ExpvarSnapshot()
	if v, ok := snap[`simquery_estimates_total{method=gl+}`]; !ok || v.(int64) != 2 {
		t.Errorf("expvar counter: %v (ok=%v)", v, ok)
	}
	h, ok := snap[`simquery_estimate_latency_seconds{method=gl+}`].(map[string]any)
	if !ok {
		t.Fatalf("expvar histogram missing: %v", snap)
	}
	if h["count"].(uint64) != 1 {
		t.Errorf("expvar histogram count: %v", h["count"])
	}
	if _, ok := snap["uptime_seconds"]; !ok {
		t.Error("uptime missing")
	}
}

func BenchmarkNopRecorder(b *testing.B) {
	SetDefault(nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rec := Default()
		rec.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
	}
}

func BenchmarkRegistryObserve(b *testing.B) {
	r := NewRegistry()
	r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			r.ObserveLabeled(MetricEstimateLatency, LabelMethod, "gl+", 0.001)
		}
	})
}
