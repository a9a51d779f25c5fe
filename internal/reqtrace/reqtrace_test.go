package reqtrace

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"simquery/internal/telemetry"
)

// newTestTracer installs a tracer for the test and restores the previous
// process-wide state afterwards.
func newTestTracer(t *testing.T, cfg Config) *Tracer {
	t.Helper()
	prev := Default()
	tr := Enable(cfg)
	t.Cleanup(func() { defTracer.Store(prev) })
	return tr
}

func TestStartRequestDisabled(t *testing.T) {
	prev := Default()
	Disable()
	t.Cleanup(func() { defTracer.Store(prev) })
	ctx, tr := StartRequest(context.Background(), "GL", 0.5)
	if tr != nil {
		t.Fatal("tracing off: want nil trace")
	}
	if FromContext(ctx) != nil {
		t.Fatal("tracing off: context must not carry a trace")
	}
}

func TestSamplingRate(t *testing.T) {
	tr := newTestTracer(t, Config{SampleEvery: 4})
	sampled := 0
	for i := 0; i < 100; i++ {
		_, tt := StartRequest(context.Background(), "GL", 0.5)
		if tt != nil {
			sampled++
			tt.Finish()
		}
	}
	if sampled != 25 {
		t.Fatalf("1-in-4 sampling over 100 requests: %d sampled, want 25", sampled)
	}
	if got := tr.Sampled(); got != 25 {
		t.Fatalf("Sampled() = %d, want 25", got)
	}
	if got := tr.Published(); got != 25 {
		t.Fatalf("Published() = %d, want 25", got)
	}
}

func TestStageAccumulationAndOutcome(t *testing.T) {
	newTestTracer(t, Config{})
	ctx, tr := StartRequest(context.Background(), "GL-CNN", 0.25)
	if tr == nil {
		t.Fatal("SampleEvery=1: want a trace")
	}
	if FromContext(ctx) != tr {
		t.Fatal("context does not carry the started trace")
	}
	// The same stage may run more than once; elapsed times accumulate.
	for i := 0; i < 2; i++ {
		st := StartStage(tr, StageGlobalRoute)
		time.Sleep(100 * time.Microsecond)
		st.End()
	}
	tr.AddPoolTasks(3)
	tr.SetFlag(FlagCacheMiss | FlagBatch)
	tr.SetOutcome(42.5, nil)
	tr.Finish()
	if tr.StageNs[StageGlobalRoute] <= 0 {
		t.Fatal("global_route stage did not accumulate")
	}
	if tr.PoolTasks != 3 {
		t.Fatalf("PoolTasks = %d, want 3", tr.PoolTasks)
	}
	if tr.Estimate != 42.5 || tr.Err != "" {
		t.Fatalf("outcome: estimate=%g err=%q", tr.Estimate, tr.Err)
	}
	if tr.Latency <= 0 {
		t.Fatal("Finish did not set the latency")
	}
	names := tr.Flags().Names()
	if len(names) != 2 || names[0] != "cache_miss" || names[1] != "batch" {
		t.Fatalf("flag names = %v", names)
	}
}

func TestOutcomeErrorFlags(t *testing.T) {
	newTestTracer(t, Config{})
	_, tr := StartRequest(context.Background(), "GL", 0.5)
	tr.SetOutcome(0, context.DeadlineExceeded)
	if tr.Flags()&FlagError == 0 || tr.Flags()&FlagDeadline == 0 {
		t.Fatalf("deadline error flags = %v", tr.Flags().Names())
	}
	_, tr = StartRequest(context.Background(), "GL", 0.5)
	tr.SetOutcome(0, errors.New("boom"))
	if tr.Flags()&FlagError == 0 || tr.Flags()&FlagDeadline != 0 {
		t.Fatalf("plain error flags = %v", tr.Flags().Names())
	}
	if tr.Err != "boom" {
		t.Fatalf("Err = %q", tr.Err)
	}
}

func TestEnsureOwnership(t *testing.T) {
	newTestTracer(t, Config{})
	// No trace upstream: Ensure samples one and the caller owns it.
	ctx, tr, owned := Ensure(context.Background(), "GL", 0.5)
	if tr == nil || !owned {
		t.Fatalf("fresh Ensure: trace=%v owned=%v", tr, owned)
	}
	// Trace already in the context: Ensure joins it without taking
	// ownership, so only the outermost caller publishes.
	_, tr2, owned2 := Ensure(ctx, "GL", 0.5)
	if tr2 != tr || owned2 {
		t.Fatalf("nested Ensure: same=%v owned=%v", tr2 == tr, owned2)
	}
	tr.Finish()
}

func TestNilTraceSafety(t *testing.T) {
	var tr *Trace
	tr.SetFlag(FlagShed)
	tr.AddPoolTasks(4)
	tr.SetOutcome(1, errors.New("x"))
	st := StartStage(tr, StageLocalEval)
	st.End()
	tr.Finish()
	if tr.Flags() != 0 {
		t.Fatal("nil trace reported flags")
	}
}

func TestSnapshotNewestFirst(t *testing.T) {
	tr := newTestTracer(t, Config{Ring: 8})
	for i := 0; i < 20; i++ {
		_, tt := StartRequest(context.Background(), "GL", 0.5)
		tt.Finish()
	}
	snap := tr.Snapshot(0)
	if len(snap) != 8 {
		t.Fatalf("full-ring snapshot: %d traces, want 8", len(snap))
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID <= snap[i].ID {
			t.Fatalf("snapshot not newest-first: ids %d then %d", snap[i-1].ID, snap[i].ID)
		}
	}
	if snap[0].ID != 20 {
		t.Fatalf("newest trace id = %d, want 20", snap[0].ID)
	}
	if got := tr.Snapshot(3); len(got) != 3 {
		t.Fatalf("bounded snapshot: %d traces, want 3", len(got))
	}
}

func TestSnapshotSlowFilters(t *testing.T) {
	tr := newTestTracer(t, Config{SlowThreshold: time.Hour})
	_, fast := StartRequest(context.Background(), "GL", 0.5)
	fast.Finish()
	_, slow := StartRequest(context.Background(), "GL", 0.5)
	slow.Latency = 2 * time.Hour // sealed by hand to avoid sleeping
	slow.tracer.publish(slow)
	got := tr.SnapshotSlow(0, 0)
	if len(got) != 1 || got[0] != slow {
		t.Fatalf("slow snapshot: %d traces", len(got))
	}
	if got := tr.SnapshotSlow(0, time.Nanosecond); len(got) != 2 {
		t.Fatalf("explicit 1ns floor: %d traces, want 2", len(got))
	}
}

// TestUnsampledZeroAlloc pins the acceptance criterion of the tentpole:
// with tracing enabled but this request unsampled, StartRequest allocates
// nothing — the serving hot path pays one atomic load plus one atomic add.
func TestUnsampledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race runtime changes allocation counts")
	}
	newTestTracer(t, Config{SampleEvery: 1 << 30})
	ctx := context.Background()
	allocs := testing.AllocsPerRun(1000, func() {
		c, tr := StartRequest(ctx, "GL-CNN", 0.5)
		if tr != nil || c != ctx {
			t.Fatal("request unexpectedly sampled")
		}
		tr.SetOutcome(1, nil)
		tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("unsampled StartRequest: %g allocs/op, want 0", allocs)
	}
	// Tracing fully off is equally free.
	prev := Default()
	Disable()
	defer defTracer.Store(prev)
	allocs = testing.AllocsPerRun(1000, func() {
		_, tr := StartRequest(ctx, "GL-CNN", 0.5)
		tr.Finish()
	})
	if allocs != 0 {
		t.Fatalf("disabled StartRequest: %g allocs/op, want 0", allocs)
	}
}

// TestChaosTraceRing hammers the ring with concurrent writers and readers —
// the -race chaos-suite proof that publishing via atomic slot pointers and
// scraping via Snapshot never race, and that every scraped trace is a
// complete, sealed record.
func TestChaosTraceRing(t *testing.T) {
	tr := newTestTracer(t, Config{Ring: 64})
	const writers, perWriter, readers = 8, 200, 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, tt := range tr.Snapshot(0) {
					if tt.ID == 0 || tt.Method != "GL" || tt.Latency < 0 {
						t.Error("scraped an incomplete trace")
						return
					}
				}
				tr.SnapshotSlow(16, time.Nanosecond)
			}
		}()
	}
	var writerWg sync.WaitGroup
	for w := 0; w < writers; w++ {
		writerWg.Add(1)
		go func() {
			defer writerWg.Done()
			for i := 0; i < perWriter; i++ {
				_, tt := StartRequest(context.Background(), "GL", 0.5)
				st := StartStage(tt, StageLocalEval)
				st.End()
				tt.SetOutcome(float64(i), nil)
				tt.Finish()
			}
		}()
	}
	writerWg.Wait()
	close(stop)
	wg.Wait()
	if got := tr.Published(); got != writers*perWriter {
		t.Fatalf("published %d traces, want %d", got, writers*perWriter)
	}
	if got := len(tr.Snapshot(0)); got != 64 {
		t.Fatalf("final snapshot %d traces, want full ring of 64", got)
	}
}

// BenchmarkStartRequestUnsampled is the pinned overhead benchmark of the
// sampled-off trace path (compare BenchmarkStartRequestDisabled).
func BenchmarkStartRequestUnsampled(b *testing.B) {
	prev := Default()
	Enable(Config{SampleEvery: 1 << 30})
	defer defTracer.Store(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := StartRequest(ctx, "GL-CNN", 0.5)
		tr.Finish()
	}
}

// BenchmarkStartRequestDisabled measures the tracing-off path: one atomic
// pointer load.
func BenchmarkStartRequestDisabled(b *testing.B) {
	prev := Default()
	Disable()
	defer defTracer.Store(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := StartRequest(ctx, "GL-CNN", 0.5)
		tr.Finish()
	}
}

// BenchmarkSampledRequest measures the full sampled path: one Trace
// allocation, one context node, stage timers, and ring publication.
func BenchmarkSampledRequest(b *testing.B) {
	prev := Default()
	Enable(Config{})
	defer defTracer.Store(prev)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, tr := StartRequest(ctx, "GL-CNN", 0.5)
		st := StartStage(tr, StageLocalEval)
		st.End()
		tr.SetOutcome(1, nil)
		tr.Finish()
	}
}

// TestStartStageFeedsBothObservers pins the one-helper contract: a single
// StartStage/End pair lands in the request trace and in the Prometheus span
// histogram with the same duration; either observer alone works; with both
// off the timer is the zero value and costs no allocation.
func TestStartStageFeedsBothObservers(t *testing.T) {
	reg := telemetry.NewRegistry()
	telemetry.SetDefault(reg)
	defer telemetry.SetDefault(nil)
	stageCount := func(s Stage) uint64 {
		snap, _ := reg.HistogramSnapshotOf(telemetry.MetricStageSeconds, s.String())
		return snap.Count
	}

	tr := NewDetached("gl+", 0.5)
	st := StartStage(tr, StageMerge)
	time.Sleep(time.Millisecond)
	st.End()
	if tr.StageNs[StageMerge] < int64(time.Millisecond) || stageCount(StageMerge) != 1 {
		t.Fatalf("one pair: trace %d ns, histogram %d samples; want ≥1ms and 1", tr.StageNs[StageMerge], stageCount(StageMerge))
	}
	snap, _ := reg.HistogramSnapshotOf(telemetry.MetricStageSeconds, StageMerge.String())
	if got := int64(snap.Sum * 1e9); got < tr.StageNs[StageMerge]-1000 || got > tr.StageNs[StageMerge]+1000 {
		t.Fatalf("histogram saw %d ns, trace %d ns: not one clock pair", got, tr.StageNs[StageMerge])
	}

	// No request: the histogram alone (feature build, labeling).
	StartStage(nil, StageFeatureBuild).End()
	if stageCount(StageFeatureBuild) != 1 {
		t.Fatal("trace-less stage not recorded in the histogram")
	}

	// Telemetry off: the trace alone.
	telemetry.SetDefault(nil)
	st = StartStage(tr, StageLocalEval)
	st.End()
	if tr.StageNs[StageLocalEval] <= 0 || stageCount(StageLocalEval) != 0 {
		t.Fatal("telemetry-off stage must reach the trace only")
	}
	if StartStage(nil, StageLocalEval) != (StageTimer{}) {
		t.Fatal("both observers off: want the zero timer")
	}
	if raceEnabled {
		return
	}
	if a := testing.AllocsPerRun(1000, func() { StartStage(nil, StageLocalEval).End() }); a != 0 {
		t.Fatalf("both observers off: %g allocs/op", a)
	}
}
