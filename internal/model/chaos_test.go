package model

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/reqtrace"
	"simquery/internal/tensor"
)

// tiers are the inference planes every chaos case runs on: the fault
// contract belongs to the one pipeline, not to the F64 copy of it.
var tiers = []Precision{F64, F32, Int8}

// TestChaosLocalPanicIsolatedSerial proves the per-local-model recovery
// contract on the single-query path of every tier: an injected panic inside
// one segment model surfaces as a *SegmentError naming the segment (wrapping
// the recovered panic), and after disarming the same query estimates
// cleanly, to the bit it answered before the fault.
func TestChaosLocalPanicIsolatedSerial(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	f := getFixture(t)
	q := f.w.Test[0]
	ctx := context.Background()
	for _, p := range tiers {
		t.Run(p.String(), func(t *testing.T) {
			defer faultinject.Reset()
			want, err := gl.EstimateSearchPrecision(ctx, q.Vec, q.Tau, p)
			if err != nil {
				t.Fatalf("before the fault: %v", err)
			}

			faultinject.LocalEval.Set(&faultinject.Plan{PanicOn: 1})
			_, err = gl.EstimateSearchPrecision(ctx, q.Vec, q.Tau, p)
			if err == nil {
				t.Fatal("estimate with injected local panic returned nil error")
			}
			var se *SegmentError
			if !errors.As(err, &se) {
				t.Fatalf("error = %T (%v), want *SegmentError", err, err)
			}
			if se.Seg < 0 || se.Seg >= gl.Seg.K {
				t.Fatalf("SegmentError names segment %d, want one of 0..%d", se.Seg, gl.Seg.K-1)
			}
			var pe *faulttol.PanicError
			if !errors.As(err, &pe) {
				t.Fatalf("SegmentError does not wrap *faulttol.PanicError: %v", err)
			}
			if _, ok := pe.Value.(*faultinject.InjectedPanic); !ok {
				t.Fatalf("recovered panic value = %T, want *faultinject.InjectedPanic", pe.Value)
			}

			faultinject.Reset()
			got, err := gl.EstimateSearchPrecision(ctx, q.Vec, q.Tau, p)
			if err != nil || got != want {
				t.Fatalf("after reset: %g, %v; want %g as before the fault", got, err, want)
			}
		})
	}
}

// TestChaosLocalPanicIsolatedBatch proves the acceptance criterion for the
// batched path of every tier: an injected panic in one local model fails
// the batch with a *SegmentError while the process survives and other
// tensor.Pool callers keep serving throughout; once disarmed the batch
// answers as before the fault and a traced request records the pipeline's
// stages.
func TestChaosLocalPanicIsolatedBatch(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	qs, taus := testBatch(t)
	ctx := context.Background()

	// Unrelated pool traffic that must keep completing while a local model
	// panics: the pool's recovery contract confines the fault to the job
	// that raised it.
	stop := make(chan struct{})
	var bystanderJobs atomic.Int64
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				tensor.DefaultPool().Do(8, func(int) {})
				bystanderJobs.Add(1)
			}
		}()
	}
	defer wg.Wait()
	defer close(stop)
	for bystanderJobs.Load() == 0 {
		runtime.Gosched() // bystanders are up before the first fault
	}

	for _, p := range tiers {
		t.Run(p.String(), func(t *testing.T) {
			defer faultinject.Reset()
			want, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, p)
			if err != nil {
				t.Fatalf("before the fault: %v", err)
			}

			faultinject.LocalEval.Set(&faultinject.Plan{PanicOn: 1})
			_, err = gl.EstimateSearchBatchPrecision(ctx, qs, taus, p)
			if err == nil {
				t.Fatal("batch with injected local panic returned nil error")
			}
			var se *SegmentError
			if !errors.As(err, &se) || se.Seg < 0 {
				t.Fatalf("batch error = %T (%v), want *SegmentError naming a local", err, err)
			}
			// The pool keeps serving the bystanders after the fault.
			for c := bystanderJobs.Load(); bystanderJobs.Load() == c; {
				runtime.Gosched()
			}

			faultinject.Reset()
			tr := reqtrace.NewDetached(gl.Label, taus[0])
			got, err := gl.EstimateSearchBatchPrecision(reqtrace.NewContext(ctx, tr), qs, taus, p)
			if err != nil {
				t.Fatalf("after reset: %v", err)
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("query %d after reset: %g, want %g as before the fault", i, got[i], want[i])
				}
			}
			for _, s := range []reqtrace.Stage{reqtrace.StageGlobalRoute, reqtrace.StageLocalEval, reqtrace.StageMerge} {
				if tr.StageNs[s] <= 0 {
					t.Errorf("traced batch recorded no %s time", s)
				}
			}
		})
	}
}

// TestChaosCtxCancellation checks cooperative cancellation on every tier:
// an already-cancelled context stops every error-returning entry point
// before any model work, returning the context's own error (never a
// degraded estimate) — and mismatched batch lengths are an error there too,
// not a panic.
func TestChaosCtxCancellation(t *testing.T) {
	gl := trainedGL(t, GLCNN)
	f := getFixture(t)
	q := f.w.Test[0]
	live := context.Background()
	ctx, cancel := context.WithCancel(live)
	cancel()
	for _, p := range tiers {
		if _, err := gl.EstimateSearchPrecision(ctx, q.Vec, q.Tau, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v single on cancelled ctx: err = %v, want context.Canceled", p, err)
		}
		if _, err := gl.EstimateSearchBatchPrecision(ctx, [][]float64{q.Vec}, []float64{q.Tau}, p); !errors.Is(err, context.Canceled) {
			t.Fatalf("%v batch on cancelled ctx: err = %v, want context.Canceled", p, err)
		}
		if out, err := gl.EstimateSearchBatchPrecision(live, [][]float64{q.Vec, q.Vec}, []float64{q.Tau}, p); err == nil {
			t.Fatalf("%v batch of 2 queries and 1 threshold: got %v, want an error", p, out)
		}
	}
	if _, err := gl.EstimateSearchCtx(ctx, q.Vec, q.Tau); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateSearchCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := gl.EstimateSearchBatchCtx(ctx, [][]float64{q.Vec}, []float64{q.Tau}); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateSearchBatchCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
	if _, err := gl.EstimateJoinCtx(ctx, [][]float64{q.Vec}, q.Tau); !errors.Is(err, context.Canceled) {
		t.Fatalf("EstimateJoinCtx on cancelled ctx: err = %v, want context.Canceled", err)
	}
}
