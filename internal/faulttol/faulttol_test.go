package faulttol

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"
)

func TestCaptureConvertsPanic(t *testing.T) {
	err := Capture(func() error { panic("boom") })
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %T, want *PanicError", err)
	}
	if pe.Value != "boom" {
		t.Fatalf("Value = %v", pe.Value)
	}
	if len(pe.Stack) == 0 {
		t.Fatal("stack not captured")
	}
	if pe.Error() == "" {
		t.Fatal("empty Error()")
	}
}

func TestCapturePassesErrorsThrough(t *testing.T) {
	sentinel := errors.New("sentinel")
	if err := Capture(func() error { return sentinel }); !errors.Is(err, sentinel) {
		t.Fatalf("err = %v", err)
	}
	if err := Capture(func() error { return nil }); err != nil {
		t.Fatalf("err = %v", err)
	}
}

func TestRecoveredPassThrough(t *testing.T) {
	// A *PanicError crossing a second recovery point (the pool's re-raise)
	// must come back as the same object, not get re-wrapped.
	first := Recovered("original")
	if second := Recovered(first); second != first {
		t.Fatal("Recovered re-wrapped an existing *PanicError")
	}
	// ... and so must an error wrapping it (a plain estimator method
	// re-panicking with the isolated segment error).
	if third := Recovered(fmt.Errorf("segment 3: %w", first)); third != first {
		t.Fatal("Recovered re-wrapped a *PanicError carried inside an error")
	}
}

func TestFinite(t *testing.T) {
	for _, v := range []float64{0, 1, -3.5, 1e300} {
		if !Finite(v) || CheckFinite(v) != nil {
			t.Fatalf("Finite(%g) = false", v)
		}
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if Finite(v) {
			t.Fatalf("Finite(%g) = true", v)
		}
		if err := CheckFinite(v); !errors.Is(err, ErrNonFinite) {
			t.Fatalf("CheckFinite(%g) = %v", v, err)
		}
	}
}

func TestGateLimits(t *testing.T) {
	g := NewGate(2)
	if !g.TryAcquire() || !g.TryAcquire() {
		t.Fatal("gate refused admission under the limit")
	}
	if g.TryAcquire() {
		t.Fatal("gate admitted past the limit")
	}
	if g.InFlight() != 2 {
		t.Fatalf("InFlight = %d", g.InFlight())
	}
	g.Release()
	if !g.TryAcquire() {
		t.Fatal("gate refused admission after Release")
	}
	if g.Limit() != 2 {
		t.Fatalf("Limit = %d", g.Limit())
	}
}

func TestGateUnlimited(t *testing.T) {
	for _, g := range []*Gate{nil, NewGate(0), NewGate(-1)} {
		for i := 0; i < 100; i++ {
			if !g.TryAcquire() {
				t.Fatal("unlimited gate refused admission")
			}
		}
		g.Release() // must not underflow or panic
	}
}

func TestGateConcurrent(t *testing.T) {
	const limit = 4
	g := NewGate(limit)
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				if g.TryAcquire() {
					if n := g.InFlight(); n < 1 || n > limit {
						t.Errorf("InFlight = %d with limit %d", n, limit)
					}
					g.Release()
				}
			}
		}()
	}
	wg.Wait()
	if g.InFlight() != 0 {
		t.Fatalf("InFlight after drain = %d", g.InFlight())
	}
}
