// Package faulttol holds the building blocks of the fault-tolerant serving
// path: typed errors for the failure taxonomy, panic capture that converts
// crashes into errors exactly once, a lock-free admission gate for load
// shedding, and numeric-health checks on estimator outputs. The policy —
// when to shed, when to degrade to a fallback estimator, what deadline to
// apply — lives in the cardest serving wrapper; this package only supplies
// the mechanisms, so the tensor and model layers can depend on it without
// cycles.
//
// Every check on the no-fault hot path is O(1): gate admission is one
// atomic add, panic capture is one deferred recover, and finiteness is two
// float classifications. DESIGN.md §10 describes the failure model built
// from these pieces.
package faulttol

import (
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync/atomic"

	"simquery/internal/telemetry"
)

// ErrOverloaded is returned (fast, before any model work) when the
// admission gate's in-flight limit is reached.
var ErrOverloaded = errors.New("faulttol: overloaded: in-flight estimate limit reached")

// ErrNonFinite reports that an estimator produced NaN or ±Inf — the
// numeric-health guard that triggers degradation to the fallback.
var ErrNonFinite = errors.New("faulttol: estimator produced a non-finite value")

// PanicError is a panic converted into an error by one of the recovery
// points, with the stack captured at the panic site.
type PanicError struct {
	Value any
	Stack []byte
}

// Error implements error.
func (e *PanicError) Error() string {
	return fmt.Sprintf("faulttol: recovered panic: %v", e.Value)
}

// Recovered converts a recover() value into a *PanicError. A value that
// already carries a *PanicError — a panic re-raised across a goroutine
// boundary by tensor.Pool, or an isolated one re-raised as the error that
// wraps it by an estimator's plain (error-less) methods — passes through
// unchanged, so each panic is counted in simquery_recovered_panics_total
// exactly once — at first capture.
func Recovered(r any) *PanicError {
	if err, ok := r.(error); ok {
		var pe *PanicError
		if errors.As(err, &pe) {
			return pe
		}
	}
	telemetry.Default().Count(telemetry.MetricRecoveredPanics, 1)
	return &PanicError{Value: r, Stack: debug.Stack()}
}

// Capture runs f, converting a panic into a *PanicError return. The happy
// path costs one deferred recover.
func Capture(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = Recovered(r)
		}
	}()
	return f()
}

// Finite reports whether v is a usable estimate (not NaN, not ±Inf).
func Finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// CheckFinite returns ErrNonFinite when any of vs is NaN or ±Inf.
func CheckFinite(vs ...float64) error {
	for _, v := range vs {
		if !Finite(v) {
			return ErrNonFinite
		}
	}
	return nil
}

// Gate is a lock-free admission gate bounding concurrent in-flight
// requests. A nil Gate or a non-positive limit admits everything.
type Gate struct {
	max      int64
	inflight atomic.Int64
}

// NewGate builds a gate admitting at most max concurrent holders (max ≤ 0
// returns an unlimited gate).
func NewGate(max int) *Gate {
	return &Gate{max: int64(max)}
}

// TryAcquire claims a slot, failing fast (one atomic add, no blocking)
// when the limit is reached. Callers must Release iff it returns true.
func (g *Gate) TryAcquire() bool {
	if g == nil || g.max <= 0 {
		return true
	}
	if g.inflight.Add(1) > g.max {
		g.inflight.Add(-1)
		return false
	}
	return true
}

// Release returns a slot claimed by TryAcquire.
func (g *Gate) Release() {
	if g == nil || g.max <= 0 {
		return
	}
	g.inflight.Add(-1)
}

// InFlight reports the current number of admitted holders.
func (g *Gate) InFlight() int64 {
	if g == nil {
		return 0
	}
	return g.inflight.Load()
}

// Limit reports the gate's admission limit (0 = unlimited).
func (g *Gate) Limit() int {
	if g == nil {
		return 0
	}
	return int(g.max)
}
