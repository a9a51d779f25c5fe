package model

import (
	"fmt"

	"simquery/internal/faulttol"
)

// routerSeg is the SegmentError.Seg of a fault in the global router rather
// than in a local model.
const routerSeg = -1

// SegmentError reports a failure confined to one model of a GlobalLocal
// estimate: local model Seg, or the global router when Seg is -1. Unwrap
// exposes the underlying cause (usually a *faulttol.PanicError).
type SegmentError struct {
	Seg int
	Err error
}

// Error implements error.
func (e *SegmentError) Error() string {
	if e.Seg == routerSeg {
		return fmt.Sprintf("model: global routing failed: %v", e.Err)
	}
	return fmt.Sprintf("model: local model %d failed: %v", e.Seg, e.Err)
}

// Unwrap implements errors.Unwrap.
func (e *SegmentError) Unwrap() error { return e.Err }

// isolate runs fn, converting a panic into a *SegmentError naming seg — the
// pipeline's one recovery point, so a crashing model fails its own estimate
// instead of the process.
func isolate(seg int, fn func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &SegmentError{Seg: seg, Err: faulttol.Recovered(r)}
		}
	}()
	return fn()
}
