package model

import (
	"sync/atomic"
)

// This file is the immediate-correction half of online adaptation (ROADMAP
// item 4): sampling-corrected per-segment delta counts. A trained local
// model represents its segment's population at training time (base_i). When
// the dataset mutates under live traffic, the serving layer routes each
// inserted/deleted vector to its nearest segment and bumps an atomic
// per-segment counter here; every estimate path then scales each segment's
// contribution by live_i/base_i and clamps it to [0, live_i] — the same
// correction a uniform sampling estimator applies when its sample-to-
// population ratio changes. Estimates track mutations immediately, before
// any retrain, and the clamp keeps the global bound 0 ≤ ŷ ≤ Σ live_i by
// construction.
//
// When a segment's live count equals its base count the adjustment returns
// the value bit-identically (identity fast path), so models with no pending
// mutations keep their golden-file and batch-equals-serial guarantees
// untouched. Delta state is serving-side only: it is not serialized, and a
// retrain resets it against the freshly reassigned population.

// SegDeltas is the per-segment mutation state of one GlobalLocal model.
type SegDeltas struct {
	// base is the per-segment population the local models were trained on
	// (frozen at enable/reset time).
	base []float64
	// net is the per-segment net delta (inserts - deletes) since then.
	net []atomic.Int64
	// ops counts individual mutations (inserts + deletes) since then — the
	// "pending" signal FlagAdapted and the retrain trigger read.
	ops atomic.Int64
}

// EnableDeltaTracking (re)arms mutation tracking: the current per-segment
// population caps (Locals[i].MaxCard, which survive serialization) become
// the sampling bases and all deltas reset to zero. Idempotent-safe to call
// on an already-tracking model (it resets the state); concurrent estimate
// paths see either the old or the new state atomically.
func (gl *GlobalLocal) EnableDeltaTracking() {
	d := &SegDeltas{
		base: make([]float64, len(gl.Locals)),
		net:  make([]atomic.Int64, len(gl.Locals)),
	}
	for i, l := range gl.Locals {
		d.base[i] = l.MaxCard
	}
	gl.deltas.Store(d)
}

// DisableDeltaTracking drops all delta state; estimates return to the
// unadjusted trained model bit-identically.
func (gl *GlobalLocal) DisableDeltaTracking() { gl.deltas.Store(nil) }

// DeltaTrackingEnabled reports whether mutation tracking is armed.
func (gl *GlobalLocal) DeltaTrackingEnabled() bool { return gl.deltas.Load() != nil }

// NoteDelta records a net population change of d objects in segment seg
// (+1 per insert, -1 per delete). It auto-arms tracking on first use and is
// safe for concurrent use with all estimate paths. Out-of-range segments
// are ignored.
func (gl *GlobalLocal) NoteDelta(seg, d int) {
	sd := gl.deltas.Load()
	if sd == nil {
		gl.EnableDeltaTracking()
		sd = gl.deltas.Load()
	}
	if seg < 0 || seg >= len(sd.net) {
		return
	}
	sd.net[seg].Add(int64(d))
	if d < 0 {
		d = -d
	}
	sd.ops.Add(int64(d))
}

// PendingDeltas reports the number of mutations recorded since tracking was
// (re)armed — zero means estimates are bit-identical to the trained model.
func (gl *GlobalLocal) PendingDeltas() int64 {
	sd := gl.deltas.Load()
	if sd == nil {
		return 0
	}
	return sd.ops.Load()
}

// SegmentDelta reports segment i's net delta (0 when tracking is off or i
// is out of range).
func (gl *GlobalLocal) SegmentDelta(i int) int64 {
	sd := gl.deltas.Load()
	if sd == nil || i < 0 || i >= len(sd.net) {
		return 0
	}
	return sd.net[i].Load()
}

// LiveCount reports the delta-adjusted total population Σ live_i (the
// trained population when tracking is off).
func (gl *GlobalLocal) LiveCount() float64 {
	sd := gl.deltas.Load()
	var total float64
	for i, l := range gl.Locals {
		base := l.MaxCard
		if sd != nil {
			base = sd.live(i)
		}
		total += base
	}
	return total
}

// live returns segment i's delta-adjusted population, floored at zero.
func (sd *SegDeltas) live(i int) float64 {
	v := sd.base[i] + float64(sd.net[i].Load())
	if v < 0 {
		return 0
	}
	return v
}

// deltaAdjust applies the sampling correction to segment i's contribution v
// covering nq routed queries (1 for a search estimate, the routed group size
// for a pooled join): scale by live_i/base_i, clamp to [0, nq·live_i]. The
// zero-delta case returns v unchanged (bit-identical).
func (gl *GlobalLocal) deltaAdjust(i int, v float64, nq int) float64 {
	sd := gl.deltas.Load()
	if sd == nil || i < 0 || i >= len(sd.net) || sd.net[i].Load() == 0 {
		return v
	}
	live := sd.live(i)
	if base := sd.base[i]; base > 0 {
		v *= live / base
	}
	// A segment trained empty (base 0) has no model signal to scale; the
	// clamp still bounds whatever the (≈0) local answers.
	if v < 0 {
		return 0
	}
	if cap := live * float64(nq); v > cap {
		return cap
	}
	return v
}

// Reassign recomputes the model's point-to-segment bookkeeping over data
// (the live dataset snapshot): assignments and member lists by
// nearest-centroid routing — the same rule InsertPoints uses — plus the
// per-segment population caps and the triangle-inequality metric radii.
// A model loaded from a checkpoint has no membership state (it is not
// serialized); the background retrainer calls Reassign on its clone before
// building delta-augmented training samples, which also restores
// RemovePoints/InsertPoints usability on the clone.
func (gl *GlobalLocal) Reassign(data [][]float64) {
	gl.Seg.Assignments = make([]int, len(data))
	gl.Seg.Members = make([][]int, gl.Seg.K)
	for i, v := range data {
		a := gl.Seg.NearestSegment(v)
		gl.Seg.Assignments[i] = a
		gl.Seg.Members[a] = append(gl.Seg.Members[a], i)
	}
	for i := range gl.Locals {
		gl.Locals[i].MaxCard = float64(len(gl.Seg.Members[i]))
	}
	gl.initBounds(data)
}
