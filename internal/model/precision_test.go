package model

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"simquery/internal/metrics"
)

func TestPrecisionParseString(t *testing.T) {
	cases := map[string]Precision{
		"f64": F64, "F64": F64, "float64": F64, "": F64,
		"f32": F32, "float32": F32,
		"int8": Int8, "i8": Int8,
	}
	for s, want := range cases {
		got, err := ParsePrecision(s)
		if err != nil || got != want {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v", s, got, err, want)
		}
	}
	if _, err := ParsePrecision("fp16"); err == nil {
		t.Fatal("ParsePrecision should reject unknown tiers")
	}
	if got := Precision(99).String(); got != "Precision(99)" {
		t.Fatalf("unknown precision stringer: %q", got)
	}
	for _, p := range []Precision{F64, F32, Int8} {
		rt, err := ParsePrecision(p.String())
		if err != nil || rt != p {
			t.Fatalf("round trip %v → %q → %v, %v", p, p.String(), rt, err)
		}
	}
}

// trainedMLP trains a small anchored MLP once for the precision tests.
func trainedMLP(t *testing.T) *BasicModel {
	t.Helper()
	f := getFixture(t)
	rng := rand.New(rand.NewSource(71))
	m, err := NewMLPModel("MLP-prec", rng, f.ds.Dim, anchorsFrom(f.ds, 8), f.ds.Metric, f.ds.TauMax, DefaultArch())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultTrainConfig(72)
	cfg.Epochs = 10
	if err := m.Train(toSamples(f.w.Train), cfg); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestBasicLoweredF32MatchesF64 is the model-level half of the F32 accuracy
// gate: on a trained model, the lowered plane stays within 1e-3 relative of
// the f64 reference across the whole test workload.
func TestBasicLoweredF32MatchesF64(t *testing.T) {
	f := getFixture(t)
	m := trainedMLP(t)
	qs := make([][]float64, len(f.w.Test))
	taus := make([]float64, len(f.w.Test))
	for i, q := range f.w.Test {
		qs[i] = q.Vec
		taus[i] = q.Tau
	}
	want := m.EstimateSearchBatch(qs, taus)
	got, err := m.EstimateSearchBatchLowered(qs, taus, F32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-3*(1+want[i]) {
			t.Fatalf("query %d: f32 %v vs f64 %v (rel %g > 1e-3)", i, got[i], want[i], d/(1+want[i]))
		}
	}
	// Single-query path agrees with the batch path.
	single, err := m.EstimateSearchLowered(qs[0], taus[0], F32)
	if err != nil {
		t.Fatal(err)
	}
	if single != got[0] {
		t.Fatalf("single %v vs batch[0] %v", single, got[0])
	}
	// F64 through the lowered entry point is the reference path verbatim.
	ref, err := m.EstimateSearchBatchLowered(qs, taus, F64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("F64 tier diverged at %d: %v vs %v", i, ref[i], want[i])
		}
	}
}

// TestBasicLoweredInt8QError bounds the int8 tier on a trained model: the
// quantized plane's q-error against the f64 estimate (treated as truth)
// must stay small — the int8 tier trades precision for speed, not accuracy
// class.
func TestBasicLoweredInt8QError(t *testing.T) {
	f := getFixture(t)
	m := trainedMLP(t)
	qs := make([][]float64, len(f.w.Test))
	taus := make([]float64, len(f.w.Test))
	for i, q := range f.w.Test {
		qs[i] = q.Vec
		taus[i] = q.Tau
	}
	want := m.EstimateSearchBatch(qs, taus)
	got, err := m.EstimateSearchBatchLowered(qs, taus, Int8)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i := range want {
		if math.IsNaN(got[i]) || math.IsInf(got[i], 0) || got[i] < 0 {
			t.Fatalf("query %d: int8 estimate %v not a valid cardinality", i, got[i])
		}
		errs = append(errs, metrics.QError(got[i], want[i]))
	}
	sum := metrics.Summarize(errs)
	if sum.Median > 1.5 {
		t.Fatalf("int8-vs-f64 median q-error %v > 1.5", sum.Median)
	}
	if sum.Max > 10 {
		t.Fatalf("int8-vs-f64 max q-error %v > 10", sum.Max)
	}
}

// TestLoweredPlaneCacheAndInvalidation pins the generation protocol: the
// plane lowers once, repeated calls hit the cache, and every parameter
// mutation point produces a fresh plane that tracks the new weights.
func TestLoweredPlaneCacheAndInvalidation(t *testing.T) {
	f := getFixture(t)
	m := trainedMLP(t)
	q, tau := f.w.Test[0].Vec, f.w.Test[0].Tau

	lb1, err := m.lowered(F32)
	if err != nil {
		t.Fatal(err)
	}
	lb2, err := m.lowered(F32)
	if err != nil {
		t.Fatal(err)
	}
	if lb1 != lb2 {
		t.Fatal("second lowered() call should hit the cache")
	}
	before, err := m.EstimateSearchLowered(q, tau, F32)
	if err != nil {
		t.Fatal(err)
	}

	// A parameter mutation must invalidate and re-lower.
	m.SetOutputBias(7)
	lb3, err := m.lowered(F32)
	if err != nil {
		t.Fatal(err)
	}
	if lb3 == lb1 {
		t.Fatal("SetOutputBias should invalidate the lowered plane")
	}
	after, err := m.EstimateSearchLowered(q, tau, F32)
	if err != nil {
		t.Fatal(err)
	}
	if before == after {
		t.Fatal("lowered estimate should track the mutated parameters")
	}
	ref := m.EstimateSearch(q, tau)
	if d := math.Abs(after - ref); d > 1e-3*(1+ref) {
		t.Fatalf("re-lowered plane diverged: f32 %v vs f64 %v", after, ref)
	}

	// A serialization round trip starts a fresh generation too.
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := m.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	lb4, err := m.lowered(F32)
	if err != nil {
		t.Fatal(err)
	}
	if lb4 == lb3 {
		t.Fatal("UnmarshalBinary should invalidate the lowered plane")
	}

	// The int8 cache is independent of the f32 cache.
	q8a, err := m.lowered(Int8)
	if err != nil {
		t.Fatal(err)
	}
	q8b, err := m.lowered(Int8)
	if err != nil || q8a != q8b {
		t.Fatalf("int8 cache miss on repeat: %v", err)
	}
}

// TestGlobalLocalPrecisionTiers checks the end-to-end GL serving tiers:
// F32 routing+locals stay close to the f64 reference, the int8 tier stays
// within its q-error budget, PreCheckPrecision lowers eagerly, and repeated
// calls are deterministic.
func TestGlobalLocalPrecisionTiers(t *testing.T) {
	ctx := context.Background()
	f := getFixture(t)
	gl := trainedGL(t, GLMLP)
	if err := gl.PreCheckPrecision(F32); err != nil {
		t.Fatalf("PreCheckPrecision(F32): %v", err)
	}
	if err := gl.PreCheckPrecision(Int8); err != nil {
		t.Fatalf("PreCheckPrecision(Int8): %v", err)
	}
	if err := gl.PreCheckPrecision(F64); err != nil {
		t.Fatalf("PreCheckPrecision(F64): %v", err)
	}
	// The pre-check caches the router's plane too: serving must not re-lower
	// the global model on every routing pass.
	lg1, _ := gl.Global.lowered()
	if lg2, _ := gl.Global.lowered(); lg1 == nil || lg1 != lg2 || gl.Global.low32.Load() != lg1 {
		t.Fatal("the global router's lowered plane is not cached")
	}
	qs := make([][]float64, len(f.w.Test))
	taus := make([]float64, len(f.w.Test))
	for i, q := range f.w.Test {
		qs[i] = q.Vec
		taus[i] = q.Tau
	}
	want := gl.EstimateSearchBatch(qs, taus)
	got, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, F32)
	if err != nil {
		t.Fatal(err)
	}
	// Routing can flip a segment whose probability sits exactly at σ, so
	// the gate tolerates a small fraction of rerouted queries but demands
	// tight agreement on the rest.
	var rerouted int
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-3*(1+want[i]) {
			rerouted++
		}
	}
	if max := 1 + len(want)/20; rerouted > max {
		t.Fatalf("%d/%d queries diverged beyond 1e-3 (budget %d)", rerouted, len(want), max)
	}

	got8, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, Int8)
	if err != nil {
		t.Fatal(err)
	}
	var errs []float64
	for i := range want {
		if math.IsNaN(got8[i]) || math.IsInf(got8[i], 0) || got8[i] < 0 {
			t.Fatalf("query %d: int8 estimate %v invalid", i, got8[i])
		}
		errs = append(errs, metrics.QError(got8[i], want[i]))
	}
	if med := metrics.Summarize(errs).Median; med > 2 {
		t.Fatalf("int8-vs-f64 GL median q-error %v > 2", med)
	}

	// Determinism: a second pass returns identical estimates.
	again, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, F32)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != again[i] {
			t.Fatalf("query %d not deterministic: %v vs %v", i, got[i], again[i])
		}
	}

	// Single-query precision path agrees with the batch.
	single, err := gl.EstimateSearchPrecision(ctx, qs[0], taus[0], F32)
	if err != nil {
		t.Fatal(err)
	}
	if single != got[0] {
		t.Fatalf("single %v vs batch[0] %v", single, got[0])
	}

	// F64 tier is the reference path verbatim.
	ref, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, F64)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if ref[i] != want[i] {
			t.Fatalf("F64 tier diverged at %d", i)
		}
	}

	// Empty batches are legal.
	empty, err := gl.EstimateSearchBatchPrecision(ctx, nil, nil, F32)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: %v, %v", empty, err)
	}
}

// TestLocalPlusPrecision covers the Global == nil routing branch (Local+
// has no global router — masks come from triangle-inequality pruning only).
func TestLocalPlusPrecision(t *testing.T) {
	ctx := context.Background()
	f := getFixture(t)
	gl := trainedGL(t, LocalPlus)
	if err := gl.PreCheckPrecision(F32); err != nil {
		t.Fatalf("PreCheckPrecision(F32): %v", err)
	}
	qs := make([][]float64, 10)
	taus := make([]float64, 10)
	for i := range qs {
		qs[i] = f.w.Test[i].Vec
		taus[i] = f.w.Test[i].Tau
	}
	want := gl.EstimateSearchBatch(qs, taus)
	got, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, F32)
	if err != nil {
		t.Fatal(err)
	}
	// Local+ masks are precision-independent (pure f64 geometry), so every
	// query must agree within the f32 inference budget.
	for i := range want {
		if d := math.Abs(got[i] - want[i]); d > 1e-3*(1+want[i]) {
			t.Fatalf("query %d: f32 %v vs f64 %v", i, got[i], want[i])
		}
	}
}
