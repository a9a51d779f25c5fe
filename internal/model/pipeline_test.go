package model

import (
	"context"
	"testing"
)

// TestEstimateEntryPointsEquivalent is the one equivalence table of the
// estimate pipeline: for the same inputs every exported entry point answers
// the same bits — plain ≡ Ctx ≡ Precision(F64), single ≡ batch[i], and the
// plain join ≡ its Ctx form — for the routed (GL+) and unrouted (Local+)
// variants, with delta tracking off, armed but net-zero (which must also
// leave every value bit-identical to "off"), and armed with pending deltas
// (which must move at least one estimate, or the case tests nothing).
func TestEstimateEntryPointsEquivalent(t *testing.T) {
	ctx := context.Background()
	qs, taus := testBatch(t)
	states := []struct {
		name string
		arm  func(gl *GlobalLocal)
	}{
		{"off", func(gl *GlobalLocal) {}},
		{"armed-net-zero", func(gl *GlobalLocal) {
			gl.EnableDeltaTracking()
			gl.NoteDelta(0, 3)
			gl.NoteDelta(0, -3)
		}},
		{"armed-pending", func(gl *GlobalLocal) {
			gl.EnableDeltaTracking()
			for j := range gl.Locals {
				gl.NoteDelta(j, 40*(j%2*2-1)) // grow odd segments, shrink even ones
			}
		}},
	}
	for _, v := range []Variant{GLPlus, LocalPlus} {
		gl := trainedGL(t, v)
		off := gl.EstimateSearchBatch(qs, taus) // the untracked reference
		offJoin := gl.EstimateJoin(qs[:8], taus[0])
		for _, st := range states {
			t.Run(v.String()+"/"+st.name, func(t *testing.T) {
				defer gl.DisableDeltaTracking()
				st.arm(gl)

				single := make([]float64, len(qs))
				for i := range qs {
					single[i] = gl.EstimateSearch(qs[i], taus[i])
					got, err := gl.EstimateSearchCtx(ctx, qs[i], taus[i])
					if err != nil || got != single[i] {
						t.Fatalf("query %d: EstimateSearchCtx = %v, %v; plain %v", i, got, err, single[i])
					}
					got, err = gl.EstimateSearchPrecision(ctx, qs[i], taus[i], F64)
					if err != nil || got != single[i] {
						t.Fatalf("query %d: EstimateSearchPrecision(F64) = %v, %v; plain %v", i, got, err, single[i])
					}
				}
				batchCtx, err := gl.EstimateSearchBatchCtx(ctx, qs, taus)
				if err != nil {
					t.Fatal(err)
				}
				batchF64, err := gl.EstimateSearchBatchPrecision(ctx, qs, taus, F64)
				if err != nil {
					t.Fatal(err)
				}
				for name, batch := range map[string][]float64{
					"EstimateSearchBatch":               gl.EstimateSearchBatch(qs, taus),
					"EstimateSearchBatchCtx":            batchCtx,
					"EstimateSearchBatchPrecision(F64)": batchF64,
				} {
					if len(batch) != len(qs) {
						t.Fatalf("%s returned %d results for %d queries", name, len(batch), len(qs))
					}
					for i := range batch {
						if batch[i] != single[i] {
							t.Fatalf("%s[%d] = %v, single %v", name, i, batch[i], single[i])
						}
					}
				}
				join := gl.EstimateJoin(qs[:8], taus[0])
				if got, err := gl.EstimateJoinCtx(ctx, qs[:8], taus[0]); err != nil || got != join {
					t.Fatalf("EstimateJoinCtx = %v, %v; plain %v", got, err, join)
				}

				switch st.name {
				case "off", "armed-net-zero":
					for i := range single {
						if single[i] != off[i] {
							t.Fatalf("query %d: %s changed %v to %v", i, st.name, off[i], single[i])
						}
					}
					if join != offJoin {
						t.Fatalf("%s changed the join %v to %v", st.name, offJoin, join)
					}
				case "armed-pending":
					moved := join != offJoin
					for i := range single {
						moved = moved || single[i] != off[i]
					}
					if !moved {
						t.Fatal("pending deltas changed no estimate: the case exercises nothing")
					}
				}
			})
		}
	}
}
