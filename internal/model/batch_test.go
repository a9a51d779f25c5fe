package model

import (
	"sync"
	"testing"
)

// testBatch pulls the whole test workload into parallel slices.
func testBatch(t *testing.T) ([][]float64, []float64) {
	f := getFixture(t)
	qs := make([][]float64, len(f.w.Test))
	taus := make([]float64, len(f.w.Test))
	for i, q := range f.w.Test {
		qs[i] = q.Vec
		taus[i] = q.Tau
	}
	return qs, taus
}

// TestEstimateSearchBatchEmpty checks the zero-query edge case.
func TestEstimateSearchBatchEmpty(t *testing.T) {
	gl := trainedGL(t, GLPlus)
	if got := gl.EstimateSearchBatch(nil, nil); len(got) != 0 {
		t.Fatalf("empty batch returned %d results", len(got))
	}
}

// TestEstimateSearchConcurrent hammers one trained GL+ from many goroutines
// mixing single and batched estimates, asserting every result is identical
// to the serial baseline. Run under -race this is the end-to-end
// concurrency regression test for the serving engine.
func TestEstimateSearchConcurrent(t *testing.T) {
	gl := trainedGL(t, GLPlus)
	qs, taus := testBatch(t)
	want := make([]float64, len(qs))
	for i := range qs {
		want[i] = gl.EstimateSearch(qs[i], taus[i])
	}

	const goroutines = 8
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 10; it++ {
				if g%2 == 0 {
					got := gl.EstimateSearchBatch(qs, taus)
					for i := range want {
						if got[i] != want[i] {
							errs <- "concurrent batch estimate diverged from serial"
							return
						}
					}
				} else {
					for i := range want {
						if got := gl.EstimateSearch(qs[i], taus[i]); got != want[i] {
							errs <- "concurrent single estimate diverged from serial"
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	if msg, ok := <-errs; ok {
		t.Fatal(msg)
	}
}
