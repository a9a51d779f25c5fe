package main

import (
	"math"
	"testing"
)

func TestPercentileNearestRank(t *testing.T) {
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	for _, c := range []struct{ p, want float64 }{
		{0.50, 5}, {0.90, 9}, {0.95, 10}, {0.99, 10}, {0.01, 1}, {1, 10},
	} {
		if got := percentile(ten, c.p); got != c.want {
			t.Errorf("percentile(1..10, %v) = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 0.95); got != 7 {
		t.Errorf("percentile of one sample = %v, want 7", got)
	}
	if !math.IsNaN(percentile(nil, 0.5)) {
		t.Error("percentile of no samples should be NaN")
	}
}

func TestMedianLeavesInputAlone(t *testing.T) {
	odd := []float64{9, 1, 5}
	if got := median(odd); got != 5 {
		t.Errorf("median(9,1,5) = %v, want 5", got)
	}
	if odd[0] != 9 || odd[1] != 1 || odd[2] != 5 {
		t.Errorf("median reordered its input: %v", odd)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median(4,1,3,2) = %v, want 2.5", got)
	}
}

// Slices are cut by completion order across clients, every slice holds the
// same number of requests and begins where the one before ended, and the
// quiet twentieth is untouched by a burst in the other slices.
func TestQuietSlicesIgnoreABurst(t *testing.T) {
	var a, b []sample
	end := int64(0)
	for k := 0; k < 40; k++ {
		for i := 0; i < 10; i++ {
			lat := int64(100_000 + 1000*k)
			if k%2 == 1 {
				lat = 900_000 // every other slice suffers
			}
			end += lat
			if i%2 == 0 {
				a = append(a, sample{endNs: end, latNs: lat})
			} else {
				b = append(b, sample{endNs: end, latNs: lat})
			}
		}
	}
	a = append(a, sample{endNs: end + 1, latNs: 1}) // does not fill a slice: dropped
	ss := cutSlices([][]sample{a, b}, 10)
	if len(ss) != 40 {
		t.Fatalf("%d slices, want 40", len(ss))
	}
	for k, s := range ss {
		if len(s.lats) != 10 || (k > 0 && s.startNs != ss[k-1].endNs) || (k == 0 && s.startNs != 0) {
			t.Fatalf("slice %d = [%d, %d] with %d requests", k, s.startNs, s.endNs, len(s.lats))
		}
	}
	if ss[1].lats[0] != 900 || ss[1].endNs-ss[1].startNs != 9_000_000 {
		t.Errorf("burst slice: first latency %v µs over %d ns", ss[1].lats[0], ss[1].endNs-ss[1].startNs)
	}
	// The quiet twentieth of 40 slices is the two quickest: slices 0 and 2.
	q := quiet(ss, 32)
	if q.requests != 20 || q.p50 != 100 || q.p95 != 102 {
		t.Errorf("quiet slices: %d requests, p50 %v, p95 %v µs; want 20, 100, 102", q.requests, q.p50, q.p95)
	}
	if want := 20 * 32 / (0.001 + 0.00102); math.Abs(q.eps-want) > 1e-6 {
		t.Errorf("quiet throughput = %v, want %v", q.eps, want)
	}
	if one := quiet(ss[:3], 32); one.requests != 10 || one.p50 != 100 {
		t.Errorf("fewer than twenty slices should keep the quickest one: %+v", one)
	}
	if !math.IsNaN(quiet(nil, 32).p50) {
		t.Error("no slices should give NaN")
	}
}

// sustained takes the median over 2 s windows of each window's own figures:
// one slow window in three moves nothing, and a trailing partial window and
// an overshooting last request are left out.
func TestSustainedIsTheMedianOverWindows(t *testing.T) {
	var a, b []sample
	for w := int64(0); w < 3; w++ {
		lat := int64(1_000_000) // 1 ms
		if w == 1 {
			lat = 4_000_000 // the middle window runs four times slower
		}
		for end := w*windowNs + lat; end <= (w+1)*windowNs; end += lat {
			s := sample{endNs: end - 1, latNs: lat}
			if (end/lat)%2 == 0 {
				a = append(a, s)
			} else {
				b = append(b, s)
			}
		}
	}
	a = append(a, sample{endNs: 3*windowNs + 5, latNs: 9_000_000}) // ended after the phase
	got := sustained([][]sample{a, b}, 3*windowNs+windowNs/2, 32)
	if got.p50 != 1000 || got.p95 != 1000 || got.requests != 2000 {
		t.Errorf("sustained = %+v, want p50 and p95 of 1000 µs over 2000 requests", got)
	}
	if want := 2000 * 32 / 2.0; got.eps != want {
		t.Errorf("sustained throughput = %v, want %v", got.eps, want)
	}
	// A run shorter than a window is one window; a window in which nothing
	// completed counts as zero throughput.
	short := sustained([][]sample{{{endNs: 500, latNs: 400_000}}}, 1000, 32)
	if short.p50 != 400 || short.requests != 1 {
		t.Errorf("short run: %+v", short)
	}
	stalled := sustained([][]sample{{{endNs: 1, latNs: 1000}}}, 3*windowNs, 32)
	if stalled.eps != 0 || stalled.p50 != 1 {
		t.Errorf("two empty windows of three: %+v", stalled)
	}
}
