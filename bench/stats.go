package main

import (
	"math"
	"sort"
)

// percentile returns the p-th percentile (0 < p ≤ 1) of an ascending
// slice by the nearest-rank rule: the smallest value with at least p of
// the samples at or below it. Empty input yields NaN.
func percentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// median returns the middle value of xs (mean of the two middle values for
// an even count) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// sample is one completed request: when it ended, measured from the start
// of the timed phase, and how long it took.
type sample struct {
	endNs, latNs int64
}

// slice is one stretch of the timed phase: when it began and ended and
// the latencies, in µs, of the requests that completed in it.
type slice struct {
	startNs, endNs int64
	lats           []float64
}

// cutSlices merges the clients' samples by completion time and cuts them
// into consecutive slices of requests completions each; a remainder shorter
// than a slice is dropped. A slice begins where the one before it ended, so
// whatever ran between requests is inside its wall time.
func cutSlices(clients [][]sample, requests int) []slice {
	var all []sample
	for _, c := range clients {
		all = append(all, c...)
	}
	sort.Slice(all, func(a, b int) bool { return all[a].endNs < all[b].endNs })
	out := make([]slice, 0, len(all)/requests)
	startNs := int64(0)
	for lo := 0; lo+requests <= len(all); lo += requests {
		s := slice{startNs: startNs, endNs: all[lo+requests-1].endNs, lats: make([]float64, requests)}
		for k, x := range all[lo : lo+requests] {
			s.lats[k] = float64(x.latNs) / 1e3
		}
		out = append(out, s)
		startNs = s.endNs
	}
	return out
}

// quietShare is the part of the slices the bounded timing metrics are taken
// from: one in quietShare.
const quietShare = 20

// timing are the latency and throughput figures of some stretch of a run.
type timing struct {
	p50, p95 float64 // µs per request
	eps      float64 // estimates per second
	requests int
}

// quiet pools the twentieth of the slices that took the least wall time and
// reports their latency percentiles and throughput. Every slice does the
// same work, and interference from the host only ever adds time — on the
// sandbox in spells of seconds during which the same code runs 1.5 times
// slower — so the quickest slices are the ones the host left alone, and
// they repeat from run to run where a median over all slices does not
// (README, "Why the quietest slices"). What the quiet slices cannot see — a
// cost that falls on few slices, such as a collection cycle or a stall — is
// what sustained reports.
func quiet(ss []slice, estPerReq int) timing {
	if len(ss) == 0 {
		return timing{p50: math.NaN(), p95: math.NaN(), eps: math.NaN()}
	}
	byWall := append([]slice(nil), ss...)
	sort.Slice(byWall, func(a, b int) bool {
		return byWall[a].endNs-byWall[a].startNs < byWall[b].endNs-byWall[b].startNs
	})
	byWall = byWall[:max(1, len(byWall)/quietShare)]
	var lats []float64
	var wallNs int64
	for _, s := range byWall {
		lats = append(lats, s.lats...)
		wallNs += s.endNs - s.startNs
	}
	sort.Float64s(lats)
	return timing{
		p50:      percentile(lats, 0.50),
		p95:      percentile(lats, 0.95),
		eps:      float64(len(lats)*estPerReq) / (float64(wallNs) / 1e9),
		requests: len(lats),
	}
}

// tailRatio is how far the 95th percentile of request latency sits above the
// median, taken inside each slice — where the host's mode is one and the
// same, so it cancels — and reported as the lower quartile across all the
// slices. Interference inside a slice slows some of its requests and so only
// ever raises its ratio; the lower quartile is the program's own tail, and
// it repeats where a 95th percentile in µs does not.
func tailRatio(ss []slice) float64 {
	ratios := make([]float64, len(ss))
	for k, s := range ss {
		l := append([]float64(nil), s.lats...)
		sort.Float64s(l)
		ratios[k] = percentile(l, 0.95) / percentile(l, 0.50)
	}
	sort.Float64s(ratios)
	return percentile(ratios, 0.25)
}

// windowNs is the length of the windows sustained cuts a run into.
const windowNs = int64(2e9)

// sustained is the statistic the issue asked for: the run is cut into
// windows of windowNs of wall time, each window gives its own median and
// 95th-percentile latency and its own throughput, and the median across the
// windows is reported. Nothing is left out, so collection cycles, stalls and
// the host's slow spells are all in it; requests counts the samples of one
// window at the median. A run shorter than one window is one window.
func sustained(clients [][]sample, wallNs int64, estPerReq int) timing {
	windows := int(max(1, wallNs/windowNs))
	length := windowNs
	if wallNs < windowNs {
		length = max(wallNs, 1)
	}
	lats := make([][]float64, windows)
	for _, c := range clients {
		for _, x := range c {
			if w := int(x.endNs / length); w < windows {
				lats[w] = append(lats[w], float64(x.latNs)/1e3)
			}
		}
	}
	var p50s, p95s, epss, counts []float64
	for _, l := range lats {
		epss = append(epss, float64(len(l)*estPerReq)/(float64(length)/1e9))
		if len(l) == 0 {
			continue // a stall that outlasts a window: no latency, zero throughput
		}
		sort.Float64s(l)
		p50s = append(p50s, percentile(l, 0.50))
		p95s = append(p95s, percentile(l, 0.95))
		counts = append(counts, float64(len(l)))
	}
	if len(p50s) == 0 {
		return timing{p50: math.NaN(), p95: math.NaN(), eps: math.NaN()}
	}
	return timing{p50: median(p50s), p95: median(p95s), eps: median(epss), requests: int(median(counts))}
}
