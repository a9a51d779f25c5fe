package main

import (
	"context"
	"sync"
	"time"

	"simquery/cardest"
	"simquery/internal/serving"
)

// target is the system under test as the closed loop sees it. A request is
// always estPerReq estimates.
type target interface {
	// prepare runs ahead of request i, outside its latency but inside the
	// loop's wall time (lib_repeat's writes live here); it returns how many
	// operations failed.
	prepare(client, i int, rec *recorder) (failed int)
	// do performs request i and returns how many of its estimates failed:
	// an error, a shed or degraded answer, or a value outside [0, live N].
	do(client, i int, rec *recorder, parent int32) (failed int)
}

// Span names of the timed phase.
const (
	spanRequest uint16 = iota
	spanSearch
	spanBatch
	spanRouter
	spanMutate
)

// loopSpanNames are their names in the span file; a traced run appends one
// name per layer probe.
var loopSpanNames = []string{"request", "cardest.search", "cardest.batch32", "serving.router", "cardest.mutate"}

// inRange reports whether v is a usable estimate; NaN and ±Inf fail it.
func inRange(v, liveN float64) bool { return v >= 0 && v <= liveN }

// singleTarget is lib_single: sequential EstimateSearchCtx calls through the
// hardened wrapper.
type singleTarget struct {
	est    *cardest.RobustEstimator
	blocks []block
	liveN  float64
}

func (t *singleTarget) prepare(int, int, *recorder) int { return 0 }

func (t *singleTarget) do(_, i int, rec *recorder, parent int32) int {
	b := &t.blocks[i%len(t.blocks)]
	failed := 0
	for k, q := range b.qs {
		sp := rec.begin(spanSearch, parent, int32(i))
		v, err := t.est.EstimateSearchCtx(context.Background(), q, b.taus[k])
		rec.end(sp)
		if err != nil || !inRange(v, t.liveN) {
			failed++
		}
	}
	return failed
}

// batchTarget is lib_batch: one EstimateSearchBatchCtx per request.
type batchTarget struct {
	est    *cardest.RobustEstimator
	blocks []block
	liveN  float64
}

func (t *batchTarget) prepare(int, int, *recorder) int { return 0 }

func (t *batchTarget) do(_, i int, rec *recorder, parent int32) int {
	b := &t.blocks[i%len(t.blocks)]
	sp := rec.begin(spanBatch, parent, int32(i))
	out, err := t.est.EstimateSearchBatchCtx(context.Background(), b.qs, b.taus)
	rec.end(sp)
	if err != nil || len(out) != estPerReq {
		return estPerReq
	}
	failed := 0
	for _, v := range out {
		if !inRange(v, t.liveN) {
			failed++
		}
	}
	return failed
}

// searchAdaptive is one estimate through the adaptive stack, pinning the
// current generation for its duration as a serving caller must.
func searchAdaptive(rel *cardest.Reloadable, q []float64, tau float64) (float64, error) {
	est, _, release := rel.Acquire()
	v, err := est.EstimateSearchCtx(context.Background(), q, tau)
	release()
	return v, err
}

// repeatTarget is lib_repeat: the adaptive stack answers from its estimate
// cache, and one mutation batch lands ahead of every every-th request.
type repeatTarget struct {
	rel       *cardest.Reloadable
	adapter   *cardest.Adapter
	pool      []cardest.Query
	stream    repeatStream
	mutations []mutation
	every     int
	nextMut   int
	liveN     float64
}

func (t *repeatTarget) prepare(_, i int, rec *recorder) int {
	if (i+1)%t.every != 0 {
		return 0
	}
	m := &t.mutations[t.nextMut%len(t.mutations)]
	t.nextMut++
	sp := rec.begin(spanMutate, noSpan, -1)
	_, err := t.adapter.Mutate(m.inserts, m.deletes)
	rec.end(sp)
	if err != nil {
		return 1
	}
	return 0
}

func (t *repeatTarget) do(_, i int, rec *recorder, parent int32) int {
	base := i % t.stream.requests() * estPerReq
	failed := 0
	for j := base; j < base+estPerReq; j++ {
		sp := rec.begin(spanSearch, parent, int32(i))
		v, err := searchAdaptive(t.rel, t.pool[t.stream.query[j]].Vec, t.stream.taus[j])
		rec.end(sp)
		if err != nil || !inRange(v, t.liveN) {
			failed++
		}
	}
	return failed
}

// wireTarget is wire_batch: one Router.Estimate per request. Each client
// walks the blocks from its own offset so the two never send the same
// request at the same time.
type wireTarget struct {
	router  *serving.Router
	blocks  []block
	clients int
	liveN   float64
}

func (t *wireTarget) prepare(int, int, *recorder) int { return 0 }

func (t *wireTarget) do(client, i int, rec *recorder, parent int32) int {
	b := &t.blocks[(i+client*len(t.blocks)/t.clients)%len(t.blocks)]
	sp := rec.begin(spanRouter, parent, int32(i))
	res, err := t.router.Estimate(context.Background(), b.qs, b.taus)
	rec.end(sp)
	if err != nil || res.Degraded || res.Fallback || len(res.Estimates) != estPerReq {
		return estPerReq
	}
	failed := 0
	for _, v := range res.Estimates {
		if !inRange(v, t.liveN) {
			failed++
		}
	}
	return failed
}

// warmUp sends a fixed number of requests from one client, untimed.
func warmUp(t target, requests int) (failed int) {
	for i := 0; i < requests; i++ {
		failed += t.prepare(0, i, nil)
		failed += t.do(0, i, nil, noSpan)
	}
	return failed
}

// clientRun is what one closed-loop client measured. tracedSlices counts the
// slices it recorded spans in: the first tracedSlices of those tracedSlice
// names.
type clientRun struct {
	samples      []sample
	failed       int
	tracedSlices int
}

// spansPerRequest bounds what one request records: its own span, one per
// estimate, and a mutation's.
const spansPerRequest = estPerReq + 2

// runClient drives t from one client until dur has passed or buf is full,
// recording each request's completion time and latency into buf. It
// allocates nothing. A traced run (rec not nil) records spans in one slice
// of sliceRequests requests out of traceEvery, so the slices on either side
// give the untraced latency of the same moment; a slice is traced whole or
// not at all, and once rec has no room for a whole slice tracing stops.
func runClient(t target, client int, origin time.Time, dur time.Duration, sliceRequests int, buf []sample, rec *recorder) clientRun {
	n, failed, traced := 0, 0, 0
	var r *recorder
	for i := 0; n < len(buf); i++ {
		if i%sliceRequests == 0 {
			r = nil
			if rec != nil && tracedSlice(i/sliceRequests) && rec.room() >= sliceRequests*spansPerRequest {
				r = rec
				traced++
			}
		}
		failed += t.prepare(client, i, r)
		t0 := time.Since(origin)
		if t0 >= dur {
			break
		}
		root := r.begin(spanRequest, noSpan, int32(i))
		failed += t.do(client, i, r, root)
		r.end(root)
		t1 := time.Since(origin)
		buf[n] = sample{endNs: int64(t1), latNs: int64(t1 - t0)}
		n++
	}
	return clientRun{samples: buf[:n], failed: failed, tracedSlices: traced}
}

// traceEvery is how many slices of a traced run share one traced slice.
const traceEvery = 4

// tracedSlice tells which slices of a traced run record spans: one in
// traceEvery, with an untraced slice on either side.
func tracedSlice(k int) bool { return k%traceEvery == 1 }

// runClients runs one goroutine per client against the shared origin and
// waits for all. bufs and recs are per client; an untraced run's recs are
// nil recorders.
func runClients(t target, origin time.Time, dur time.Duration, sliceRequests int, bufs [][]sample, recs []*recorder) []clientRun {
	runs := make([]clientRun, len(bufs))
	var wg sync.WaitGroup
	for c := range bufs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runs[c] = runClient(t, c, origin, dur, sliceRequests, bufs[c], recs[c])
		}()
	}
	wg.Wait()
	return runs
}
