package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"time"

	"simquery/cardest"
	"simquery/internal/dist"
	"simquery/internal/estcache"
	"simquery/internal/model"
	"simquery/internal/serving"
	"simquery/internal/tensor"
)

// perLayerMetrics is the traced run's catalogue. README.md says, for each,
// which end-to-end metric it should move and on which workload.
var perLayerMetrics = []metricDef{
	{"lat_p95_us", "us"},
	{"sustained.lat_p50_us", "us"},
	{"sustained.lat_p95_us", "us"},
	{"sustained.throughput_eps", "1/s"},
	{"request.p99_us", "us"},
	{"process.cpu_us_per_est", "us"},
	{"process.alloc_bytes_per_est", "bytes"},
	{"process.gc_cycles_per_s", "1/s"},
	{"trace.overhead_share", "share"},
	{"fail_share", "share"},
	{"cardest.search_us", "us"},
	{"cardest.wrap_self_us", "us"},
	{"cardest.batch32_us", "us"},
	{"cardest.join32_us", "us"},
	{"cardest.join_floor_share", "share"},
	{"cardest.mutate_us", "us"},
	{"cardest.acquire_ns", "ns"},
	{"dataset.generate_s", "s"},
	{"workload.label_s", "s"},
	{"model.train_s", "s"},
	{"cardest.save_load_s", "s"},
	{"serving.start_s", "s"},
	{"model.search_us", "us"},
	{"model.route_us", "us"},
	{"model.local_eval_us", "us"},
	{"model.locals_per_query", "count"},
	{"model.stage_coverage", "share"},
	{"model.batch32_us", "us"},
	{"model.route_batch32_us", "us"},
	{"model.local_batch_us", "us"},
	{"model.batch_speedup", "ratio"},
	{"model.size_bytes", "bytes"},
	{"tensor.dense_1x64x32_ns", "ns"},
	{"tensor.dense_32x64x32_ns", "ns"},
	{"tensor.pool_do8_us", "us"},
	{"tensor.pool_workers", "count"},
	{"dist.anchors_us", "us"},
	{"estcache.hit_share", "share"},
	{"estcache.interpolated_share", "share"},
	{"estcache.miss_share", "share"},
	{"estcache.bypass_share", "share"},
	{"estcache.evictions_per_kest", "count"},
	{"estcache.get_hit_ns", "ns"},
	{"estcache.fill_us", "us"},
	{"estcache.fill_over_search", "ratio"},
	{"serving.router_us", "us"},
	{"serving.direct_post_us", "us"},
	{"serving.router_self_us", "us"},
	{"serving.encode_req_us", "us"},
	{"serving.decode_req_us", "us"},
	{"serving.encode_resp_us", "us"},
	{"serving.decode_resp_us", "us"},
	{"serving.req_bytes", "bytes"},
	{"serving.resp_bytes", "bytes"},
	{"serving.healthz_rtt_us", "us"},
	{"serving.wire_coverage", "share"},
	{"serving.retries_per_kreq", "count"},
	{"serving.hedges_per_kreq", "count"},
	{"serving.shed_per_kreq", "count"},
}

const (
	probePasses  = 5
	probeSamples = 31
	probeSpanCap = 1 << 16
)

// sink keeps probe results alive so the compiler cannot drop the calls.
var sink float64

// prober times calls into single layers from outside. Every timed call is
// one span, named after the metric it feeds.
type prober struct {
	rec   *recorder
	names []string
}

// each runs fn(pass, 0) … fn(pass, n-1) for every pass, one span per call;
// fn returns how many units of work the call did. Every pass does the same
// work, so the passes differ only by what the host did to them: each
// reports the best pass's time per unit, in nanoseconds, for the reason the
// end-to-end metrics are taken from the quietest slices.
func (p *prober) each(name string, passes, n int, fn func(pass, i int) (units int)) measured {
	p.names = append(p.names, name)
	id := uint16(len(p.names) - 1)
	bestNs := math.Inf(1)
	for pass := 0; pass < passes; pass++ {
		var total time.Duration
		units := 0
		for i := 0; i < n; i++ {
			t0 := time.Now()
			sp := p.rec.begin(id, noSpan, -1)
			units += fn(pass, i)
			p.rec.end(sp)
			total += time.Since(t0)
		}
		bestNs = min(bestNs, float64(total)/float64(units))
	}
	return measured{bestNs, passes * n}
}

// blocks is each for a probe that walks the same blocks on every pass.
func (p *prober) blocks(name string, n int, fn func(i int) (units int)) measured {
	return p.each(name, probePasses, n, func(_, i int) int { return fn(i) })
}

// loop times reps back-to-back calls of fn per pass, for calls too short to
// time one by one.
func (p *prober) loop(name string, reps int, fn func()) measured {
	return p.each(name, probeSamples, 1, func(int, int) int {
		for r := 0; r < reps; r++ {
			fn()
		}
		return reps
	})
}

func (m measured) us() measured { return measured{m.value / 1e3, m.samples} }

// probeLayers times, from outside, the layers that the named workload
// exercises — the ones whose README row says they should move it — on the
// pool's blocks in the order the seed gave them. Every other probe metric
// reads 0 in this run: the layer does no work on this workload, and the
// traced run of the workload it does work on measures it. A few probes feed
// a ratio on a second workload and are taken there too.
func probeLayers(st *stack, workload, tmp string, blocks []block, seed int64, p *prober, out map[string]measured) error {
	for _, d := range perLayerMetrics {
		if _, set := out[d.name]; !set {
			out[d.name] = measured{}
		}
	}
	l := &layers{st: st, blocks: blocks, seed: seed, p: p, out: out}
	switch workload {
	case libSingle, libBatch:
		gl, err := bareModel(st, tmp)
		if err != nil {
			return err
		}
		l.selectSegments(gl)
		if workload == libSingle {
			l.serial(gl)
		} else {
			l.batch(gl)
		}
		out["model.size_bytes"] = measured{float64(gl.SizeBytes()), 1}
	case libRepeat:
		l.repeat()
	case wireBatch:
		l.wire()
	}
	return l.failure
}

// layers carries one traced run's probes.
type layers struct {
	st      *stack
	blocks  []block
	seed    int64
	p       *prober
	out     map[string]measured
	failure error

	// Which locals the global model selects for every query of every block,
	// and how many per query on average.
	masks          [][][]bool
	localsPerQuery float64
}

func (l *layers) fail(err error) {
	if err != nil && l.failure == nil {
		l.failure = err
	}
}

// cardestSearch times the shipped wrapper's single estimate.
func (l *layers) cardestSearch() measured {
	ctx := context.Background()
	m := l.p.blocks("cardest.search_us", len(l.blocks), func(i int) int {
		for k, q := range l.blocks[i].qs {
			v, err := l.st.hard.EstimateSearchCtx(ctx, q, l.blocks[i].taus[k])
			l.fail(err)
			sink += v
		}
		return estPerReq
	}).us()
	l.out["cardest.search_us"] = m
	return m
}

// cardestBatch times the shipped wrapper's batch of 32 and keeps the answers.
func (l *layers) cardestBatch() (m measured, answers [][]float64) {
	ctx := context.Background()
	answers = make([][]float64, len(l.blocks))
	m = l.p.blocks("cardest.batch32_us", len(l.blocks), func(i int) int {
		vs, err := l.st.hard.EstimateSearchBatchCtx(ctx, l.blocks[i].qs, l.blocks[i].taus)
		l.fail(err)
		answers[i] = vs
		return 1
	}).us()
	l.out["cardest.batch32_us"] = m
	return m, answers
}

// modelSearch times the bare model's single estimate.
func (l *layers) modelSearch(gl *model.GlobalLocal) measured {
	m := l.p.blocks("model.search_us", len(l.blocks), func(i int) int {
		for k, q := range l.blocks[i].qs {
			sink += gl.EstimateSearch(q, l.blocks[i].taus[k])
		}
		return estPerReq
	}).us()
	l.out["model.search_us"] = m
	return m
}

func (l *layers) selectSegments(gl *model.GlobalLocal) {
	l.masks = make([][][]bool, len(l.blocks))
	selected := 0
	for i, b := range l.blocks {
		l.masks[i] = make([][]bool, len(b.qs))
		for k, q := range b.qs {
			l.masks[i][k] = gl.SelectedSegments(q, b.taus[k])
			for _, on := range l.masks[i][k] {
				if on {
					selected++
				}
			}
		}
	}
	l.localsPerQuery = float64(selected) / float64(len(l.blocks)*estPerReq)
	l.out["model.locals_per_query"] = measured{l.localsPerQuery, len(l.blocks) * estPerReq}
}

// serial is lib_single's path: the wrapper, the bare model under it and its
// stages, and the kernels under one local evaluation.
func (l *layers) serial(gl *model.GlobalLocal) {
	blocks, nb, out := l.blocks, len(l.blocks), l.out
	wrapped := l.cardestSearch()
	search := l.modelSearch(gl)
	out["cardest.wrap_self_us"] = measured{wrapped.value - search.value, search.samples}
	route := l.p.blocks("model.route_us", nb, func(i int) int {
		for k, q := range blocks[i].qs {
			if gl.SelectedSegments(q, blocks[i].taus[k])[0] {
				sink++
			}
		}
		return estPerReq
	}).us()
	out["model.route_us"] = route
	local := l.p.blocks("model.local_eval_us", nb, func(i int) int {
		evals := 0
		for k, q := range blocks[i].qs {
			for j, on := range l.masks[i][k] {
				if on {
					sink += gl.Locals[j].EstimateSearch(q, blocks[i].taus[k])
					evals++
				}
			}
		}
		return max(evals, 1)
	}).us()
	out["model.local_eval_us"] = local
	out["model.stage_coverage"] = measured{(route.value + l.localsPerQuery*local.value) / search.value, search.samples}
	l.dense(1)
	localAnchors := gl.Locals[0].Anchors
	out["dist.anchors_us"] = l.p.blocks("dist.anchors_us", nb, func(i int) int {
		for _, q := range blocks[i].qs {
			for _, a := range localAnchors {
				sink += dist.Distance(gl.Metric, q, a)
			}
		}
		return estPerReq
	}).us()
}

// dense times tensor.MatMulTransB at the default architecture's query-layer
// shape for rows inputs at once.
func (l *layers) dense(rows int) {
	rng := rand.New(rand.NewSource(l.seed))
	a, w, c := tensor.NewMatrix(rows, 64), tensor.NewMatrix(32, 64), tensor.NewMatrix(rows, 32)
	for i := range a.Data {
		a.Data[i] = rng.Float64()
	}
	for i := range w.Data {
		w.Data[i] = rng.NormFloat64()
	}
	name := fmt.Sprintf("tensor.dense_%dx64x32_ns", rows)
	l.out[name] = l.p.loop(name, 1000/rows+1, func() { tensor.MatMulTransB(c, a, w) })
}

// batch is lib_batch's path: the wrapper's batch and join calls, the bare
// model's batch and its stages, the pool, and the kernel at the batch shape.
// model.search_us is taken here as well, for model.batch_speedup.
func (l *layers) batch(gl *model.GlobalLocal) {
	ctx := context.Background()
	blocks, nb, out := l.blocks, len(l.blocks), l.out
	l.cardestBatch()
	out["cardest.join32_us"] = l.p.blocks("cardest.join32_us", nb, func(i int) int {
		v, err := l.st.hard.EstimateJoinCtx(ctx, blocks[i].qs, blocks[i].taus[0])
		l.fail(err)
		sink += v
		return 1
	}).us()
	search := l.modelSearch(gl)
	batch := l.p.blocks("model.batch32_us", nb, func(i int) int {
		sink += gl.EstimateSearchBatch(blocks[i].qs, blocks[i].taus)[0]
		return 1
	}).us()
	out["model.batch32_us"] = batch
	out["model.batch_speedup"] = measured{estPerReq * search.value / batch.value, batch.samples}
	out["model.route_batch32_us"] = l.p.blocks("model.route_batch32_us", nb, func(i int) int {
		sink += gl.Global.ProbsBatch(blocks[i].qs, blocks[i].taus)[0][0]
		return 1
	}).us()
	// The sub-batches EstimateSearchBatch hands to the pool, run one after
	// another: what the locals cost before any parallelism.
	groups := make([][]block, nb)
	for i, b := range blocks {
		groups[i] = make([]block, len(gl.Locals))
		for k, q := range b.qs {
			for j, on := range l.masks[i][k] {
				if on {
					groups[i][j].qs = append(groups[i][j].qs, q)
					groups[i][j].taus = append(groups[i][j].taus, b.taus[k])
				}
			}
		}
	}
	out["model.local_batch_us"] = l.p.blocks("model.local_batch_us", nb, func(i int) int {
		for j, g := range groups[i] {
			if len(g.qs) > 0 {
				sink += gl.Locals[j].EstimateSearchBatch(g.qs, g.taus)[0]
			}
		}
		return 1
	}).us()
	l.dense(estPerReq)
	out["tensor.pool_do8_us"] = l.p.loop("tensor.pool_do8_us", 200, func() {
		tensor.DefaultPool().Do(8, func(int) {})
	}).us()
	out["tensor.pool_workers"] = measured{float64(tensor.PoolSize()), 1}
}

// repeat is lib_repeat's path: the generation pin, a mutation batch, and the
// cache's hit and fill. cardest.search_us is taken here as well, on the same
// delta-tracking estimator the fills go through, for estcache.fill_over_search.
func (l *layers) repeat() {
	ctx := context.Background()
	st, out := l.st, l.out
	out["cardest.acquire_ns"] = l.p.loop("cardest.acquire_ns", 1000, func() {
		_, _, release := st.rel.Acquire()
		release()
	})
	muts := mutationStream(st.ds.Vectors(), l.seed+1, 16)
	out["cardest.mutate_us"] = l.p.each("cardest.mutate_us", 4, len(muts)/4, func(pass, i int) int {
		m := muts[pass*len(muts)/4+i]
		_, err := st.adapter.Mutate(m.inserts, m.deletes)
		l.fail(err)
		return 1
	}).us()
	search := l.cardestSearch()

	// A cold key's fill through the hardened path, a resident key's lookup.
	// Each pass fills a fresh probe cache that holds every pool point, so
	// nothing is evicted and each point is filled once.
	anchors := st.cache.Anchors()
	tauIn := anchors[1]
	var probeCache *estcache.Cache
	var cached *cardest.RobustEstimator
	fill := l.p.each("estcache.fill_us", probePasses, poolPoints/estPerReq, func(_, i int) int {
		if i == 0 {
			var err error
			probeCache, err = estcache.New(estcache.Config{Entries: 2 * poolPoints, Anchors: anchors})
			l.fail(err)
			cached = cardest.Harden(st.est, cardest.ServeOptions{Cache: probeCache})
		}
		for k := 0; k < estPerReq; k++ {
			v, err := cached.EstimateSearchCtx(ctx, st.pool[(i*estPerReq+k)*poolTaus].Vec, tauIn)
			l.fail(err)
			sink += v
		}
		return estPerReq
	}).us()
	out["estcache.fill_us"] = fill
	out["estcache.fill_over_search"] = measured{fill.value / search.value, poolPoints}
	resident := st.pool[(poolPoints-1)*poolTaus].Vec
	if _, ok := probeCache.Get(resident, tauIn); !ok {
		l.fail(fmt.Errorf("estcache probe: the key filled last is not resident"))
		return
	}
	out["estcache.get_hit_ns"] = l.p.loop("estcache.get_hit_ns", 1000, func() {
		v, _ := probeCache.Get(resident, tauIn)
		sink += v
	})
}

// wire is wire_batch's path: the router, a bare POST to one replica, the JSON
// codec on the same payloads, and an empty round trip. cardest.batch32_us is
// taken here as well, in-process, for serving.wire_coverage.
func (l *layers) wire() {
	ctx := context.Background()
	st, blocks, nb, out := l.st, l.blocks, len(l.blocks), l.out
	inProcess, answers := l.cardestBatch()
	router := l.p.blocks("serving.router_us", nb, func(i int) int {
		res, err := st.router.Estimate(ctx, blocks[i].qs, blocks[i].taus)
		l.fail(err)
		if err == nil {
			sink += res.Estimates[0]
		}
		return 1
	}).us()
	out["serving.router_us"] = router
	reqBodies, respBodies := make([][]byte, nb), make([][]byte, nb)
	reqs, resps := make([]serving.EstimateRequest, nb), make([]serving.EstimateResponse, nb)
	for i, b := range blocks {
		reqs[i] = serving.EstimateRequest{Queries: b.qs, Taus: b.taus, DeadlineMs: 1000}
		resps[i] = serving.EstimateResponse{Estimates: answers[i], Generation: 1, Replica: st.replicas[0].Name()}
	}
	explained := inProcess.value
	codec := func(name string, fn func(i int)) {
		m := l.p.blocks(name, nb, func(i int) int { fn(i); return 1 }).us()
		out[name] = m
		explained += m.value
	}
	codec("serving.encode_req_us", func(i int) {
		body, err := json.Marshal(reqs[i])
		l.fail(err)
		reqBodies[i] = body
	})
	codec("serving.encode_resp_us", func(i int) {
		body, err := json.Marshal(resps[i])
		l.fail(err)
		respBodies[i] = body
	})
	codec("serving.decode_req_us", func(i int) {
		var r serving.EstimateRequest
		l.fail(json.NewDecoder(bytes.NewReader(reqBodies[i])).Decode(&r))
	})
	codec("serving.decode_resp_us", func(i int) {
		var r serving.EstimateResponse
		l.fail(json.NewDecoder(bytes.NewReader(respBodies[i])).Decode(&r))
	})
	var reqBytes, respBytes int
	for i := range blocks {
		reqBytes += len(reqBodies[i])
		respBytes += len(respBodies[i])
	}
	out["serving.req_bytes"] = measured{float64(reqBytes) / float64(nb), nb}
	out["serving.resp_bytes"] = measured{float64(respBytes) / float64(nb), nb}
	client := &http.Client{}
	roundTrip := func(method, url string, body []byte) {
		req, err := http.NewRequestWithContext(ctx, method, url, bytes.NewReader(body))
		if err != nil {
			l.fail(err)
			return
		}
		req.Header.Set("Content-Type", "application/json")
		resp, err := client.Do(req)
		if err != nil {
			l.fail(err)
			return
		}
		n, err := io.Copy(io.Discard, resp.Body)
		l.fail(err)
		l.fail(resp.Body.Close())
		if resp.StatusCode != http.StatusOK {
			l.fail(fmt.Errorf("%s %s: status %d", method, url, resp.StatusCode))
		}
		sink += float64(n)
	}
	base := st.replicas[0].URL()
	direct := l.p.blocks("serving.direct_post_us", nb, func(i int) int {
		roundTrip(http.MethodPost, base+"/estimate", reqBodies[i])
		return 1
	}).us()
	out["serving.direct_post_us"] = direct
	healthz := l.p.blocks("serving.healthz_rtt_us", nb, func(int) int {
		roundTrip(http.MethodGet, base+"/healthz", nil)
		return 1
	}).us()
	out["serving.healthz_rtt_us"] = healthz
	out["serving.router_self_us"] = measured{router.value - direct.value, router.samples}
	out["serving.wire_coverage"] = measured{(explained + healthz.value) / router.value, router.samples}
}
