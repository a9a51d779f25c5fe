package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"simquery/internal/estcache"
	"simquery/internal/serving"
)

const (
	builds         = 3
	warmupRequests = 2000
	warmupEvery    = warmupRequests / warmupBatches
	timedEvery     = 512
	timedBatches   = 128
	// A slice does the same work as every other: the pool's 128 requests
	// twice over, or on lib_repeat one mutation batch and the timedEvery
	// requests up to the next.
	poolSliceRequests = 2 * poolPoints * poolTaus / estPerReq
	// sampleCapacity is each client's latency buffer, 1 MB whatever --seconds
	// says, so the heap the collector paces on does not grow with the flag.
	// It lasts 14 s at 210 µs a request (today's quickest take 450 µs); a
	// client that fills it stops early.
	sampleCapacity = 1 << 16
	// spanCapacity is each client's span buffer in a traced run: 31 traced
	// slices of lib_single, a quarter of 18 s. A client that runs out of
	// room stops tracing at a slice boundary (runClient).
	spanCapacity = 1 << 18
)

// options are one run's command-line choices.
type options struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	outDir   string
}

// metricDef names one reported metric; the lists below are the ledger's
// catalogue and BENCHMARK.json repeats them.
type metricDef struct{ name, unit string }

var endToEndMetrics = []metricDef{
	{"lat_p50_us", "us"},
	{"lat_p95_over_p50", "ratio"},
	{"throughput_eps", "1/s"},
	{"allocs_per_est", "count"},
	{"alloc_bytes_per_est", "bytes"},
	{"heap_live_mb", "MB"},
	{"qerr_median", "ratio"},
	{"qerr_p90", "ratio"},
	{"ok_share", "share"},
	{"setup_s", "s"},
}

// unboundedMetrics are timing figures that do not repeat on the sandbox and
// so carry no bound: the 95th percentile of the quiet slices in µs (its two
// factors, lat_p50_us and lat_p95_over_p50, do repeat) and the issue's
// median-over-2-s-windows figures, which leave nothing out. Every run prints
// and records them beside the bounded ones, and the traced run reports them
// at the head of the per-layer metrics.
var unboundedMetrics = []metricDef{
	{"lat_p95_us", "us"},
	{"sustained.lat_p50_us", "us"},
	{"sustained.lat_p95_us", "us"},
	{"sustained.throughput_eps", "1/s"},
}

// measured is one metric's value with the number of samples behind it.
type measured struct {
	value   float64
	samples int
}

// outcome is everything one run reports.
type outcome struct {
	opts      options
	clients   int
	slices    int // slices measured
	attempted int
	failed    int
	values    map[string]measured
	// spans of a traced run, per client, with the probe recorder last.
	recs      []*recorder
	spanNames []string
}

// newTarget wires the workload's target over st. The warm-up mutation
// batches come from the fixture seed so the verification pass sees the same
// dataset on every run seed; the timed ones come from the run seed.
func newTarget(st *stack, o options, clients int) target {
	liveN := float64(st.ds.Size())
	switch o.workload {
	case libSingle:
		return &singleTarget{est: st.hard, blocks: poolBlocks(st.pool, o.seed), liveN: liveN}
	case libBatch:
		return &batchTarget{est: st.hard, blocks: poolBlocks(st.pool, o.seed), liveN: liveN}
	case libRepeat:
		anchors := st.cache.Anchors()
		vectors := st.ds.Vectors()
		return &repeatTarget{
			rel:     st.rel,
			adapter: st.adapter,
			pool:    st.pool,
			stream:  newRepeatStream(st.pool, anchors[0], anchors[len(anchors)-1], o.seed, repeatRequests),
			mutations: append(mutationStream(vectors, fixtureSeed, warmupBatches),
				mutationStream(vectors, o.seed, timedBatches)...),
			every: warmupEvery,
			liveN: liveN,
		}
	default:
		return &wireTarget{router: st.router, blocks: poolBlocks(st.pool, o.seed), clients: clients, liveN: liveN}
	}
}

// timed is the raw material of one timed phase.
type timed struct {
	runs       []clientRun
	durNs      int64 // the phase as asked for
	wall       time.Duration
	mem0, mem1 runtime.MemStats
	cpuNs      int64
	cache      estcache.Stats
	router     serving.RouterStats
}

func cpuTimeNs() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// runTimed measures t for seconds with the given number of clients. The
// sample buffers are allocated ahead of the first MemStats reading, so the
// allocation counts between the readings belong to the program under test.
func runTimed(st *stack, t target, clients, seconds, sliceRequests int, recs []*recorder) timed {
	dur := time.Duration(seconds) * time.Second
	bufs := make([][]sample, clients)
	for c := range bufs {
		bufs[c] = make([]sample, sampleCapacity)
	}
	var cache0 estcache.Stats
	var router0 serving.RouterStats
	if st.cache != nil {
		cache0 = st.cache.Stats()
	}
	if st.router != nil {
		router0 = st.router.Stats()
	}
	out := timed{durNs: dur.Nanoseconds()}
	runtime.ReadMemStats(&out.mem0)
	cpu0 := cpuTimeNs()
	origin := time.Now()
	out.runs = runClients(t, origin, dur, sliceRequests/clients, bufs, recs)
	out.wall = time.Since(origin)
	out.cpuNs = cpuTimeNs() - cpu0
	runtime.ReadMemStats(&out.mem1)
	if st.cache != nil {
		s := st.cache.Stats()
		out.cache = estcache.Stats{Hits: s.Hits - cache0.Hits, Misses: s.Misses - cache0.Misses,
			Interpolated: s.Interpolated - cache0.Interpolated, Evictions: s.Evictions - cache0.Evictions}
	}
	if st.router != nil {
		s := st.router.Stats()
		out.router = serving.RouterStats{Requests: s.Requests - router0.Requests,
			Retries: s.Retries - router0.Retries, Hedges: s.Hedges - router0.Hedges, Shed: s.Shed - router0.Shed}
	}
	return out
}

func (t *timed) samples() [][]sample {
	out := make([][]sample, len(t.runs))
	for c, r := range t.runs {
		out[c] = r.samples
	}
	return out
}

func (t *timed) requests() (n, failed int) {
	for _, r := range t.runs {
		n += len(r.samples)
		failed += r.failed
	}
	return n, failed
}

// run performs one whole run of one workload: build, warm up, verify,
// measure. An error means the run has no result — a failed build, a warm-up
// failure, or a verification violation.
func run(o options) (*outcome, error) {
	tmp := filepath.Join(o.outDir, fmt.Sprintf("tmp-%d", os.Getpid()))
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	clients := 1
	if o.workload == wireBatch {
		clients = min(2, runtime.GOMAXPROCS(0))
	}
	sliceRequests := poolSliceRequests
	if o.workload == libRepeat {
		sliceRequests = timedEvery
	}
	res := &outcome{opts: o, clients: clients, values: map[string]measured{}}

	// Build the workload's stack: builds times over for the median wall time
	// of an untraced run, once for a traced run, which reports the steps.
	n := builds
	if o.trace {
		n = 1
	}
	var st *stack
	times := make([]float64, 0, n)
	for b := 0; b < n; b++ {
		if st != nil {
			st.close()
			st = nil
		}
		runtime.GC() // each build starts from an empty heap
		t0 := time.Now()
		var err error
		if st, err = buildStack(o.workload, tmp, o.seed); err != nil {
			return nil, fmt.Errorf("build: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	defer st.close()
	res.values["setup_s"] = measured{median(times), len(times)}

	t := newTarget(st, o, clients)
	if failed := warmUp(t, warmupRequests); failed > 0 {
		return nil, fmt.Errorf("warm-up: %d operations failed", failed)
	}
	v, err := verify(st, o.workload)
	if err != nil {
		return nil, fmt.Errorf("verification: %w", err)
	}
	res.values["qerr_median"] = measured{v.qerrMedian, v.checked}
	res.values["qerr_p90"] = measured{v.qerrP90, v.checked}
	res.values["cardest.join_floor_share"] = measured{v.joinFloorShare, joinSets}
	if rt, ok := t.(*repeatTarget); ok {
		rt.every = timedEvery
	}

	var recs []*recorder
	if o.trace {
		if recs, err = probeRun(st, tmp, res); err != nil {
			return nil, err
		}
	} else {
		recs = make([]*recorder, clients)
		runtime.GC()
		runtime.GC() // the second cycle frees what the first one's sweep found
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		res.values["heap_live_mb"] = measured{float64(ms.HeapAlloc) / (1 << 20), 1}
	}

	tm := runTimed(st, t, clients, o.seconds, sliceRequests, recs)
	requests, failed := tm.requests()
	res.attempted, res.failed = requests*estPerReq, failed
	est := float64(res.attempted)
	all := sustained(tm.samples(), tm.durNs, estPerReq)
	res.values["sustained.lat_p50_us"] = measured{all.p50, all.requests}
	res.values["sustained.lat_p95_us"] = measured{all.p95, all.requests}
	res.values["sustained.throughput_eps"] = measured{all.eps, all.requests}
	if o.trace {
		return res, tracedMetrics(&tm, sliceRequests, res)
	}

	ss := cutSlices(tm.samples(), sliceRequests)
	res.slices = len(ss)
	if res.slices == 0 {
		return nil, fmt.Errorf("%d requests in %d s do not fill one slice of %d", requests, o.seconds, sliceRequests)
	}
	q := quiet(ss, estPerReq)
	res.values["lat_p50_us"] = measured{q.p50, q.requests}
	res.values["lat_p95_us"] = measured{q.p95, q.requests}
	res.values["lat_p95_over_p50"] = measured{tailRatio(ss), len(ss) * sliceRequests}
	res.values["throughput_eps"] = measured{q.eps, q.requests}
	res.values["allocs_per_est"] = measured{float64(tm.mem1.Mallocs-tm.mem0.Mallocs) / est, res.attempted}
	res.values["alloc_bytes_per_est"] = measured{float64(tm.mem1.TotalAlloc-tm.mem0.TotalAlloc) / est, res.attempted}
	res.values["ok_share"] = measured{1 - float64(res.failed)/est, res.attempted}
	return res, nil
}

// probeRun is the traced run's first half: time the workload's own layers
// from outside (the other workloads' layers read 0) and make the span
// recorders of the timed phase, the probe recorder last.
func probeRun(st *stack, tmp string, res *outcome) ([]*recorder, error) {
	o := res.opts
	origin := time.Now()
	p := &prober{rec: newRecorder(origin, probeSpanCap), names: append([]string(nil), loopSpanNames...)}
	vals := res.values
	if err := probeLayers(st, o.workload, tmp, poolBlocks(st.pool, o.seed), o.seed, p, vals); err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	vals["dataset.generate_s"] = measured{st.steps.generate.Seconds(), 1}
	vals["workload.label_s"] = measured{st.steps.label.Seconds(), 1}
	vals["model.train_s"] = measured{st.steps.train.Seconds(), 1}
	vals["cardest.save_load_s"] = measured{st.steps.saveLoad.Seconds(), 1}
	vals["serving.start_s"] = measured{st.steps.start.Seconds(), 1}
	recs := make([]*recorder, res.clients, res.clients+1)
	for c := range recs {
		recs[c] = newRecorder(origin, spanCapacity)
	}
	res.recs, res.spanNames = append(recs, p.rec), p.names
	return recs, nil
}

// tracedMetrics is the traced run's second half: the per-layer metrics that
// come from the timed phase itself.
func tracedMetrics(tm *timed, sliceRequests int, res *outcome) error {
	vals := res.values
	est := float64(res.attempted)
	requests := res.attempted / estPerReq

	// Each client traced one slice in traceEvery of its own requests. The
	// price of tracing is how much slower a traced slice's median request is
	// than the untraced slices on either side of it, which the host treated
	// alike; the median over all such trios is reported.
	var lats, ratios []float64
	var plain []slice
	per := sliceRequests / res.clients
	for _, r := range tm.runs {
		ss := cutSlices([][]sample{r.samples}, per)
		res.slices += len(ss)
		p50 := make([]float64, len(ss))
		for k, s := range ss {
			lats = append(lats, s.lats...)
			sort.Float64s(s.lats)
			p50[k] = percentile(s.lats, 0.50)
			if !tracedSlice(k) || k/traceEvery >= r.tracedSlices {
				plain = append(plain, s)
			}
		}
		for k := 1; k+1 < len(ss) && k/traceEvery < r.tracedSlices; k += traceEvery {
			ratios = append(ratios, 2*p50[k]/(p50[k-1]+p50[k+1]))
		}
	}
	if len(ratios) == 0 {
		return fmt.Errorf("%d requests in %d s do not fill a traced slice of %d and its neighbours", requests, res.opts.seconds, sliceRequests)
	}
	sort.Float64s(lats)
	q := quiet(plain, estPerReq)
	vals["lat_p95_us"] = measured{q.p95, q.requests}
	vals["request.p99_us"] = measured{percentile(lats, 0.99), len(lats)}
	vals["trace.overhead_share"] = measured{median(ratios) - 1, len(ratios)}
	vals["process.cpu_us_per_est"] = measured{float64(tm.cpuNs) / 1e3 / est, res.attempted}
	vals["process.alloc_bytes_per_est"] = measured{float64(tm.mem1.TotalAlloc-tm.mem0.TotalAlloc) / est, res.attempted}
	vals["process.gc_cycles_per_s"] = measured{float64(tm.mem1.NumGC-tm.mem0.NumGC) / tm.wall.Seconds(), int(tm.mem1.NumGC - tm.mem0.NumGC)}
	vals["fail_share"] = measured{float64(res.failed) / est, res.attempted}

	// Lookups the cache answered or missed, as shares of the estimates; the
	// rest went around it (τ outside the anchor band, or no cache at all).
	looked := float64(tm.cache.Hits + tm.cache.Misses)
	vals["estcache.hit_share"] = measured{float64(tm.cache.Hits-tm.cache.Interpolated) / est, res.attempted}
	vals["estcache.interpolated_share"] = measured{float64(tm.cache.Interpolated) / est, res.attempted}
	vals["estcache.miss_share"] = measured{float64(tm.cache.Misses) / est, res.attempted}
	vals["estcache.bypass_share"] = measured{(est - looked) / est, res.attempted}
	vals["estcache.evictions_per_kest"] = measured{1000 * float64(tm.cache.Evictions) / est, res.attempted}
	kreq := float64(requests) / 1000
	vals["serving.retries_per_kreq"] = measured{float64(tm.router.Retries) / kreq, requests}
	vals["serving.hedges_per_kreq"] = measured{float64(tm.router.Hedges) / kreq, requests}
	vals["serving.shed_per_kreq"] = measured{float64(tm.router.Shed) / kreq, requests}
	return nil
}

// finite guards the report: a metric that came out NaN or infinite is a
// harness bug, not a measurement.
func (res *outcome) finite(defs []metricDef) error {
	for _, d := range defs {
		m, ok := res.values[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s has no finite value", d.name)
		}
	}
	return nil
}
