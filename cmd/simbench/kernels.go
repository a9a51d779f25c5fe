package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"simquery/cardest"
	"simquery/internal/dataset"
	"simquery/internal/exper"
	"simquery/internal/tensor"
)

// kernelBenchResult is one row of BENCH_kernels.json.
type kernelBenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	MFLOPS      float64 `json:"mflops,omitempty"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	Workers     int     `json:"workers"`
	// Gomaxprocs records the usable-core count the row was measured under:
	// a pooled row at Workers > Gomaxprocs ran its tasks serially (the GEMM
	// dispatch caps at GOMAXPROCS), so its numbers are a dispatch-overhead
	// measurement, not a scaling one.
	Gomaxprocs int     `json:"gomaxprocs"`
	HitRate    float64 `json:"hit_rate,omitempty"`
	Speedup    float64 `json:"speedup,omitempty"`
	Baseline   string  `json:"baseline,omitempty"`
	Note       string  `json:"note,omitempty"`
}

// kernelBenchFile is the schema of BENCH_kernels.json. Results are
// regenerated with `make bench`; CHANGES.md tracks the trajectory across
// PRs.
type kernelBenchFile struct {
	GoVersion  string              `json:"go_version"`
	GOARCH     string              `json:"goarch"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	Workers    int                 `json:"workers"`
	Benchtime  string              `json:"benchtime"`
	Results    []kernelBenchResult `json:"results"`
}

// kernelBenchtime keeps `make bench` fast while staying statistically
// steady for millisecond-scale kernels.
const kernelBenchtime = "300ms"

// scalingGuardTolerance is the pooled-vs-tiled floor the -scaling-guard
// mode enforces: tiledNs/pooledNs must stay at or above it. On a
// multi-core host a genuine regression drops the ratio below 1; on a
// single-core host the pooled call runs inline (same code path as tiled),
// so the floor only needs to absorb measurement noise.
const scalingGuardTolerance = 0.85

// kernelOptions carries the -kernels CLI configuration into the run.
type kernelOptions struct {
	outPath      string
	workers      int
	benchtime    string
	deadline     time.Duration
	maxInflight  int
	cacheEntries int
	cacheAnchors int
	precision    cardest.Precision
	scalingGuard bool
}

// runKernels runs the tracked kernel + end-to-end benchmark suite and
// writes the JSON baseline to outPath.
func runKernels(o kernelOptions) error {
	testing.Init()
	benchtime := o.benchtime
	if benchtime == "" {
		benchtime = kernelBenchtime
	}
	if f := flag.Lookup("test.benchtime"); f != nil {
		if err := f.Value.Set(benchtime); err != nil {
			return err
		}
	}
	maxprocs := runtime.GOMAXPROCS(0)
	file := kernelBenchFile{
		GoVersion:  runtime.Version(),
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: maxprocs,
		Workers:    o.workers,
		Benchtime:  benchtime,
	}

	fmt.Printf("kernel benchmarks (benchtime %s, pool %d workers, GOMAXPROCS %d)\n",
		benchtime, o.workers, maxprocs)
	if o.workers > maxprocs {
		res := kernelBenchResult{
			Name: "warning_workers_exceed_gomaxprocs", Workers: o.workers, Gomaxprocs: maxprocs,
			Note: fmt.Sprintf("pool sized %d on %d usable cores: pooled rows cannot run concurrently and measure dispatch overhead, not scaling", o.workers, maxprocs),
		}
		file.Results = append(file.Results, res)
		fmt.Printf("WARNING: %s\n", res.Note)
	}

	record := func(res kernelBenchResult) {
		file.Results = append(file.Results, res)
		if res.MFLOPS > 0 {
			fmt.Printf("%-32s %12.0f ns/op %10.1f MFLOPS %6d allocs/op\n",
				res.Name, res.NsPerOp, res.MFLOPS, res.AllocsPerOp)
		} else {
			fmt.Printf("%-32s %12.0f ns/op %17s %6d allocs/op\n",
				res.Name, res.NsPerOp, "", res.AllocsPerOp)
		}
	}
	bench := func(name string, poolWorkers int, flops float64, body func(b *testing.B)) {
		r := testing.Benchmark(body)
		res := kernelBenchResult{
			Name:        name,
			Iterations:  r.N,
			NsPerOp:     float64(r.NsPerOp()),
			AllocsPerOp: r.AllocsPerOp(),
			Workers:     poolWorkers,
			Gomaxprocs:  maxprocs,
		}
		if flops > 0 {
			res.MFLOPS = flops / res.NsPerOp * 1e3
		}
		record(res)
	}

	gemm := func(name string, dim, poolWorkers int, fn func(out, x, y *tensor.Matrix)) {
		tensor.SetPoolSize(poolWorkers)
		rng := rand.New(rand.NewSource(1))
		x := randMat(rng, dim, dim)
		y := randMat(rng, dim, dim)
		out := tensor.NewMatrix(dim, dim)
		bench(name, poolWorkers, 2*float64(dim)*float64(dim)*float64(dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(out, x, y)
			}
		})
	}
	gemm32 := func(name string, dim, poolWorkers int, fn func(out, x, y *tensor.Matrix32)) {
		tensor.SetPoolSize(poolWorkers)
		rng := rand.New(rand.NewSource(1))
		x := randMat32(rng, dim, dim)
		y := randMat32(rng, dim, dim)
		out := tensor.NewMatrix32(dim, dim)
		bench(name, poolWorkers, 2*float64(dim)*float64(dim)*float64(dim), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				fn(out, x, y)
			}
		})
	}

	for _, dim := range []int{256, 512} {
		gemm(fmt.Sprintf("gemm_naive_%d", dim), dim, 1, tensor.NaiveMatMul)
		gemm(fmt.Sprintf("gemm_tiled_%d", dim), dim, 1, tensor.MatMul)
		if o.workers > 1 {
			gemm(fmt.Sprintf("gemm_tiled_pool_%d", dim), dim, o.workers, tensor.MatMul)
		}
		gemm32(fmt.Sprintf("gemm32_naive_%d", dim), dim, 1, tensor.NaiveMatMul32)
		gemm32(fmt.Sprintf("gemm32_tiled_%d", dim), dim, 1, tensor.MatMul32)
		if o.workers > 1 {
			gemm32(fmt.Sprintf("gemm32_tiled_pool_%d", dim), dim, o.workers, tensor.MatMul32)
		}
	}
	gemm("gemm_transb_naive_256", 256, 1, tensor.NaiveMatMulTransB)
	gemm("gemm_transb_tiled_256", 256, 1, tensor.MatMulTransB)
	gemm("gemm_transa_naive_256", 256, 1, tensor.NaiveMatMulTransA)
	gemm("gemm_transa_tiled_256", 256, 1, tensor.MatMulTransA)
	gemm32("gemm32_transb_naive_256", 256, 1, tensor.NaiveMatMulTransB32)
	gemm32("gemm32_transb_tiled_256", 256, 1, tensor.MatMulTransB32)
	tensor.SetPoolSize(o.workers)

	// Vector kernels at the dense-layer width scale.
	rng := rand.New(rand.NewSource(2))
	vx := make([]float64, 1024)
	vy := make([]float64, 1024)
	vx32 := make([]float32, 1024)
	vy32 := make([]float32, 1024)
	for i := range vx {
		vx[i] = rng.NormFloat64()
		vy[i] = rng.NormFloat64()
		vx32[i] = float32(vx[i])
		vy32[i] = float32(vy[i])
	}
	vec := func(name string, fn func() float64) {
		bench(name, 1, 0, func(b *testing.B) {
			b.ReportAllocs()
			var sink float64
			for i := 0; i < b.N; i++ {
				sink += fn()
			}
			_ = sink
		})
	}
	vec("dot_naive_1024", func() float64 { return tensor.NaiveDot(vx, vy) })
	vec("dot_unrolled_1024", func() float64 { return tensor.Dot(vx, vy) })
	vec("dot32_naive_1024", func() float64 { return float64(tensor.NaiveDot32(vx32, vy32)) })
	vec("dot32_unrolled_1024", func() float64 { return float64(tensor.Dot32(vx32, vy32)) })

	if err := runEndToEnd(record, o, maxprocs); err != nil {
		return err
	}

	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if err := os.WriteFile(o.outPath, data, 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d results)\n", o.outPath, len(file.Results))

	if o.scalingGuard {
		return checkScalingGuard(file.Results, o.workers, maxprocs)
	}
	return nil
}

// checkScalingGuard fails when any pooled GEMM row runs slower than its
// single-worker tiled baseline beyond scalingGuardTolerance — the cheap CI
// signal that pool dispatch started costing more than it pays. On a host
// where the pool cannot actually run concurrently (min(workers,
// GOMAXPROCS) == 1, so pooled rows took the inline path) the check is
// skipped: any pooled-vs-tiled delta there is measurement noise, and
// failing on it would just make the guard flaky.
func checkScalingGuard(results []kernelBenchResult, workers, maxprocs int) error {
	if min(workers, maxprocs) <= 1 {
		fmt.Printf("scaling guard: skipped — no real parallelism (pool %d workers, GOMAXPROCS %d)\n",
			workers, maxprocs)
		return nil
	}
	ns := make(map[string]float64, len(results))
	for _, r := range results {
		ns[r.Name] = r.NsPerOp
	}
	checked := 0
	for _, r := range results {
		const marker = "_tiled_pool_"
		i := strings.Index(r.Name, marker)
		if i < 0 {
			continue
		}
		base := r.Name[:i] + "_tiled_" + r.Name[i+len(marker):]
		baseNs, ok := ns[base]
		if !ok || r.NsPerOp <= 0 {
			continue
		}
		checked++
		if ratio := baseNs / r.NsPerOp; ratio < scalingGuardTolerance {
			return fmt.Errorf("scaling guard: %s is %.2fx of %s (floor %.2f) — pool dispatch regressed",
				r.Name, ratio, base, scalingGuardTolerance)
		}
	}
	if checked == 0 {
		fmt.Println("scaling guard: no pooled rows to check (pool size 1)")
		return nil
	}
	fmt.Printf("scaling guard: %d pooled rows hold their tiled baselines (floor %.2f)\n",
		checked, scalingGuardTolerance)
	return nil
}

// runEndToEnd benchmarks the serving path — single, batched, and lowered
// precision-tier GL+ estimates over a small trained suite — so
// kernel-level wins are tracked against what they actually buy end to end.
func runEndToEnd(record func(kernelBenchResult), o kernelOptions, maxprocs int) error {
	fmt.Println("... training small GL+ suite for end-to-end benchmarks")
	params := exper.Params{
		N: 2000, Clusters: 12, TrainPoints: 60, TestPoints: 24,
		Thresholds: 6, Segments: 6, QuerySegs: 6, Epochs: 6,
		JoinSets: 0, Seed: 7,
	}
	env, err := exper.NewEnvWithParams(dataset.ImageNET, exper.Small, params)
	if err != nil {
		return err
	}
	suite, err := exper.BuildSuite(env, exper.SuiteOptions{SkipTuning: true})
	if err != nil {
		return err
	}
	qs := env.W.Test
	vecs := make([][]float64, len(qs))
	taus := make([]float64, len(qs))
	for i, q := range qs {
		vecs[i] = q.Vec
		taus[i] = q.Tau
	}

	r := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			q := qs[i%len(qs)]
			suite.GLPlus.EstimateSearch(q.Vec, q.Tau)
		}
	})
	serialNs := float64(r.NsPerOp())
	record(kernelBenchResult{
		Name: "estimate_search_serial", Iterations: r.N,
		NsPerOp: serialNs, AllocsPerOp: r.AllocsPerOp(), Workers: 1, Gomaxprocs: maxprocs,
	})

	r = testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			suite.GLPlus.EstimateSearchBatch(vecs, taus)
		}
	})
	batchNs := float64(r.NsPerOp()) / float64(len(vecs))
	record(kernelBenchResult{
		Name: "estimate_search_batch_per_query", Iterations: r.N,
		NsPerOp: batchNs, AllocsPerOp: r.AllocsPerOp() / int64(len(vecs)),
		Workers: o.workers, Gomaxprocs: maxprocs,
	})
	fmt.Printf("%34s (batch of %d)\n", "", len(vecs))

	// The lowered tiers, benchmarked on the same batch so the speedup
	// column is apples-to-apples with estimate_search_batch_per_query.
	for _, tier := range []struct {
		name string
		p    cardest.Precision
	}{
		{"estimate_search_f32", cardest.F32},
		{"estimate_search_int8", cardest.Int8},
	} {
		if err := suite.GLPlus.PreCheckPrecision(tier.p); err != nil {
			return fmt.Errorf("%s: %w", tier.name, err)
		}
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := suite.GLPlus.EstimateSearchBatchPrecision(context.Background(), vecs, taus, tier.p); err != nil {
					b.Fatal(err)
				}
			}
		})
		perEst := float64(r.NsPerOp()) / float64(len(vecs))
		res := kernelBenchResult{
			Name: tier.name, Iterations: r.N,
			NsPerOp: perEst, AllocsPerOp: r.AllocsPerOp() / int64(len(vecs)),
			Workers: o.workers, Gomaxprocs: maxprocs,
			Baseline: "estimate_search_batch_per_query",
		}
		if batchNs > 0 {
			res.Speedup = batchNs / perEst
		}
		record(res)
		fmt.Printf("%34s (%.2fx vs f64 batch)\n", "", res.Speedup)
	}

	// Opt-in row: the fault-tolerant serving path, so the wrapper's O(1)
	// admission/guard overhead stays measured. Only emitted when -deadline
	// or -max-inflight is set, keeping the default baseline rows stable.
	// Served at the -precision tier.
	if o.deadline > 0 || o.maxInflight > 0 {
		robust := cardest.Harden(suite.GLPlus, cardest.ServeOptions{
			Deadline: o.deadline, MaxInFlight: o.maxInflight, Precision: o.precision,
		})
		ctx := context.Background()
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				q := qs[i%len(qs)]
				if _, err := robust.EstimateSearchCtx(ctx, q.Vec, q.Tau); err != nil {
					b.Fatal(err)
				}
			}
		})
		record(kernelBenchResult{
			Name: "estimate_search_hardened", Iterations: r.N,
			NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(),
			Workers: 1, Gomaxprocs: maxprocs,
			Note: "precision " + robust.Precision().String(),
		})
	}

	// Opt-in row: the estimate cache on a repeated-query workload (the
	// test queries cycled, thresholds clamped into the anchor band so the
	// row measures cache hits, not out-of-band fall-through). Reports the
	// measured hit rate and the speedup against estimate_search_serial.
	if o.cacheEntries > 0 {
		cache, err := cardest.NewEstimateCache(o.cacheEntries, o.cacheAnchors, env.DS.TauMax, 0)
		if err != nil {
			return err
		}
		robust := cardest.Harden(suite.GLPlus, cardest.ServeOptions{Cache: cache, Precision: o.precision})
		anchors := cache.Anchors()
		lo, hi := anchors[0], anchors[len(anchors)-1]
		ctaus := make([]float64, len(qs))
		for i, q := range qs {
			ctaus[i] = q.Tau
			if ctaus[i] < lo {
				ctaus[i] = lo
			} else if ctaus[i] > hi {
				ctaus[i] = hi
			}
		}
		ctx := context.Background()
		r = testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				j := i % len(qs)
				if _, err := robust.EstimateSearchCtx(ctx, qs[j].Vec, ctaus[j]); err != nil {
					b.Fatal(err)
				}
			}
		})
		st := cache.Stats()
		res := kernelBenchResult{
			Name: "estimate_search_cached", Iterations: r.N,
			NsPerOp: float64(r.NsPerOp()), AllocsPerOp: r.AllocsPerOp(),
			Workers: 1, Gomaxprocs: maxprocs,
			HitRate:  st.HitRate(),
			Baseline: "estimate_search_serial",
			Note:     "precision " + robust.Precision().String(),
		}
		if serialNs > 0 {
			res.Speedup = serialNs / res.NsPerOp
		}
		record(res)
		fmt.Printf("%34s (hit rate %.1f%%, %.1fx vs serial)\n", "", 100*res.HitRate, res.Speedup)
	}
	return nil
}

// randMat fills a matrix with standard normals.
func randMat(rng *rand.Rand, rows, cols int) *tensor.Matrix {
	m := tensor.NewMatrix(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

// randMat32 is randMat for the float32 plane.
func randMat32(rng *rand.Rand, rows, cols int) *tensor.Matrix32 {
	m := tensor.NewMatrix32(rows, cols)
	for i := range m.Data {
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}
