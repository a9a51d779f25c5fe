package tensor

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync/atomic"

	"simquery/internal/faultinject"
	"simquery/internal/faulttol"
	"simquery/internal/reqtrace"
	"simquery/internal/telemetry"
)

// Pool is a persistent worker pool for data-parallel kernels. It is the
// single parallelism budget of the serving engine: GEMM row blocks
// (gemmDispatch) and the model layer's batched per-segment evaluation both
// draw from the same pool, so concurrent callers share one set of workers
// instead of stacking ad-hoc goroutine fan-outs.
//
// The scheduling discipline is caller-participation: Do offers the job to
// idle workers without ever blocking, then the calling goroutine claims
// tasks itself until none remain. Two properties follow:
//
//   - No deadlock under nesting. A Do issued from inside a pool task (a
//     batched estimate whose local-model GEMMs cross the parallel
//     threshold) always completes, because the caller alone can drain the
//     whole job; busy workers just mean less help.
//   - Graceful saturation. When every worker is occupied, additional Do
//     callers degrade to inline execution at zero coordination cost.
//
// Workers that pick up a job each run their share of tasks; per-goroutine
// scratch arenas are reused through the existing sync.Pool-based Scratch
// pools of the nn/model layers (each participating goroutine checks one
// out per task batch), so the pool adds no second arena-pooling scheme.
type Pool struct {
	workers int
	jobs    chan *job
	active  atomic.Int64 // participants currently inside a parallel region
}

// job is one parallel-for: tasks [0, n) claimed by atomic increment. fin
// closes when the last claimed task finishes, which may be before stale
// offers are drained from the jobs channel — late workers see next ≥ n and
// return immediately. pan holds the first task panic, recovered so that a
// crashing task can neither kill a background worker goroutine (which
// would take the process down) nor leave fin unclosed (which would
// deadlock Do); Do re-raises it on the calling goroutine once every task
// has finished.
type job struct {
	fn   func(task int)
	n    int64
	next atomic.Int64
	done atomic.Int64
	fin  chan struct{}
	pan  atomic.Pointer[faulttol.PanicError]
}

// NewPool starts a pool with the given worker count (minimum 1). A pool of
// one worker runs everything inline on the caller — no goroutines are
// spawned. workers-1 background goroutines serve larger pools; the
// submitting caller is always the final participant.
func NewPool(workers int) *Pool {
	if workers < 1 {
		workers = 1
	}
	p := &Pool{workers: workers, jobs: make(chan *job, workers)}
	for w := 0; w < workers-1; w++ {
		go p.worker()
	}
	return p
}

// Workers reports the pool's configured worker count.
func (p *Pool) Workers() int { return p.workers }

// Close stops the background workers after they drain outstanding jobs.
// It must not race with Do on the same pool; intended for tests and for
// pools being replaced at startup.
func (p *Pool) Close() { close(p.jobs) }

// worker is the background loop: claim tasks from whatever job arrives.
func (p *Pool) worker() {
	for j := range p.jobs {
		p.participate(j)
	}
}

// participate claims and runs tasks of j until none remain, maintaining
// the utilization gauge when telemetry is live.
func (p *Pool) participate(j *job) {
	rec := telemetry.Default()
	enabled := rec.Enabled()
	if enabled {
		rec.SetGauge(telemetry.MetricPoolUtilization, float64(p.active.Add(1))/float64(p.workers))
	}
	for {
		t := j.next.Add(1) - 1
		if t >= j.n {
			break
		}
		p.runTask(j, int(t))
	}
	if enabled {
		rec.SetGauge(telemetry.MetricPoolUtilization, float64(p.active.Add(-1))/float64(p.workers))
	}
}

// runTask executes one task of j, recovering a panic so the worker
// goroutine survives and the job still completes. The first panic is kept
// (as a *faulttol.PanicError with the stack from the panic site) and
// re-raised by Do on the calling goroutine; later panics from concurrent
// tasks are recovered and dropped.
func (p *Pool) runTask(j *job, t int) {
	defer func() {
		if r := recover(); r != nil {
			j.pan.CompareAndSwap(nil, faulttol.Recovered(r))
		}
		if j.done.Add(1) == j.n {
			close(j.fin)
		}
	}()
	if faultinject.Armed() {
		faultinject.PoolTask.Fire()
	}
	j.fn(t)
}

// Do runs fn(0) … fn(n-1), in parallel across the pool when it has more
// than one worker. Tasks may run in any order and concurrently; fn must be
// safe for that. Do returns when every task has finished. A nil pool, a
// single-worker pool, or n ≤ 1 runs inline with no allocation.
//
// If a task panics, the panic is re-raised on the calling goroutine (as a
// *faulttol.PanicError) after all other tasks finish — background workers
// and concurrent Do callers are never taken down by one bad task.
func (p *Pool) Do(n int, fn func(task int)) {
	if n <= 0 {
		return
	}
	if n == 1 || p == nil || p.workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	rec := telemetry.Default()
	if rec.Enabled() {
		rec.Count(telemetry.MetricPoolDispatchTotal, 1)
		rec.SetGauge(telemetry.MetricPoolWorkers, float64(p.workers))
	}
	j := &job{fn: fn, n: int64(n), fin: make(chan struct{})}
	// Offer the job to idle workers; never block — a full channel means the
	// pool is saturated and the caller simply does more of the work itself.
	offers := min(p.workers-1, n-1)
offer:
	for o := 0; o < offers; o++ {
		select {
		case p.jobs <- j:
		default:
			break offer
		}
	}
	p.participate(j)
	<-j.fin
	if pe := j.pan.Load(); pe != nil {
		panic(pe)
	}
}

// DoCtx is Do timed as the pool stage: the region's wall time lands in
// simquery_stage_seconds{stage="pool"} when telemetry is live and, when ctx
// carries a sampled reqtrace.Trace, in the trace together with the task
// count. With neither (the common case) it costs one context value lookup
// and one atomic load on top of Do.
func (p *Pool) DoCtx(ctx context.Context, n int, fn func(task int)) {
	tr := reqtrace.FromContext(ctx)
	st := reqtrace.StartStage(tr, reqtrace.StagePool)
	defer st.End()
	tr.AddPoolTasks(n)
	p.Do(n, fn)
}

// defPool is the lazily created package-level pool.
var defPool atomic.Pointer[Pool]

// DefaultPool returns the package-level pool, creating it on first use
// with EnvWorkers() workers. The lazy default cannot refuse a bad
// SIMQUERY_WORKERS value (there is no error channel here), so it falls
// back to GOMAXPROCS; serving binaries call SetPoolSize at startup, which
// does reject garbage with a clear error.
func DefaultPool() *Pool {
	if p := defPool.Load(); p != nil {
		return p
	}
	n, _ := EnvWorkers()
	p := NewPool(n)
	if defPool.CompareAndSwap(nil, p) {
		return p
	}
	p.Close()
	return defPool.Load()
}

// SetPoolSize replaces the package-level pool with one of n workers (n ≤ 0
// resolves through EnvWorkers) and returns the effective size. An invalid
// SIMQUERY_WORKERS value is an error — the pool is left unchanged rather
// than silently misconfigured. Intended for process startup (the cmd
// -workers flags call it before serving); the previous pool is abandoned,
// not closed, so callers racing with the swap finish safely on it.
func SetPoolSize(n int) (int, error) {
	if n <= 0 {
		var err error
		if n, err = EnvWorkers(); err != nil {
			return 0, err
		}
	}
	p := NewPool(n)
	defPool.Store(p)
	return p.workers, nil
}

// PoolSize reports the package-level pool's worker count.
func PoolSize() int { return DefaultPool().Workers() }

// ParseWorkers validates a worker-count setting: a positive decimal
// integer.
func ParseWorkers(s string) (int, error) {
	n, err := strconv.Atoi(strings.TrimSpace(s))
	if err != nil || n <= 0 {
		return 0, fmt.Errorf("tensor: invalid worker count %q: want a positive integer", s)
	}
	return n, nil
}

// EnvWorkers resolves the default worker count: SIMQUERY_WORKERS when set,
// else GOMAXPROCS. A non-positive or garbage SIMQUERY_WORKERS returns
// GOMAXPROCS together with a descriptive error so callers with an error
// channel (SetPoolSize, the CLI startup paths) can reject it instead of
// silently misconfiguring the pool.
func EnvWorkers() (int, error) {
	if s := os.Getenv("SIMQUERY_WORKERS"); s != "" {
		n, err := ParseWorkers(s)
		if err != nil {
			return runtime.GOMAXPROCS(0), fmt.Errorf("SIMQUERY_WORKERS: %w", err)
		}
		return n, nil
	}
	return runtime.GOMAXPROCS(0), nil
}
