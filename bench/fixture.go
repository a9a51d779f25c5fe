package main

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"simquery/cardest"
	"simquery/internal/estcache"
	"simquery/internal/serving"
)

// The fixture is the same in every workload and on every seed: the run seed
// shapes only the request streams (README, "Seeds"), so accuracy figures
// repeat exactly and timings are not moved by which model a seed trained.
const (
	fixtureSeed  = 1
	dataN        = 8000
	dataClusters = 40
	trainPoints  = 300
	trainTaus    = 10
	poolPoints   = 2048
	poolTaus     = 2
	segments     = 16
	epochs       = 20
	cacheEntries = 1024
	cacheAnchors = 8
	replicaCount = 2
)

// Workload names; later issues cite them.
const (
	libSingle = "lib_single"
	libBatch  = "lib_batch"
	libRepeat = "lib_repeat"
	wireBatch = "wire_batch"
)

var workloadNames = []string{libSingle, libBatch, libRepeat, wireBatch}

// buildSteps are the wall times of one build's own steps.
type buildSteps struct {
	generate, label, train, saveLoad, start time.Duration
}

// stack is one full build: dataset, labeled queries, the trained GL+
// estimator, and the serving stacks the chosen workload drives.
type stack struct {
	ds *cardest.Dataset
	// pool holds poolPoints distinct query points × poolTaus thresholds,
	// exactly labeled, point-major.
	pool []cardest.Query
	est  cardest.Estimator
	// hard is the shipped wrapper with zero ServeOptions (lib_single,
	// lib_batch, and the reference every other path is compared against).
	hard *cardest.RobustEstimator

	// lib_repeat: the adaptive stack with an estimate cache.
	cache   *estcache.Cache
	rel     *cardest.Reloadable
	adapter *cardest.Adapter

	// wire_batch: checkpoint → two replicas on loopback ← one router.
	ckpt     string
	replicas []*serving.Replica
	router   *serving.Router

	steps buildSteps
}

// buildStack runs generate → label → train → harden, then the parts the
// workload needs: cache and adapter for lib_repeat; save, load ×2, replicas
// and router for wire_batch. dir receives the checkpoint; routerSeed fixes
// the router's backoff jitter.
func buildStack(workload, dir string, routerSeed int64) (*stack, error) {
	s := &stack{}
	t0 := time.Now()
	ds, err := cardest.GenerateProfile("imagenet", dataN, dataClusters, fixtureSeed)
	if err != nil {
		return nil, fmt.Errorf("generate dataset: %w", err)
	}
	s.ds = ds
	s.steps.generate = time.Since(t0)

	t0 = time.Now()
	train, test, err := cardest.BuildWorkload(ds, cardest.WorkloadOptions{
		TrainPoints:        trainPoints,
		TestPoints:         poolPoints,
		ThresholdsPerPoint: trainTaus,
		Seed:               fixtureSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("label workload: %w", err)
	}
	// The test split carries trainTaus geometric thresholds per point, drawn
	// independently; the pool keeps the first poolTaus of each.
	s.pool = make([]cardest.Query, 0, poolPoints*poolTaus)
	for p := 0; p < poolPoints; p++ {
		s.pool = append(s.pool, test[p*trainTaus:p*trainTaus+poolTaus]...)
	}
	s.steps.label = time.Since(t0)

	t0 = time.Now()
	s.est, err = cardest.Train(ds, train, cardest.TrainOptions{
		Method: "gl+", Segments: segments, Epochs: epochs, Seed: fixtureSeed,
	})
	if err != nil {
		return nil, fmt.Errorf("train: %w", err)
	}
	s.hard = cardest.Harden(s.est, cardest.ServeOptions{})
	s.steps.train = time.Since(t0)

	if workload == libRepeat {
		anchors := cardest.TauAnchors(train, cacheAnchors)
		s.cache, err = estcache.New(estcache.Config{Entries: cacheEntries, Anchors: anchors})
		if err != nil {
			return nil, fmt.Errorf("estimate cache: %w", err)
		}
		s.rel, s.adapter = cardest.ServeAdaptive(s.est, ds, cardest.ServeOptions{Cache: s.cache})
	}
	if workload == wireBatch {
		t0 = time.Now()
		s.ckpt = filepath.Join(dir, "glplus.ckpt")
		if err := cardest.Save(s.est, s.ckpt); err != nil {
			return nil, err
		}
		loaded := make([]cardest.Estimator, 0, replicaCount)
		for i := 0; i < replicaCount; i++ {
			e, err := cardest.Load(s.ckpt, ds)
			if err != nil {
				return nil, err
			}
			loaded = append(loaded, e)
		}
		s.steps.saveLoad = time.Since(t0)

		t0 = time.Now()
		urls := make([]string, 0, replicaCount)
		for i, e := range loaded {
			rep := serving.NewReplica(cardest.Harden(e, cardest.ServeOptions{}),
				serving.ReplicaConfig{Name: fmt.Sprintf("bench-r%d", i)})
			if err := rep.Start("127.0.0.1:0"); err != nil {
				s.close()
				return nil, err
			}
			s.replicas = append(s.replicas, rep)
			urls = append(urls, rep.URL())
		}
		s.router, err = serving.NewRouter(urls, serving.RouterOptions{Seed: routerSeed})
		if err != nil {
			s.close()
			return nil, err
		}
		s.steps.start = time.Since(t0)
	}
	return s, nil
}

// close stops the router's prober and both replicas and removes the
// checkpoint; the in-process parts need no teardown.
func (s *stack) close() {
	if s.router != nil {
		s.router.Close()
		s.router = nil
	}
	for _, r := range s.replicas {
		_ = r.Close() // only ever read from; nothing to flush
	}
	s.replicas = nil
	if s.ckpt != "" {
		_ = os.Remove(s.ckpt)
		s.ckpt = ""
	}
}
