package main

import (
	"math/rand"

	"simquery/cardest"
)

const (
	estPerReq = 32
	zipfS     = 1.1
	tauJitter = 0.10
	// repeatRequests is the length of lib_repeat's precomputed stream; the
	// loop cycles through it. It holds 16 mutation cycles: the share of
	// misses in a cycle varies with the draws, and with only four cycles
	// allocs_per_est moved 1.5 % from seed to seed.
	repeatRequests = 8192
	mutationSize   = 4 // inserts and deletes per batch
	warmupBatches  = 8
	flippedBits    = 3
)

// block is one request's worth of queries.
type block struct {
	qs   [][]float64
	taus []float64
}

// blockOf turns queries into one request.
func blockOf(queries []cardest.Query) block {
	b := block{qs: make([][]float64, len(queries)), taus: make([]float64, len(queries))}
	for k, q := range queries {
		b.qs[k], b.taus[k] = q.Vec, q.Tau
	}
	return b
}

// poolBlocks cuts the pool into requests of estPerReq distinct queries, in
// an order the seed decides.
func poolBlocks(pool []cardest.Query, seed int64) []block {
	shuffled := make([]cardest.Query, len(pool))
	for i, p := range rand.New(rand.NewSource(seed)).Perm(len(pool)) {
		shuffled[i] = pool[p]
	}
	out := make([]block, len(pool)/estPerReq)
	for b := range out {
		out[b] = blockOf(shuffled[b*estPerReq : (b+1)*estPerReq])
	}
	return out
}

// repeatStream is lib_repeat's precomputed requests in compact form — for
// every estimate the pool index of its query and its threshold — so that
// repeatRequests of them take 2.6 MB where blocks would take 9.
type repeatStream struct {
	query []uint16 // estPerReq per request
	taus  []float64
}

// The pool's indices fit the stream's uint16.
const _ = uint16(poolPoints*poolTaus - 1)

func (s repeatStream) requests() int { return len(s.taus) / estPerReq }

// newRepeatStream draws lib_repeat's stream: the query point by Zipf rank,
// one of the point's thresholds, jittered ±tauJitter and clamped into
// [lo, hi], the cache's anchor band. Which points are the popular ones
// belongs to the fixture — a point's cost depends on how many locals it
// routes to, so a seeded choice would move allocations and latency with the
// seed — and the seed decides the draws.
func newRepeatStream(pool []cardest.Query, lo, hi float64, seed int64, requests int) repeatStream {
	points := len(pool) / poolTaus
	rankToPoint := rand.New(rand.NewSource(fixtureSeed)).Perm(points)
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, zipfS, 1, uint64(points-1))
	s := repeatStream{query: make([]uint16, requests*estPerReq), taus: make([]float64, requests*estPerReq)}
	for j := range s.query {
		i := rankToPoint[zipf.Uint64()]*poolTaus + rng.Intn(poolTaus)
		tau := pool[i].Tau * (1 + tauJitter*(2*rng.Float64()-1))
		s.query[j], s.taus[j] = uint16(i), min(max(tau, lo), hi)
	}
	return s
}

// mutation is one Adapter.Mutate batch. Inserts and deletes are equal in
// number, so the dataset keeps its size and every delete index stays valid.
type mutation struct {
	inserts [][]float64
	deletes []int
}

// mutationStream makes count batches from the vectors as first generated:
// each insert is a copy of a data vector with flippedBits bits flipped
// (the dataset is binary hash codes), each delete a distinct index.
func mutationStream(vectors [][]float64, seed int64, count int) []mutation {
	rng := rand.New(rand.NewSource(seed))
	out := make([]mutation, count)
	for m := range out {
		for i := 0; i < mutationSize; i++ {
			v := append([]float64(nil), vectors[rng.Intn(len(vectors))]...)
			for f := 0; f < flippedBits; f++ {
				j := rng.Intn(len(v))
				v[j] = 1 - v[j]
			}
			out[m].inserts = append(out[m].inserts, v)
		}
		out[m].deletes = rng.Perm(len(vectors))[:mutationSize]
	}
	return out
}
