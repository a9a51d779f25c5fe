package main

import (
	"reflect"
	"testing"

	"simquery/cardest"
)

// fakePool is points × poolTaus queries over distinct binary vectors; no
// dataset or training is involved.
func fakePool(points int) []cardest.Query {
	pool := make([]cardest.Query, 0, points*poolTaus)
	for p := 0; p < points; p++ {
		v := make([]float64, 16)
		for j := range v {
			v[j] = float64(p >> j & 1)
		}
		for k := 0; k < poolTaus; k++ {
			pool = append(pool, cardest.Query{Vec: v, Tau: 0.1 + 0.2*float64(k) + float64(p)/1000})
		}
	}
	return pool
}

func TestStreamsRepeatForOneSeedAndDifferAcrossSeeds(t *testing.T) {
	pool := fakePool(64)
	vectors := make([][]float64, len(pool))
	for i, q := range pool {
		vectors[i] = q.Vec
	}
	streams := func(seed int64) (a []block, b repeatStream, m []mutation) {
		return poolBlocks(pool, seed), newRepeatStream(pool, 0.15, 0.3, seed, 50), mutationStream(vectors, seed, 5)
	}
	a1, b1, m1 := streams(7)
	a2, b2, m2 := streams(7)
	if !reflect.DeepEqual(a1, a2) || !reflect.DeepEqual(b1, b2) || !reflect.DeepEqual(m1, m2) {
		t.Fatal("the same seed gave different streams")
	}
	a3, b3, m3 := streams(8)
	if reflect.DeepEqual(a1, a3) || reflect.DeepEqual(b1, b3) || reflect.DeepEqual(m1, m3) {
		t.Fatal("another seed gave the same stream")
	}
}

func TestPoolBlocksCoverThePoolOnce(t *testing.T) {
	pool := fakePool(64)
	seen := map[float64]int{}
	blocks := poolBlocks(pool, 3)
	if len(blocks) != len(pool)/estPerReq {
		t.Fatalf("%d blocks, want %d", len(blocks), len(pool)/estPerReq)
	}
	for _, b := range blocks {
		if len(b.qs) != estPerReq || len(b.taus) != estPerReq {
			t.Fatalf("block of %d queries and %d thresholds, want %d", len(b.qs), len(b.taus), estPerReq)
		}
		for _, tau := range b.taus {
			seen[tau]++ // fakePool's thresholds are all distinct
		}
	}
	if len(seen) != len(pool) {
		t.Fatalf("blocks hold %d distinct queries, want %d", len(seen), len(pool))
	}
}

func TestRepeatStreamIsSkewedAndInBand(t *testing.T) {
	pool := fakePool(64)
	const lo, hi = 0.15, 0.3
	counts := map[int]int{}
	stream := newRepeatStream(pool, lo, hi, 1, 200)
	if stream.requests() != 200 || len(stream.query) != 200*estPerReq {
		t.Fatalf("stream of %d requests and %d queries, want 200 × %d", stream.requests(), len(stream.query), estPerReq)
	}
	for j, i := range stream.query {
		if tau := stream.taus[j]; tau < lo || tau > hi {
			t.Fatalf("threshold %v outside [%v, %v]", tau, lo, hi)
		}
		counts[int(i)/poolTaus]++
	}
	total := len(stream.query)
	most := 0
	for _, c := range counts {
		most = max(most, c)
	}
	if most*5 < total { // Zipf(1.1) over 64 points puts well over a fifth on rank one
		t.Errorf("hottest point drew %d of %d: not skewed", most, total)
	}
}

func TestMutationsKeepTheDatasetSize(t *testing.T) {
	pool := fakePool(64)
	vectors := make([][]float64, len(pool))
	for i, q := range pool {
		vectors[i] = q.Vec
	}
	for _, m := range mutationStream(vectors, 1, 20) {
		if len(m.inserts) != mutationSize || len(m.deletes) != mutationSize {
			t.Fatalf("batch of %d inserts and %d deletes, want %d each", len(m.inserts), len(m.deletes), mutationSize)
		}
		seen := map[int]bool{}
		for _, d := range m.deletes {
			if d < 0 || d >= len(vectors) || seen[d] {
				t.Fatalf("delete indices %v are not distinct and in range", m.deletes)
			}
			seen[d] = true
		}
	}
}
