package main

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/serve"
)

// shares returns the single-cycle share (from the AM tables themselves)
// and the heavy-key share of keys.
func shares(t *testing.T, keys []serve.PlanRequest) (single, heavy float64) {
	t.Helper()
	var s, h int
	for _, k := range keys {
		ts, err := core.NewTableSet(k.P, k.K, k.L, k.S)
		if err != nil {
			t.Fatalf("key %+v: %v", k, err)
		}
		if ts.SingleCycle() {
			s++
		}
		if k.P == heavyClass.P && k.K == heavyClass.K {
			h++
		}
	}
	return float64(s) / float64(len(keys)), float64(h) / float64(len(keys))
}

func TestColdKeysSameSeedSameStream(t *testing.T) {
	a, b := coldKeys(7), coldKeys(7)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("coldKeys(7) differs between calls")
	}
	if reflect.DeepEqual(a, coldKeys(8)) {
		t.Fatal("coldKeys(7) and coldKeys(8) are identical; the seed has no effect")
	}
	sa, ha := shares(t, a)
	sb, hb := shares(t, b)
	if sa != sb || ha != hb {
		t.Fatalf("same seed, different shares: single %g/%g heavy %g/%g", sa, sb, ha, hb)
	}
}

// TestColdKeysComposition checks the properties every seed must share:
// the round size, half single-cycle keys, the heavy share, distinct
// strides and keys inside the service limits.
func TestColdKeysComposition(t *testing.T) {
	want := len(lightClasses())*lightPerClass + heavyPerRound
	for seed := int64(1); seed <= 5; seed++ {
		keys := coldKeys(seed)
		if len(keys) != want {
			t.Fatalf("seed %d: %d keys, want %d", seed, len(keys), want)
		}
		single, heavy := shares(t, keys)
		if single != 0.5 {
			t.Errorf("seed %d: single-cycle share %g, want 0.5", seed, single)
		}
		if w := float64(heavyPerRound) / float64(want); heavy != w {
			t.Errorf("seed %d: heavy share %g, want %g", seed, heavy, w)
		}
		strides := map[int64]bool{}
		for _, k := range keys {
			if strides[k.S] {
				t.Errorf("seed %d: stride %d repeats", seed, k.S)
			}
			strides[k.S] = true
			if k.S < 2 || k.S >= strideLimit || k.L < 0 || k.L >= maxLower || k.U != planN-1 {
				t.Errorf("seed %d: key %+v out of range", seed, k)
			}
		}
	}
}

func TestWarmKeysAndSchedule(t *testing.T) {
	keys := warmKeys(3)
	if !reflect.DeepEqual(keys, warmKeys(3)) {
		t.Fatal("warmKeys(3) differs between calls")
	}
	if len(keys) != warmKeyCount {
		t.Fatalf("%d warm keys, want %d", len(keys), warmKeyCount)
	}
	for r, k := range keys {
		if other := warmKeys(4)[r]; other.P != k.P || other.K != k.K {
			t.Errorf("rank %d: layout differs between seeds: %+v vs %+v", r, k, other)
		}
	}
	order := warmSchedule(3, warmKeyCount, warmRound)
	if !reflect.DeepEqual(order, warmSchedule(3, warmKeyCount, warmRound)) {
		t.Fatal("warmSchedule(3) differs between calls")
	}
	if len(order) != warmRound {
		t.Fatalf("schedule of %d requests, want %d", len(order), warmRound)
	}
	counts := make([]int, warmKeyCount)
	for _, i := range order {
		counts[i]++
	}
	other := make([]int, warmKeyCount)
	for _, i := range warmSchedule(4, warmKeyCount, warmRound) {
		other[i]++
	}
	if !reflect.DeepEqual(counts, other) {
		t.Errorf("request counts per key depend on the seed: %v vs %v", counts, other)
	}
	for r := 1; r < warmKeyCount; r++ {
		if counts[r] > counts[r-1] {
			t.Errorf("key %d requested %d times, more than key %d (%d)", r, counts[r], r-1, counts[r-1])
		}
	}
}
