package main

import (
	"math"
	"math/rand"

	"repro/internal/serve"
)

// Plan keys. Both plan workloads draw their hpfd keys from the seeded
// generator below. The seed decides the section lower bounds, the
// strides and the request order; the mix of layouts, the share of
// single-cycle keys and the share of heavy keys are fixed, so every
// seed puts the same kind of work under each percentile.

// planClass is one (p, k) layout of the key generator.
type planClass struct{ P, K int64 }

// heavyClass is the 64-rank cyclic(4096) layout, the costliest compile
// the generator asks for.
var heavyClass = planClass{P: 64, K: 4096}

// lightClasses returns every other layout with p in {8, 16, 32, 64}
// and k in {64, ..., 4096}, p-major.
func lightClasses() []planClass {
	var out []planClass
	for _, p := range []int64{8, 16, 32, 64} {
		for k := int64(64); k <= 4096; k *= 2 {
			if c := (planClass{P: p, K: k}); c != heavyClass {
				out = append(out, c)
			}
		}
	}
	return out
}

const (
	// planN is the array extent of every key; sections run l:n-1:s.
	planN = 1 << 22
	// maxLower bounds the section lower bound l, drawn in [0, maxLower).
	maxLower = 64
	// strideLimit bounds the strides, drawn in [2, strideLimit).
	strideLimit = 8192

	// One plan-cold round is lightPerClass keys of each of the 27 light
	// layouts plus heavyPerRound heavy keys: 568 keys, 4.9 % heavy, so
	// p99 falls inside the heavy class and p50 inside the light ones.
	lightPerClass = 20
	heavyPerRound = 28

	// warmKeyCount is the size of the plan-warm key set.
	warmKeyCount = 32
	// warmZipf is the exponent of the plan-warm popularity law.
	warmZipf = 1.2
)

// planKey builds the request for one class, lower bound and stride.
func planKey(c planClass, l, s int64) serve.PlanRequest {
	return serve.PlanRequest{P: c.P, K: c.K, L: l, U: planN - 1, S: s, N: planN}
}

// stratifiedStride returns the i-th of n strides of one class. It is
// drawn from the i-th of n equal bins of [3, strideLimit), so a class's
// strides span the range the same way under every seed. Even i gives an
// odd stride (gcd(s, pk) = 1: the single-cycle case of §6.1, since pk
// is a power of two), odd i gives twice an odd number (gcd 2). A stride
// already in used is redrawn, so no two keys share a stride.
func stratifiedStride(rng *rand.Rand, used map[int64]bool, i, n int) int64 {
	lo := 3 + int64(i)*(strideLimit-3)/int64(n)
	hi := 3 + int64(i+1)*(strideLimit-3)/int64(n)
	for {
		s := lo + rng.Int63n(hi-lo)
		if i%2 == 0 {
			s |= 1
		} else {
			s = s&^3 | 2
		}
		if s >= 2 && s < strideLimit && !used[s] {
			used[s] = true
			return s
		}
	}
}

// coldKeys returns the keys of one plan-cold round in request order:
// lightPerClass keys of every light layout and heavyPerRound heavy
// keys, half of each class with odd strides, every stride distinct.
func coldKeys(seed int64) []serve.PlanRequest {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	var keys []serve.PlanRequest
	add := func(c planClass, n int) {
		for i := 0; i < n; i++ {
			s := stratifiedStride(rng, used, i, n)
			keys = append(keys, planKey(c, rng.Int63n(maxLower), s))
		}
	}
	for _, c := range lightClasses() {
		add(c, lightPerClass)
	}
	add(heavyClass, heavyPerRound)
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	return keys
}

// probeKeys returns one key of every layout: the requests a plan-cold
// set-up answers before the first round, so set-up time covers starting
// the service and compiling each layout once.
func probeKeys(seed int64) []serve.PlanRequest {
	rng := rand.New(rand.NewSource(^seed))
	used := map[int64]bool{}
	classes := append(lightClasses(), heavyClass)
	keys := make([]serve.PlanRequest, len(classes))
	for i, c := range classes {
		keys[i] = planKey(c, rng.Int63n(maxLower), stratifiedStride(rng, used, i, len(classes)))
	}
	return keys
}

// warmKeys returns the plan-warm key set, most popular first. The
// layout and the stride bin of each popularity rank are fixed (rank r
// takes light layout 10r mod 27 and stride bin r), so the
// popularity-weighted response size does not depend on the seed; the
// lower bounds and strides within their bins do.
func warmKeys(seed int64) []serve.PlanRequest {
	rng := rand.New(rand.NewSource(seed))
	used := map[int64]bool{}
	light := lightClasses()
	keys := make([]serve.PlanRequest, warmKeyCount)
	for r := range keys {
		s := stratifiedStride(rng, used, r, warmKeyCount)
		keys[r] = planKey(light[r*10%len(light)], rng.Int63n(maxLower), s)
	}
	return keys
}

// warmSchedule returns the key indexes of one plan-warm round of n
// requests over keys keys with zipf(warmZipf) popularity: key r is
// requested n·w_r/Σw times (rounded; rank 0 absorbs the rounding),
// w_r = (r+1)^-warmZipf, in seeded order.
func warmSchedule(seed int64, keys, n int) []int {
	weights := make([]float64, keys)
	var total float64
	for r := range weights {
		weights[r] = math.Pow(float64(r+1), -warmZipf)
		total += weights[r]
	}
	order := make([]int, 0, n)
	for r := keys - 1; r >= 0; r-- {
		c := int(math.Round(float64(n) * weights[r] / total))
		if r == 0 {
			c = n - len(order)
		}
		for i := 0; i < c; i++ {
			order = append(order, r)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return order
}
