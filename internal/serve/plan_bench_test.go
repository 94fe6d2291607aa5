package serve

import (
	"context"
	"math/rand"
	"testing"

	"repro/internal/plancache"
)

// benchmarkCompile compiles keys round-robin with the table cache
// dropped before every op, so each op pays what a cold hpfd miss pays:
// tables, per-rank plans and kernels, and the JSON encode. It reports
// the mean response body size next to time and allocations.
func benchmarkCompile(b *testing.B, keys []PlanRequest) {
	ctx := context.Background()
	for i := range keys {
		req, err := keys[i].normalize()
		if err != nil {
			b.Fatal(err)
		}
		keys[i] = req
	}
	var bytes int64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		plancache.ResetTables()
		cp, err := compile(ctx, keys[i%len(keys)])
		if err != nil {
			b.Fatal(err)
		}
		bytes += int64(len(cp.body))
	}
	b.ReportMetric(float64(bytes)/float64(b.N), "body_B/op")
}

// compileKeys draws n keys over an array of 2²² elements with lower
// bounds in [0, 64) and strides in [3, 8192), alternating odd strides
// (gcd(s, pk) = 1, one transition cycle) with strides of gcd 2, for the
// layouts in classes (cycled through in order).
func compileKeys(n int, classes [][2]int64) []PlanRequest {
	rng := rand.New(rand.NewSource(1))
	keys := make([]PlanRequest, n)
	for i := range keys {
		c := classes[i%len(classes)]
		s := 3 + rng.Int63n(8189)
		if i%2 == 0 {
			s |= 1
		} else {
			s = s&^3 | 2
		}
		keys[i] = PlanRequest{P: c[0], K: c[1], L: rng.Int63n(64), U: 1<<22 - 1, S: s, N: 1 << 22}
	}
	return keys
}

// BenchmarkCompileHeavy is the costliest cold compile hpfd is asked for
// under load: p = 64, k = 4096.
func BenchmarkCompileHeavy(b *testing.B) {
	benchmarkCompile(b, compileKeys(8, [][2]int64{{64, 4096}}))
}

// BenchmarkCompileLight mixes the other layouts with p in {8, ..., 64}
// and k in {64, ..., 4096}.
func BenchmarkCompileLight(b *testing.B) {
	var classes [][2]int64
	for p := int64(8); p <= 64; p *= 2 {
		for k := int64(64); k <= 4096; k *= 2 {
			if p != 64 || k != 4096 {
				classes = append(classes, [2]int64{p, k})
			}
		}
	}
	benchmarkCompile(b, compileKeys(2*len(classes), classes))
}
