package bench

import "testing"

// TestCacheBenchmarksSteadyState runs the families with a tiny iteration
// count and checks the acceptance criterion directly: warm-cache
// iterations perform zero plan or table constructions.
func TestCacheBenchmarksSteadyState(t *testing.T) {
	results, err := CacheBenchmarks(4, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d families, want 3", len(results))
	}
	for _, r := range results {
		if r.SteadyMisses != 0 {
			t.Errorf("%s: %d cache misses in steady state, want 0", r.Name, r.SteadyMisses)
		}
		if r.HitRate <= 0 {
			t.Errorf("%s: hit rate %f, want > 0", r.Name, r.HitRate)
		}
		if r.Uncached.Median <= 0 || r.Cached.Median <= 0 {
			t.Errorf("%s: non-positive timing", r.Name)
		}
	}
	if FormatCacheBench(results) == "" {
		t.Error("empty rendering")
	}
}
