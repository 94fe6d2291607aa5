package plancache

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/telemetry"
)

func intHash(k int64) uint64 { return Mix(Seed, k) }

// oneShard funnels every key into a single shard so LRU order is
// observable deterministically.
func oneShard(capacity int) *Cache[int64, int64] {
	return New[int64, int64](capacity, func(int64) uint64 { return 0 })
}

var errAbsent = errors.New("absent")

// get looks k up through GetOrCompute with a build that fails, so a
// miss caches nothing: ok reports a hit (or a coalesced successful
// build), and a miss counts exactly as a lookup miss would.
func get(c *Cache[int64, int64], k int64) (int64, bool) {
	v, err := c.GetOrCompute(k, func() (int64, error) { return 0, errAbsent })
	return v, err == nil
}

// put inserts k → v through GetOrCompute: a miss whose build returns v.
// An already-cached k is a hit and keeps its value.
func put(c *Cache[int64, int64], k, v int64) {
	c.GetOrCompute(k, func() (int64, error) { return v, nil })
}

func TestGetPut(t *testing.T) {
	c := New[int64, int64](64, intHash)
	if _, ok := get(c, 1); ok {
		t.Fatal("hit on empty cache")
	}
	put(c, 1, 100)
	if v, ok := get(c, 1); !ok || v != 100 {
		t.Fatalf("get(1) = %d, %v", v, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Entries != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	// Capacity rounds up to ceil(3/8) = 1 per shard; with one shard the
	// whole cache holds one entry... use capacity 3*numShards to get
	// exactly 3 in the single shard.
	c := oneShard(3 * numShards)
	put(c, 1, 1)
	put(c, 2, 2)
	put(c, 3, 3)
	get(c, 1) // 1 becomes MRU; LRU order now 2, 3, 1
	put(c, 4, 4)
	if _, ok := get(c, 2); ok {
		t.Fatal("2 should have been evicted (was LRU)")
	}
	for _, k := range []int64{1, 3, 4} {
		if _, ok := get(c, k); !ok {
			t.Fatalf("%d missing after eviction of 2", k)
		}
	}
	if st := c.Stats(); st.Evictions != 1 {
		t.Fatalf("evictions = %d, want 1", st.Evictions)
	}
}

func TestCapacityBound(t *testing.T) {
	const capacity = 16
	c := New[int64, int64](capacity, intHash)
	for i := int64(0); i < 1000; i++ {
		put(c, i, i)
	}
	if n := c.Len(); n > capacity {
		t.Fatalf("cache holds %d entries, capacity %d", n, capacity)
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite 1000 inserts into capacity 16")
	}
}

// TestGetOrComputeHerd is the thundering-herd regression test: 64
// goroutines miss one cold key simultaneously, and the build must run
// exactly once — the other 63 coalesce onto the in-flight build. The
// stats must agree: one miss, 63 coalesced waiters, zero or more hits
// (a goroutine arriving after the build completes scores a hit).
func TestGetOrComputeHerd(t *testing.T) {
	c := New[int64, int64](64, intHash)
	const herd = 64
	var builds atomic.Int64
	// The build blocks until all herd-1 waiters have coalesced onto it
	// (Coalesced reads atomics, so polling from inside build is safe),
	// making the assertion below deterministic rather than timing-based.
	build := func() (int64, error) {
		builds.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Coalesced < herd-1 {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("waiters never coalesced: %+v", c.Stats())
			}
			runtime.Gosched()
		}
		return 42, nil
	}
	var wg sync.WaitGroup
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, err := c.GetOrCompute(9, build)
			if err != nil || v != 42 {
				t.Errorf("GetOrCompute = %d, %v", v, err)
			}
		}()
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times under a %d-goroutine herd, want exactly 1", n, herd)
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Errorf("misses = %d, want exactly 1 per build", st.Misses)
	}
	if st.Coalesced != herd-1 || st.Hits != 0 {
		t.Errorf("stats = %+v, want %d coalesced waiters and 0 hits", st, herd-1)
	}
}

// TestGetOrComputeErrorPropagates: a failed build reaches every
// coalesced waiter, nothing is cached, and a later call retries.
func TestGetOrComputeErrorPropagates(t *testing.T) {
	c := New[int64, int64](64, intHash)
	const herd = 16
	wantErr := fmt.Errorf("boom")
	var builds atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, herd)
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.GetOrCompute(3, func() (int64, error) {
				builds.Add(1)
				deadline := time.Now().Add(10 * time.Second)
				for c.Stats().Coalesced < herd-1 {
					if time.Now().After(deadline) {
						return 0, fmt.Errorf("waiters never coalesced: %+v", c.Stats())
					}
					runtime.Gosched()
				}
				return 0, wantErr
			})
		}(i)
	}
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, err := range errs {
		if err != wantErr {
			t.Errorf("goroutine %d got err %v, want %v", i, err, wantErr)
		}
	}
	if _, ok := get(c, 3); ok {
		t.Fatal("failed build was cached")
	}
	// The failure is not sticky: the next call retries the build.
	v, err := c.GetOrCompute(3, func() (int64, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry after failure = %d, %v", v, err)
	}
}

// TestGetOrComputePanicPropagates: a panicking build re-raises in the
// building goroutine and surfaces as an error (not a hang, not a zero
// value with nil error) for every coalesced waiter.
func TestGetOrComputePanicPropagates(t *testing.T) {
	c := New[int64, int64](64, intHash)
	// entered closes once the panicking build is running, so the waiter
	// below can only ever coalesce onto it (never become the builder).
	entered := make(chan struct{})
	waited := make(chan error, 1)
	go func() {
		<-entered
		_, err := c.GetOrCompute(5, func() (int64, error) { return 11, nil })
		waited <- err
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("panic did not propagate to the building caller")
			}
		}()
		c.GetOrCompute(5, func() (int64, error) {
			close(entered)
			deadline := time.Now().Add(10 * time.Second)
			for c.Stats().Coalesced < 1 { // hold the flight until the waiter joins
				if time.Now().After(deadline) {
					t.Error("waiter never coalesced")
					break
				}
				runtime.Gosched()
			}
			panic("kaboom")
		})
	}()
	select {
	case err := <-waited:
		if err == nil || !strings.Contains(err.Error(), "panicked") {
			t.Errorf("coalesced waiter error = %v, want one mentioning the panic", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("coalesced waiter hung after the build panicked")
	}
	if _, ok := get(c, 5); ok {
		t.Fatal("panicked build was cached")
	}
}

func TestGetOrCompute(t *testing.T) {
	c := New[int64, int64](64, intHash)
	calls := 0
	build := func() (int64, error) { calls++; return 7, nil }
	for i := 0; i < 3; i++ {
		v, err := c.GetOrCompute(5, build)
		if err != nil || v != 7 {
			t.Fatalf("GetOrCompute = %d, %v", v, err)
		}
	}
	if calls != 1 {
		t.Fatalf("build ran %d times, want 1", calls)
	}
	// Errors are not cached.
	wantErr := fmt.Errorf("boom")
	if _, err := c.GetOrCompute(6, func() (int64, error) { return 0, wantErr }); err != wantErr {
		t.Fatalf("err = %v", err)
	}
	if _, ok := get(c, 6); ok {
		t.Fatal("failed build was cached")
	}
}

func TestReset(t *testing.T) {
	c := New[int64, int64](64, intHash)
	put(c, 1, 1)
	get(c, 1)
	c.Reset()
	if c.Len() != 0 {
		t.Fatal("entries survive Reset")
	}
	if st := c.Stats(); st.Hits != 0 || st.Misses != 0 {
		t.Fatalf("counters survive Reset: %+v", st)
	}
	if _, ok := get(c, 1); ok {
		t.Fatal("value survives Reset")
	}
}

// TestSnapshotPerShard checks that Snapshot exposes one Stats entry per
// shard and that the per-shard values sum to the aggregate Stats.
func TestSnapshotPerShard(t *testing.T) {
	c := New[int64, int64](64, intHash)
	for k := int64(0); k < 32; k++ {
		put(c, k, k)
	}
	for k := int64(0); k < 32; k++ {
		get(c, k)    // hit
		get(c, k+64) // miss
	}
	shards := c.Snapshot()
	if len(shards) != numShards {
		t.Fatalf("Snapshot() has %d entries, want %d", len(shards), numShards)
	}
	var sum Stats
	for _, s := range shards {
		sum.Hits += s.Hits
		sum.Misses += s.Misses
		sum.Evictions += s.Evictions
		sum.Entries += s.Entries
		sum.Coalesced += s.Coalesced
	}
	if got := c.Stats(); sum != got {
		t.Errorf("per-shard sum %+v != aggregate %+v", sum, got)
	}
	if sum.Hits != 32 || sum.Misses != 64 || sum.Entries != 32 {
		t.Errorf("totals = %+v, want 32 hits / 64 misses / 32 entries", sum)
	}
}

// TestSnapshotConcurrent reads Snapshot while writers hammer the cache
// with coalescing GetOrCompute hits, misses and evictions (every build
// succeeds, so no writer coalesces onto a failing lookup). Under -race
// this proves the counters are read atomically, and the concurrent
// assertions pin the invariants that must hold even mid-herd: counters
// never go negative, and no shard ever reports more entries than its
// capacity. At quiescence the aggregate Entries must equal Len()
// exactly — the herd no longer inflates the miss/entry accounting.
func TestSnapshotConcurrent(t *testing.T) {
	const capacity = 16
	c := New[int64, int64](capacity, intHash)
	perShard := (capacity + numShards - 1) / numShards
	done := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := r.Int63n(64)
				put(c, k, k)
				k2 := r.Int63n(64)
				if v, err := c.GetOrCompute(k2, func() (int64, error) { return k2, nil }); err != nil || v != k2 {
					t.Errorf("GetOrCompute(%d) = %d, %v", k2, v, err)
					return
				}
			}
		}(int64(w))
	}
	go func() {
		for {
			select {
			case <-done:
				return
			default:
				for i, s := range c.Snapshot() {
					if s.Hits < 0 || s.Misses < 0 || s.Entries < 0 || s.Coalesced < 0 {
						t.Error("negative counter in snapshot")
						return
					}
					if s.Entries > int64(perShard) {
						t.Errorf("shard %d reports %d entries, capacity %d", i, s.Entries, perShard)
						return
					}
				}
			}
		}
	}()
	wg.Wait()
	close(done)
	if st := c.Stats(); st.Entries != int64(c.Len()) {
		t.Errorf("quiescent Entries %d != Len %d", st.Entries, c.Len())
	}
}

// TestConcurrentTinyCapacity hammers a tiny cache from many goroutines
// so hits, coalesced misses and evictions interleave; run with -race.
// Values must always equal their key (no cross-key corruption).
func TestConcurrentTinyCapacity(t *testing.T) {
	c := New[int64, int64](2, intHash) // 1 entry per shard: constant eviction
	const workers = 8
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 5000; i++ {
				k := r.Int63n(32)
				v, err := c.GetOrCompute(k, func() (int64, error) { return k * 10, nil })
				if err != nil || v != k*10 {
					t.Errorf("GetOrCompute(%d) = %d, %v", k, v, err)
					return
				}
			}
		}(int64(w))
	}
	wg.Wait()
	st := c.Stats()
	if st.Evictions == 0 {
		t.Error("expected evictions under tiny capacity")
	}
	if st.Entries > 2*numShards {
		t.Errorf("entries %d exceed bound", st.Entries)
	}
}

func TestMixSpreads(t *testing.T) {
	seen := make(map[uint64]bool)
	for i := int64(0); i < 64; i++ {
		seen[Mix(Seed, i)%numShards] = true
	}
	if len(seen) < 2 {
		t.Fatal("Mix maps all small keys to one shard")
	}
}

// TestRegisterDuplicateName is the regression test for the silent
// gauge-shadowing bug: two caches registering the same telemetry name
// used to overwrite each other's computed gauges without complaint.
func TestRegisterDuplicateName(t *testing.T) {
	a := New[int64, int64](8, func(k int64) uint64 { return Mix(Seed, k) })
	b := New[int64, int64](8, func(k int64) uint64 { return Mix(Seed, k) })
	if err := a.Register("dup.test"); err != nil {
		t.Fatal(err)
	}
	defer func() {
		for _, suffix := range []string{"hits", "misses", "evictions", "entries", "coalesced"} {
			telemetry.Default().UnregisterGaugeFunc("plancache.dup.test." + suffix)
		}
	}()
	if err := b.Register("dup.test"); err == nil {
		t.Fatal("second Register of the same name should fail")
	}
	// The first cache's gauges must still be the ones published.
	put(a, 1, 1)
	get(a, 1)
	if got := telemetry.Default().Snapshot().Gauges["plancache.dup.test.hits"]; got != 1 {
		t.Errorf("published hits = %d, want 1 (cache a's counter)", got)
	}
}

// TestGetOrComputeFlight covers the three outcomes and the note relay:
// the builder's note must reach every coalesced waiter of that flight,
// a hit carries no note, and the outcomes count into the same stats as
// GetOrCompute.
func TestGetOrComputeFlight(t *testing.T) {
	c := New[int64, int64](64, intHash)
	const herd = 16
	const tag = uint64(0xabcdef0123456789)

	build := func(note func(uint64)) (int64, error) {
		note(tag)
		deadline := time.Now().Add(10 * time.Second)
		for c.Stats().Coalesced < herd-1 {
			if time.Now().After(deadline) {
				return 0, fmt.Errorf("waiters never coalesced: %+v", c.Stats())
			}
			runtime.Gosched()
		}
		return 7, nil
	}
	var wg sync.WaitGroup
	var built, coalesced atomic.Int64
	for i := 0; i < herd; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, outcome, note, err := c.GetOrComputeFlight(3, build)
			if err != nil || v != 7 {
				t.Errorf("GetOrComputeFlight = %d, %v", v, err)
			}
			if note != tag {
				t.Errorf("outcome %v got note %x, want %x", outcome, note, tag)
			}
			switch outcome {
			case FlightBuilt:
				built.Add(1)
			case FlightCoalesced:
				coalesced.Add(1)
			default:
				t.Errorf("unexpected outcome %v on a cold key", outcome)
			}
		}()
	}
	wg.Wait()
	if built.Load() != 1 || coalesced.Load() != herd-1 {
		t.Fatalf("built = %d, coalesced = %d; want 1 and %d", built.Load(), coalesced.Load(), herd-1)
	}

	// Warm lookup: a hit, no note, build not invoked.
	v, outcome, note, err := c.GetOrComputeFlight(3, func(func(uint64)) (int64, error) {
		t.Error("build ran on a warm key")
		return 0, nil
	})
	if err != nil || v != 7 || outcome != FlightHit || note != 0 {
		t.Fatalf("warm GetOrComputeFlight = %d, %v, %x, %v", v, outcome, note, err)
	}
	st := c.Stats()
	if st.Misses != 1 || st.Coalesced != herd-1 || st.Hits != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

// TestGetOrComputeFlightNoNote: a builder that never publishes a note
// yields 0 to itself and its waiters.
func TestGetOrComputeFlightNoNote(t *testing.T) {
	c := New[int64, int64](8, intHash)
	v, outcome, note, err := c.GetOrComputeFlight(1, func(func(uint64)) (int64, error) {
		return 5, nil
	})
	if err != nil || v != 5 || outcome != FlightBuilt || note != 0 {
		t.Fatalf("GetOrComputeFlight = %d, %v, %x, %v", v, outcome, note, err)
	}
}

func TestFlightOutcomeString(t *testing.T) {
	for o, want := range map[FlightOutcome]string{
		FlightHit: "hit", FlightBuilt: "built", FlightCoalesced: "coalesced",
		FlightOutcome(99): "unknown",
	} {
		if got := o.String(); got != want {
			t.Errorf("FlightOutcome(%d).String() = %q, want %q", int(o), got, want)
		}
	}
}
