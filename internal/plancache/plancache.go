// Package plancache memoizes the runtime's derived per-pattern metadata —
// AM-table sets and communication plans — so that repeated section
// operations pay the construction cost once.
//
// Section 6.1 of the paper observes that when the input parameters
// p, k, l and s are compile-time constants "the compiler could compute
// the table of memory gaps for each processor … the code that computes
// the basis vectors R and L would have to be executed only once." An
// iterative solver (Jacobi, CG) presents the runtime with exactly that
// situation dynamically: every sweep reuses the same (p, k, l, s)
// configurations and the same (source layout, destination layout,
// section) communication patterns. This package is the runtime analogue
// of the paper's compile-time hoisting: a concurrency-safe, sharded,
// bounded LRU keyed by those parameters.
//
// The cache is generic; each consumer (core table sets here, section
// plans in internal/hpf, communication plans in internal/comm) supplies
// its own key type and hash. Shards are independent mutex-protected LRU
// lists, so concurrent SPMD processors touching different patterns do
// not contend; concurrent misses on one key are coalesced onto a single
// build (GetOrCompute); hit, miss, eviction and coalesced-waiter
// counters make the amortization observable (examples, benchtables and
// the hpfd plan service report them).
package plancache

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/telemetry"
)

// numShards is the fixed shard count. Shard selection is hash-based, so
// a small power of two suffices to decorrelate concurrent access
// patterns without bloating tiny caches.
const numShards = 8

// Stats is a point-in-time snapshot of a cache's counters.
//
// Misses counts builds actually started: with GetOrCompute's request
// coalescing, a thundering herd of n concurrent misses on one cold key
// records exactly one miss (the build) and n−1 Coalesced waiters, so
// Misses equals the number of build invocations.
type Stats struct {
	Hits, Misses, Evictions int64
	Entries                 int64
	// Coalesced counts GetOrCompute callers that joined an in-flight
	// build of their key instead of running build themselves.
	Coalesced int64
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s Stats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache is a sharded, bounded, concurrency-safe LRU map. The zero value
// is not usable; construct with New.
type Cache[K comparable, V any] struct {
	hash   func(K) uint64
	shards [numShards]shard[K, V]
}

type node[K comparable, V any] struct {
	key        K
	val        V
	prev, next *node[K, V] // MRU list; head is most recent
}

type shard[K comparable, V any] struct {
	mu         sync.Mutex
	capacity   int
	entries    map[K]*node[K, V]
	head, tail *node[K, V]

	// inflight tracks keys whose build is currently running, so
	// GetOrCompute coalesces concurrent misses onto one build.
	inflight map[K]*flight[V]

	// Counters are atomics so Stats and Snapshot read them without the
	// shard mutex: no torn reads under the race detector, and snapshots
	// never contend with the lookup path.
	hits, misses, evictions atomic.Int64
	coalesced               atomic.Int64
	entryCount              atomic.Int64
}

// flight is one in-progress build. done is closed exactly once, after
// val/err/note are final; waiters block on it and then read the fields.
type flight[V any] struct {
	done chan struct{}
	val  V
	err  error
	// note is an opaque builder-published tag (hpfd publishes the build
	// span's ID so coalesced waiters can link their wait span to the
	// winning build's trace). Written only by the builder before done
	// closes; the channel close is the happens-before edge that makes it
	// safe for waiters to read.
	note uint64
}

// FlightOutcome reports how GetOrComputeFlight satisfied a lookup.
type FlightOutcome int

const (
	// FlightHit means the value was already cached.
	FlightHit FlightOutcome = iota
	// FlightBuilt means this caller ran the build.
	FlightBuilt
	// FlightCoalesced means this caller waited on another caller's
	// in-flight build of the same key.
	FlightCoalesced
)

// String names the outcome for logs and metrics.
func (o FlightOutcome) String() string {
	switch o {
	case FlightHit:
		return "hit"
	case FlightBuilt:
		return "built"
	case FlightCoalesced:
		return "coalesced"
	}
	return "unknown"
}

// New returns a cache holding at most capacity entries in total,
// uniformly split over the shards (at least one entry per shard). hash
// maps a key to a shard; it must be deterministic. Use Mix to build
// hashes from integer key fields.
func New[K comparable, V any](capacity int, hash func(K) uint64) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	perShard := (capacity + numShards - 1) / numShards
	c := &Cache[K, V]{hash: hash}
	for i := range c.shards {
		c.shards[i].capacity = perShard
		c.shards[i].entries = make(map[K]*node[K, V])
		c.shards[i].inflight = make(map[K]*flight[V])
	}
	return c
}

func (c *Cache[K, V]) shard(k K) *shard[K, V] {
	return &c.shards[c.hash(k)%numShards]
}

// GetOrCompute returns the cached value for k, computing and inserting
// it via build on a miss. Concurrent misses on the same key are
// coalesced: exactly one caller runs build (counted as the single miss)
// while the others wait on the in-flight result and are counted as
// Coalesced, so a thundering herd on a cold key performs one
// construction. A build error propagates to every coalesced waiter and
// is never cached — the next GetOrCompute after a failure retries the
// build. A panic in build is converted to an error for the waiters and
// re-raised in the building goroutine.
func (c *Cache[K, V]) GetOrCompute(k K, build func() (V, error)) (V, error) {
	v, _, _, err := c.getOrCompute(k, build, nil)
	return v, err
}

// GetOrComputeFlight is GetOrCompute with the coalescing made visible:
// it additionally reports whether this caller hit the cache, ran the
// build, or waited on another caller's build, and relays the builder's
// note. The builder may call note(tag) at most once before returning
// (hpfd publishes its build span's ID); the same tag is returned to the
// builder and to every coalesced waiter of that flight, and is 0 on a
// cache hit or when the builder never called note.
func (c *Cache[K, V]) GetOrComputeFlight(k K, build func(note func(uint64)) (V, error)) (V, FlightOutcome, uint64, error) {
	return c.getOrCompute(k, nil, build)
}

// getOrCompute implements both build-signature variants. Exactly one of
// plain and noted is non-nil; keeping the plain variant closure-free
// preserves the zero-allocation warm paths its callers rely on.
func (c *Cache[K, V]) getOrCompute(k K, plain func() (V, error), noted func(func(uint64)) (V, error)) (V, FlightOutcome, uint64, error) {
	s := c.shard(k)
	s.mu.Lock()
	if n, ok := s.entries[k]; ok {
		s.hits.Add(1)
		s.touch(n)
		v := n.val
		s.mu.Unlock()
		return v, FlightHit, 0, nil
	}
	if f, ok := s.inflight[k]; ok {
		s.coalesced.Add(1)
		s.mu.Unlock()
		<-f.done
		return f.val, FlightCoalesced, f.note, f.err
	}
	f := &flight[V]{done: make(chan struct{})}
	s.inflight[k] = f
	s.misses.Add(1)
	s.mu.Unlock()

	defer func() {
		r := recover()
		s.mu.Lock()
		// The shard may have been Reset while the build ran; delete by
		// identity so a successor flight for the same key survives.
		if s.inflight[k] == f {
			delete(s.inflight, k)
		}
		if r == nil && f.err == nil {
			s.put(k, f.val)
		}
		s.mu.Unlock()
		if r != nil {
			f.err = fmt.Errorf("plancache: build for key %v panicked: %v", k, r)
		}
		close(f.done)
		if r != nil {
			panic(r)
		}
	}()
	if plain != nil {
		f.val, f.err = plain()
	} else {
		f.val, f.err = noted(func(tag uint64) { f.note = tag })
	}
	return f.val, FlightBuilt, f.note, f.err
}

// Len returns the current number of cached entries.
func (c *Cache[K, V]) Len() int {
	n := 0
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		n += len(s.entries)
		s.mu.Unlock()
	}
	return n
}

// Stats sums the per-shard counters. Reads are atomic and lock-free;
// concurrent lookups may land between shard reads, so the totals are a
// consistent-enough point-in-time view, never torn values.
func (c *Cache[K, V]) Stats() Stats {
	var st Stats
	for i := range c.shards {
		s := &c.shards[i]
		st.Hits += s.hits.Load()
		st.Misses += s.misses.Load()
		st.Evictions += s.evictions.Load()
		st.Entries += s.entryCount.Load()
		st.Coalesced += s.coalesced.Load()
	}
	return st
}

// Snapshot returns the per-shard counters, indexed by shard. Like
// Stats, it reads atomically without taking any shard mutex.
func (c *Cache[K, V]) Snapshot() []Stats {
	out := make([]Stats, numShards)
	for i := range c.shards {
		s := &c.shards[i]
		out[i] = Stats{
			Hits:      s.hits.Load(),
			Misses:    s.misses.Load(),
			Evictions: s.evictions.Load(),
			Entries:   s.entryCount.Load(),
			Coalesced: s.coalesced.Load(),
		}
	}
	return out
}

// Register publishes the cache's aggregate counters as computed gauges
// in the process-wide telemetry registry under
// plancache.<name>.{hits,misses,evictions,entries}, so registry dumps
// (hpfsim -metrics, benchtables -json, the examples) carry every
// cache's hit rates without bespoke reporting code. A name already
// registered — by this cache or any other — is an error: two caches
// sharing a name would silently shadow each other's gauges.
func (c *Cache[K, V]) Register(name string) error {
	r := telemetry.Default()
	prefix := "plancache." + name + "."
	for suffix, f := range map[string]func() int64{
		"hits":      func() int64 { return c.Stats().Hits },
		"misses":    func() int64 { return c.Stats().Misses },
		"evictions": func() int64 { return c.Stats().Evictions },
		"entries":   func() int64 { return c.Stats().Entries },
		"coalesced": func() int64 { return c.Stats().Coalesced },
	} {
		if err := r.RegisterGaugeFunc(prefix+suffix, f); err != nil {
			return fmt.Errorf("plancache: register %q: %w", name, err)
		}
	}
	return nil
}

// Reset drops every entry and zeroes the counters.
func (c *Cache[K, V]) Reset() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		s.entries = make(map[K]*node[K, V])
		s.head, s.tail = nil, nil
		s.hits.Store(0)
		s.misses.Store(0)
		s.evictions.Store(0)
		s.coalesced.Store(0)
		s.entryCount.Store(0)
		s.mu.Unlock()
	}
}

// put assumes s.mu is held.
func (s *shard[K, V]) put(k K, v V) {
	if n, ok := s.entries[k]; ok {
		n.val = v
		s.touch(n)
		return
	}
	n := &node[K, V]{key: k, val: v}
	s.entries[k] = n
	s.pushFront(n)
	if len(s.entries) > s.capacity {
		lru := s.tail
		s.unlink(lru)
		delete(s.entries, lru.key)
		s.evictions.Add(1)
	}
	s.entryCount.Store(int64(len(s.entries)))
}

// touch moves n to the front of the MRU list. s.mu must be held.
func (s *shard[K, V]) touch(n *node[K, V]) {
	if s.head == n {
		return
	}
	s.unlink(n)
	s.pushFront(n)
}

func (s *shard[K, V]) pushFront(n *node[K, V]) {
	n.prev = nil
	n.next = s.head
	if s.head != nil {
		s.head.prev = n
	}
	s.head = n
	if s.tail == nil {
		s.tail = n
	}
}

func (s *shard[K, V]) unlink(n *node[K, V]) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		s.head = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		s.tail = n.prev
	}
	n.prev, n.next = nil, nil
}

// Mix folds one integer field into a running FNV-1a hash. Start from
// Seed and chain one Mix per key field:
//
//	h := plancache.Mix(plancache.Mix(plancache.Seed, key.P), key.K)
func Mix(h uint64, x int64) uint64 {
	ux := uint64(x)
	for i := 0; i < 8; i++ {
		h ^= ux & 0xff
		h *= 1099511628211
		ux >>= 8
	}
	return h
}

// Seed is the FNV-1a offset basis, the starting value for Mix chains.
const Seed uint64 = 14695981039346656037
