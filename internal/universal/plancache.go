package universal

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"weak"

	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
)

// DefaultPlanCacheSize is the per-world compiled-plan LRU capacity used
// when a cache is created implicitly (PlansOf).
const DefaultPlanCacheSize = 32

// PlanCache is an LRU cache of CompiledPlans keyed by canonical PlanKey.
// It is safe for concurrent use by every PE of a world: a collective
// Multiply's P ranks race to GetOrCompile the same key, and the cache
// coalesces them onto one compilation (the remaining ranks block until the
// leader finishes, then share the immutable result). A cache hit allocates
// nothing — the key is a comparable struct, the LRU links are intrusive,
// and the counters are atomics — which is what keeps the serving hot path's
// allocation budget identical to executing a prebuilt plan.
//
// A capacity of zero (or negative) disables storage entirely: every lookup
// misses and compiled plans are dropped after use, but concurrent identical
// requests still coalesce onto one compilation in flight.
type PlanCache struct {
	mu       sync.Mutex
	capacity int
	entries  map[PlanKey]*planEntry
	// Intrusive LRU list: head is most recently used.
	head, tail *planEntry
	inflight   map[PlanKey]*planFlight

	hits      atomic.Int64
	misses    atomic.Int64
	evictions atomic.Int64
	builds    atomic.Int64
	coalesced atomic.Int64
}

type planEntry struct {
	key        PlanKey
	cp         *CompiledPlan
	prev, next *planEntry
}

type planFlight struct {
	done chan struct{}
	cp   *CompiledPlan
	// failure is the value CompilePlans panicked with, nil on success.
	failure any
}

// NewPlanCache returns an empty cache holding at most capacity compiled
// plans; capacity <= 0 disables storage (see type docs).
func NewPlanCache(capacity int) *PlanCache {
	if capacity < 0 {
		capacity = 0
	}
	return &PlanCache{
		capacity: capacity,
		entries:  make(map[PlanKey]*planEntry),
		inflight: make(map[PlanKey]*planFlight),
	}
}

// Capacity returns the maximum number of plans the cache retains.
func (c *PlanCache) Capacity() int { return c.capacity }

// Len returns the number of plans currently cached.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// unlink removes e from the LRU list. Caller holds mu.
func (c *PlanCache) unlink(e *planEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// pushFront makes e the most recently used entry. Caller holds mu.
func (c *PlanCache) pushFront(e *planEntry) {
	e.prev, e.next = nil, c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
}

// Get returns the cached plan for key, marking it most recently used.
// Allocation-free on both hit and miss.
func (c *PlanCache) Get(key PlanKey) (*CompiledPlan, bool) {
	c.mu.Lock()
	e, ok := c.entries[key]
	if !ok {
		c.mu.Unlock()
		c.misses.Add(1)
		return nil, false
	}
	if c.head != e {
		c.unlink(e)
		c.pushFront(e)
	}
	cp := e.cp
	c.mu.Unlock()
	c.hits.Add(1)
	return cp, true
}

// Put inserts (or refreshes) a compiled plan under its own key, evicting
// the least recently used entry when over capacity. Use it to seed a cache
// with a deserialized plan from a previous process.
func (c *PlanCache) Put(cp *CompiledPlan) {
	if c.capacity <= 0 {
		return
	}
	c.mu.Lock()
	if e, ok := c.entries[cp.Key]; ok {
		e.cp = cp
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		c.mu.Unlock()
		return
	}
	e := &planEntry{key: cp.Key, cp: cp}
	c.entries[cp.Key] = e
	c.pushFront(e)
	for len(c.entries) > c.capacity {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.evictions.Add(1)
	}
	c.mu.Unlock()
}

// GetOrCompile returns the compiled plan for (problem, config), compiling
// and caching it on a miss. Concurrent callers with the same key — the P
// ranks of one collective Multiply, or many serving requests with the same
// shapes — coalesce onto a single compilation. The hit path allocates
// nothing. If the compilation panics (an invalid problem, such as one
// excluding every rank), the leader and every coalesced waiter panic with
// the same value and the key is released, so the world fails together and
// a later call compiles afresh.
func (c *PlanCache) GetOrCompile(prob Problem, cfg Config) *CompiledPlan {
	key := PlanKeyOf(prob, cfg)
	if cp, ok := c.Get(key); ok {
		return cp
	}
	c.mu.Lock()
	// Re-check under the lock: another caller may have completed the build
	// between our miss and acquiring the lock.
	if e, ok := c.entries[key]; ok {
		if c.head != e {
			c.unlink(e)
			c.pushFront(e)
		}
		cp := e.cp
		c.mu.Unlock()
		c.hits.Add(1)
		return cp
	}
	fl, waiting := c.inflight[key]
	if !waiting {
		fl = &planFlight{done: make(chan struct{})}
		c.inflight[key] = fl
	}
	c.mu.Unlock()

	if waiting {
		c.coalesced.Add(1)
		<-fl.done
	} else {
		fl.cp, fl.failure = compileRecovering(prob, cfg)
		if fl.failure == nil {
			c.builds.Add(1)
			c.Put(fl.cp)
		}
		c.mu.Lock()
		delete(c.inflight, key)
		c.mu.Unlock()
		close(fl.done)
	}
	if fl.failure != nil {
		panic(fl.failure)
	}
	return fl.cp
}

// compileRecovering runs CompilePlans, returning a panic as a value so the
// flight can be settled before the panic reaches any caller.
func compileRecovering(prob Problem, cfg Config) (cp *CompiledPlan, failure any) {
	defer func() { failure = recover() }()
	return CompilePlans(prob, cfg), nil
}

// PlanCacheStats is a snapshot of cache behaviour. HitPct is the hit rate
// over all Get lookups (coalesced waiters count as neither hit nor miss of
// the storage layer; they are reported separately).
type PlanCacheStats struct {
	Hits, Misses, Evictions int64
	// Builds counts actual slicing-pass compilations; Coalesced counts
	// callers that waited on another caller's in-flight build instead of
	// compiling themselves.
	Builds, Coalesced int64
	Len, Capacity     int
}

// HitPct returns the hit percentage over all lookups, 0 when none occurred.
func (s PlanCacheStats) HitPct() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return 100 * float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() PlanCacheStats {
	return PlanCacheStats{
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Evictions: c.evictions.Load(),
		Builds:    c.builds.Load(),
		Coalesced: c.coalesced.Load(),
		Len:       c.Len(),
		Capacity:  c.capacity,
	}
}

// worlds maps each world's weak identity to the state this package keeps
// for it. Weak keys never keep a world (or the matrices it holds) alive:
// once a world is collected its cleanup drops the entry.
var worlds sync.Map // weak.Pointer[byte] -> *worldState

// worldState is the per-world state: the shared plan cache, the buffer
// pool of multiplies with a nil Config.Pool (poolOf), and each rank's
// resilient status segment (statusSegmentOf).
type worldState struct {
	plans  *PlanCache
	pool   *gpusim.Pool
	status []statusSegment // indexed by rank; each rank touches only its own
}

// stateOf returns w's state, creating it on first use. Worlds are compared
// by identity, so every consumer of one world sees one state.
// Allocation-free once the state exists.
func stateOf(w rt.World) *worldState {
	obj := worldObject(w)
	key := weak.Make(obj)
	if st, ok := worlds.Load(key); ok {
		return st.(*worldState)
	}
	st, loaded := worlds.LoadOrStore(key, &worldState{
		plans:  NewPlanCache(DefaultPlanCacheSize),
		pool:   gpusim.NewPool(),
		status: make([]statusSegment, w.NumPE()),
	})
	if !loaded {
		runtime.AddCleanup(obj, worlds.Delete, any(key))
	}
	return st.(*worldState)
}

// worldObject returns the heap object that identifies w: what a pointer
// world points to, or what the pointer inside a single-field wrapper struct
// (chaos's capability-forwarding worlds) points to. Other world types
// panic.
func worldObject(w rt.World) *byte {
	v := reflect.ValueOf(w)
	for v.Kind() == reflect.Struct && v.NumField() == 1 {
		v = v.Field(0)
	}
	if v.Kind() != reflect.Pointer || v.IsNil() {
		panic(fmt.Sprintf("universal: world %T has no pointer identity", w))
	}
	return (*byte)(v.UnsafePointer())
}

// PlansOf returns the plan cache attached to a world, creating it with
// DefaultPlanCacheSize on first use. It is the cache a multiply with a nil
// Config.Plans uses, so long-lived consumers (the serving loop, repeated
// benchmark harnesses) share compiled plans without threading a cache
// through every call site. The cache lives as long as the world.
func PlansOf(w rt.World) *PlanCache { return stateOf(w).plans }
