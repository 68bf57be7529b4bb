package gpusim

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
)

// Pool is a size-bucketed float32 buffer pool modelling the GPU memory pool
// of §4.2: the paper performs one large device allocation up front and then
// sub-allocates from the host to avoid device-wide synchronization on every
// cudaMalloc/zeMemAlloc. Here the pool additionally removes Go allocator /
// GC churn from the real-execution hot path and tracks a high-water mark so
// tests can assert on memory behaviour.
//
// A pool is a tree of one level: Shard(i) returns a child pool with its own
// lock and buckets, created on first use and kept for the pool's lifetime.
// The executor draws every fetch buffer and GEMM partial from its rank's
// shard, so PEs sharing one Pool never contend on a lock, and Reserve can
// carve a rank's worst-case demand up front — the paper's "one large
// allocation, then sub-allocate" — so which buffer returns first no longer
// decides whether the next Get allocates. Stats aggregates the pool and all
// of its shards.
type Pool struct {
	mu        sync.Mutex
	buckets   []bucket // indexed by bucketOf's index
	live      int      // elements currently handed out
	highWater int      // max live elements ever
	allocs    int64    // fresh allocations (pool misses and reservations)
	hits      int64    // reuses (pool hits)

	growMu sync.Mutex              // serializes shard creation
	shards atomic.Pointer[[]*Pool] // copy-on-grow; nil entries not yet created
}

// bucket is one size class: its free buffers and how many buffers of the
// class the pool has ever allocated (Reserve's supply count).
type bucket struct {
	free  [][]float32
	owned int
}

// NewPool returns an empty pool.
func NewPool() *Pool {
	return &Pool{}
}

// bucketOf rounds n up to its bucket size — the next power of two from 64
// up to 4096, then 1.5x steps, which limits fragmentation — and returns the
// size with its index in the bucket sequence.
func bucketOf(n int) (size, idx int) {
	size = 64
	for size < n {
		if size < 4096 {
			size *= 2
		} else {
			size += size / 2
		}
		idx++
	}
	return size, idx
}

// BucketSize returns the capacity Get(n) hands out — the size class n's
// requests share, 0 for n <= 0. Callers summing demand per class
// (Reserve) key by it.
func BucketSize(n int) int {
	if n <= 0 {
		return 0
	}
	size, _ := bucketOf(n)
	return size
}

// bucketLocked returns the bucket at idx, growing the table. p.mu held.
func (p *Pool) bucketLocked(idx int) *bucket {
	if idx >= len(p.buckets) {
		p.buckets = append(p.buckets, make([]bucket, idx+1-len(p.buckets))...)
	}
	return &p.buckets[idx]
}

// Get returns a zeroed buffer of at least n elements (len == n).
func (p *Pool) Get(n int) []float32 {
	buf, recycled := p.get(n)
	if recycled {
		clear(buf)
	}
	return buf
}

// GetUninit returns a buffer of at least n elements (len == n) without
// zeroing recycled contents. Use it for destinations that are fully
// overwritten before being read — tile-fetch targets in the execution hot
// path — where Get's clearing pass would be pure overhead.
func (p *Pool) GetUninit(n int) []float32 {
	buf, _ := p.get(n)
	return buf
}

// get pops a bucketed buffer, reporting whether it was recycled (and may
// therefore hold stale contents); fresh make() allocations are already
// zero.
func (p *Pool) get(n int) (buf []float32, recycled bool) {
	if n <= 0 {
		return nil, false
	}
	size, idx := bucketOf(n)
	p.mu.Lock()
	b := p.bucketLocked(idx)
	if k := len(b.free); k > 0 {
		buf = b.free[k-1]
		b.free[k-1] = nil
		b.free = b.free[:k-1]
		p.hits++
		recycled = true
	} else {
		b.owned++
		p.allocs++
	}
	p.live += size
	if p.live > p.highWater {
		p.highWater = p.live
	}
	p.mu.Unlock()
	if buf == nil {
		buf = make([]float32, size)
	}
	return buf[:n], recycled
}

// Put returns a buffer obtained from Get to the pool. Passing a foreign
// slice is allowed as long as its capacity matches a bucket size; otherwise
// it is dropped.
func (p *Pool) Put(buf []float32) {
	if buf == nil {
		return
	}
	size, idx := bucketOf(cap(buf))
	if size != cap(buf) {
		return // not one of ours; let the GC have it
	}
	p.mu.Lock()
	b := p.bucketLocked(idx)
	b.free = append(b.free, buf[:size])
	p.live -= size
	p.mu.Unlock()
}

// Reserve makes sure the pool has allocated at least count buffers of n's
// bucket, adding the shortfall to the free list. A caller that knows its
// worst-case concurrent demand per bucket reserves it once; from then on
// every Get within that demand is a hit, whatever order buffers come back
// in. Reservations count as allocations in Stats.
func (p *Pool) Reserve(n, count int) {
	if n <= 0 {
		return
	}
	size, idx := bucketOf(n)
	p.mu.Lock()
	defer p.mu.Unlock()
	b := p.bucketLocked(idx)
	for ; b.owned < count; b.owned++ {
		b.free = append(b.free, make([]float32, size))
		p.allocs++
	}
}

// Shard returns the pool's i'th shard (i >= 0), creating it on first use.
// Shards are independent pools — their own lock, buckets and counters —
// so goroutines on different shards never contend; Stats of the parent
// includes every shard. Lookups after the first are one atomic load.
func (p *Pool) Shard(i int) *Pool {
	if s := p.shards.Load(); s != nil && i < len(*s) && (*s)[i] != nil {
		return (*s)[i]
	}
	p.growMu.Lock()
	defer p.growMu.Unlock()
	var cur []*Pool
	if s := p.shards.Load(); s != nil {
		cur = *s
	}
	if i < len(cur) && cur[i] != nil {
		return cur[i]
	}
	next := make([]*Pool, max(len(cur), i+1))
	copy(next, cur)
	next[i] = NewPool()
	p.shards.Store(&next)
	return next[i]
}

// eachShard calls fn on every created shard.
func (p *Pool) eachShard(fn func(*Pool)) {
	if s := p.shards.Load(); s != nil {
		for _, sh := range *s {
			if sh != nil {
				fn(sh)
			}
		}
	}
}

// Stats reports pool behaviour.
type PoolStats struct {
	Live      int
	HighWater int
	Allocs    int64
	Hits      int64
}

// Stats returns a snapshot of the pool counters, summed over the pool and
// its shards. HighWater is the sum of each one's own peak: exact for a
// single unsharded pool, an upper bound on the concurrent peak otherwise.
func (p *Pool) Stats() PoolStats {
	p.mu.Lock()
	s := PoolStats{Live: p.live, HighWater: p.highWater, Allocs: p.allocs, Hits: p.hits}
	p.mu.Unlock()
	p.eachShard(func(sh *Pool) {
		ss := sh.Stats()
		s.Live += ss.Live
		s.HighWater += ss.HighWater
		s.Allocs += ss.Allocs
		s.Hits += ss.Hits
	})
	return s
}

func (s PoolStats) String() string {
	return fmt.Sprintf("pool{live %d, highwater %d, allocs %d, hits %d}", s.Live, s.HighWater, s.Allocs, s.Hits)
}

// BucketSizes returns the distinct bucket sizes currently cached in the
// pool or any shard, sorted. Exposed for tests.
func (p *Pool) BucketSizes() []int {
	seen := map[int]bool{}
	var collect func(*Pool)
	collect = func(q *Pool) {
		q.mu.Lock()
		for i := range q.buckets {
			if len(q.buckets[i].free) > 0 {
				size := cap(q.buckets[i].free[0])
				seen[size] = true
			}
		}
		q.mu.Unlock()
		q.eachShard(collect)
	}
	collect(p)
	out := make([]int, 0, len(seen))
	for s := range seen {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}
