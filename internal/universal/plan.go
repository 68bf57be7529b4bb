package universal

import (
	"sort"
	"sync/atomic"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/index"
)

// planBuilds counts executed slicing passes (BuildPlanMode calls), the
// observable for pass-count tests proving a plan-cache hit re-runs zero
// slicing work.
var planBuilds atomic.Int64

// PlanBuildCount returns the number of slicing passes run so far in this
// process. Diagnostic/test hook: the delta across a cached Multiply must be
// zero on a plan-cache hit.
func PlanBuildCount() int64 { return planBuilds.Load() }

// Step is one scheduled local operation in an execution plan: the op plus
// the communication it requires, with tile-cache hits already resolved so
// the real executor and the simulated-time executor make identical
// fetch decisions.
type Step struct {
	Op LocalOp
	// FetchA / FetchB indicate the tile must be copied over the network
	// (it is neither local to the rank nor present in the tile cache).
	FetchA, FetchB bool
	// ALocal / BLocal / CLocal indicate the tile lives in this rank's own
	// replica slot (zero-copy access).
	ALocal, BLocal, CLocal bool
	// ASrc, BSrc, CDst are the resolved owner ranks within the executing
	// rank's local replicas.
	ASrc, BSrc, CDst int
	// ABytes / BBytes are the transfer sizes when fetched: whole tiles in
	// the default mode, exact op slices in sub-tile mode.
	ABytes, BBytes int
	// AccumBytes is the size of the C update the op produces (M×N floats).
	AccumBytes int
	// SubTile marks the bandwidth-optimal fetch mode: only the op's (M,K)
	// and (K,N) slices move, at the cost of losing cross-op tile reuse.
	SubTile bool
}

// Plan is the per-rank execution plan for one distributed multiply.
type Plan struct {
	Rank       int
	Stationary Stationary
	Steps      []Step
}

// TotalFlops sums the floating-point work of all steps.
func (pl Plan) TotalFlops() float64 {
	var f float64
	for _, s := range pl.Steps {
		f += s.Op.Flops()
	}
	return f
}

// RemoteFetchBytes sums the bytes of remote get traffic the plan issues.
func (pl Plan) RemoteFetchBytes() int {
	var b int
	for _, s := range pl.Steps {
		if s.FetchA {
			b += s.ABytes
		}
		if s.FetchB {
			b += s.BBytes
		}
	}
	return b
}

// RemoteAccumBytes sums the bytes of remote accumulate traffic.
func (pl Plan) RemoteAccumBytes() int {
	var b int
	for _, s := range pl.Steps {
		if !s.CLocal {
			b += s.AccumBytes
		}
	}
	return b
}

// DefaultCacheTiles is how many recently fetched tiles a process keeps
// for reuse across consecutive ops, bounding the memory-pool footprint the
// same way the paper's configurable concurrency limits do.
const DefaultCacheTiles = 8

type cacheKey struct {
	mat byte // 'A' or 'B'
	idx index.TileIdx
}

// tileLRU tracks which fetched tiles are still resident. Both the plan
// builder (for fetch decisions) and the real executor (for the actual tile
// buffers) use it, so their behaviour matches by construction.
type tileLRU struct {
	cap  int
	keys []cacheKey
}

func newTileLRU(capacity int) *tileLRU {
	if capacity <= 0 {
		capacity = DefaultCacheTiles
	}
	return &tileLRU{cap: capacity}
}

// touch marks key as most recently used. It returns whether the key was
// already resident and, when an insertion overflows capacity, the evicted
// key.
func (l *tileLRU) touch(k cacheKey) (hit bool, evicted cacheKey, didEvict bool) {
	for i, existing := range l.keys {
		if existing == k {
			copy(l.keys[i:], l.keys[i+1:])
			l.keys[len(l.keys)-1] = k
			return true, cacheKey{}, false
		}
	}
	l.keys = append(l.keys, k)
	if len(l.keys) > l.cap {
		evicted = l.keys[0]
		l.keys = append(l.keys[:0], l.keys[1:]...)
		return false, evicted, true
	}
	return false, cacheKey{}, false
}

// fetchRef names one fetch in a plan: the step that issued it and the
// operand matrix it was issued for.
type fetchRef struct {
	step int
	mat  byte // 'A' or 'B'
}

// fetchEvict records that a fetch's cache residency ends once step atStep
// has been dispatched; atStep == len(steps) marks fetches still resident at
// the end of the plan.
type fetchEvict struct {
	atStep int
	ref    fetchRef
}

// fetchSchedule is the executor's precomputed view of the plan-time tile
// LRU: where each step's non-local full-tile operand comes from, and when
// each fetched buffer's cache residency ends. Replaying the same LRU the
// plan builder used makes the executor's buffer lifetimes mirror the plan's
// fetch decisions by construction — a tile buffer is recycled exactly when
// the plan would have re-fetched it — so steady-state execution holds at
// most CacheTiles tile buffers per operand instead of retaining every fetch
// for the whole plan.
type fetchSchedule struct {
	// srcA[i] / srcB[i] give the step whose fetch serves step i's operand
	// (srcX[i] == i when the step fetches it itself); -1 marks operands
	// with no backing fetch: local tiles, sub-tile steps, and — if the
	// plan was built with a different cache capacity than the executor's —
	// hits the replay cannot resolve, which fall back to a synchronous get.
	srcA, srcB []int
	// evictions lists every fetch's residency end in non-decreasing atStep
	// order (each fetch appears exactly once), so the executor retires
	// buffers by walking a cursor instead of per-step slices.
	evictions []fetchEvict
	// demand is the plan's pool footprint per buffer bucket, the input to
	// the executor's per-call reservation (executor.reserve).
	demand []bucketDemand
}

// bucketDemand is one pool bucket's share of a plan's buffer footprint.
// Fetch buffers live from their step's dispatch window to the end of
// their plan-time residency; the executor adds the runtime-dependent
// slack (prefetched steps, chains still reading evicted tiles) on top of
// resident and caps the sum at fetches.
type bucketDemand struct {
	size     int // gpusim.BucketSize of the buffers
	resident int // peak fetch buffers whose residency spans one step
	fetches  int // fetch buffers the plan issues in total
	partials int // steps whose GEMM partial is this size
}

// addDemand adds d to the entry for d.size, appending one if absent.
func addDemand(ds []bucketDemand, d bucketDemand) []bucketDemand {
	for i := range ds {
		if ds[i].size == d.size {
			ds[i].resident += d.resident
			ds[i].fetches += d.fetches
			ds[i].partials += d.partials
			return ds
		}
	}
	return append(ds, d)
}

// demandTally accumulates a plan's bucketDemand during the schedule's LRU
// replay (the GHEtool idiom: precompute so the per-call reservation is a
// short walk). A full-tile fetch is resident from its own step to its
// eviction step, a sub-tile fetch for its own step only; every fetch of a
// step is counted before the evictions that step triggers, so the running
// maximum is the peak.
type demandTally struct {
	ds   []bucketDemand
	live []int // fetch buffers of ds[i].size resident at this step
	// seen maps each buffer byte count met so far to its ds index, so the
	// handful of distinct shapes in a plan are bucketed once each.
	seen []struct{ bytes, idx int }
}

// at returns the index of the entry for bytes-sized buffers, adding one.
func (t *demandTally) at(bytes int) int {
	for _, s := range t.seen {
		if s.bytes == bytes {
			return s.idx
		}
	}
	size := gpusim.BucketSize(bytes / 4)
	i := 0
	for i < len(t.ds) && t.ds[i].size != size {
		i++
	}
	if i == len(t.ds) {
		t.ds = append(t.ds, bucketDemand{size: size})
		t.live = append(t.live, 0)
	}
	t.seen = append(t.seen, struct{ bytes, idx int }{bytes, i})
	return i
}

func (t *demandTally) fetch(bytes int) {
	i := t.at(bytes)
	t.ds[i].fetches++
	t.live[i]++
	t.ds[i].resident = max(t.ds[i].resident, t.live[i])
}

func (t *demandTally) release(bytes int) { t.live[t.at(bytes)]-- }

func (t *demandTally) partial(bytes int) { t.ds[t.at(bytes)].partials++ }

// planFetchSchedule replays the tile LRU over a plan's steps. cacheTiles
// must match the capacity the plan was built with for the replay to mirror
// its fetch decisions exactly.
func planFetchSchedule(pl Plan, cacheTiles int) fetchSchedule {
	n := len(pl.Steps)
	sched := fetchSchedule{
		srcA: make([]int, n),
		srcB: make([]int, n),
	}
	cache := newTileLRU(cacheTiles)
	lastFetch := map[cacheKey]fetchRef{}
	resolve := func(i int, src *int, fetched, local bool, key cacheKey) {
		*src = -1
		if local {
			return
		}
		if fetched {
			// A re-fetch while the replay still holds the key only happens
			// when the executor's cache capacity exceeds the plan's; end
			// the shadowed fetch's residency here so its buffer is not
			// leaked (every fetch must appear in evictions exactly once).
			if old, ok := lastFetch[key]; ok {
				sched.evictions = append(sched.evictions, fetchEvict{atStep: i, ref: old})
			}
			lastFetch[key] = fetchRef{step: i, mat: key.mat}
		}
		if ref, ok := lastFetch[key]; ok {
			*src = ref.step
		}
		if _, evicted, did := cache.touch(key); did {
			if ref, ok := lastFetch[evicted]; ok {
				sched.evictions = append(sched.evictions, fetchEvict{atStep: i, ref: ref})
				delete(lastFetch, evicted)
			}
		}
	}
	var tally demandTally
	for i, s := range pl.Steps {
		sched.srcA[i], sched.srcB[i] = -1, -1
		tally.partial(s.AccumBytes)
		if s.FetchA {
			tally.fetch(s.ABytes)
		}
		if s.FetchB {
			tally.fetch(s.BBytes)
		}
		if s.SubTile {
			if s.FetchA {
				tally.release(s.ABytes)
			}
			if s.FetchB {
				tally.release(s.BBytes)
			}
			continue
		}
		mark := len(sched.evictions)
		resolve(i, &sched.srcA[i], s.FetchA, s.ALocal, cacheKey{'A', s.Op.AIdx})
		resolve(i, &sched.srcB[i], s.FetchB, s.BLocal, cacheKey{'B', s.Op.BIdx})
		for _, ev := range sched.evictions[mark:] {
			if ev.ref.mat == 'A' {
				tally.release(pl.Steps[ev.ref.step].ABytes)
			} else {
				tally.release(pl.Steps[ev.ref.step].BBytes)
			}
		}
	}
	sched.demand = tally.ds
	// Fetches still resident at plan end are retired together; emit them in
	// step order (not map order) so identical plans always produce
	// bit-identical schedules.
	tail := len(sched.evictions)
	for _, ref := range lastFetch {
		sched.evictions = append(sched.evictions, fetchEvict{atStep: n, ref: ref})
	}
	sort.Slice(sched.evictions[tail:], func(i, j int) bool {
		a, b := sched.evictions[tail+i].ref, sched.evictions[tail+j].ref
		if a.step != b.step {
			return a.step < b.step
		}
		return a.mat < b.mat
	})
	return sched
}

// BuildPlan resolves the ops rank must execute into a Step sequence:
// which tiles are local, which fetches hit the tile cache, where updates
// go, and how many bytes move.
func BuildPlan(rank int, p Problem, stat Stationary, cacheTiles int) Plan {
	return BuildPlanMode(rank, p, stat, cacheTiles, false)
}

// BuildPlanMode is BuildPlan with an explicit fetch-mode choice. With
// subTile true the plan fetches only each op's exact (M,K) and (K,N)
// slices — minimal bytes, no cross-op reuse; with subTile false it fetches
// whole tiles through the LRU cache — more bytes, amortized across the ops
// sharing a tile. The tradeoff is benchmarked in BenchmarkFetchModeAblation.
func BuildPlanMode(rank int, p Problem, stat Stationary, cacheTiles int, subTile bool) Plan {
	resolved := p.ResolveStationary(stat)
	return buildStepsFromOps(rank, p, resolved, GenerateOps(rank, p, resolved), cacheTiles, subTile)
}

// buildStepsFromOps lowers an explicit op list into a Step sequence with
// locality, fetch decisions, and byte counts resolved for the executing
// rank. BuildPlanMode feeds it the rank's own generated ops; the recovery
// path feeds it ops adopted from a failed rank (plan repair), where the
// adopting rank's own replica placement — not the dead rank's — must
// drive the source/destination resolution. stat must already be resolved.
func buildStepsFromOps(rank int, p Problem, resolved Stationary, ops []LocalOp, cacheTiles int, subTile bool) Plan {
	planBuilds.Add(1)
	cache := newTileLRU(cacheTiles)
	steps := make([]Step, 0, len(ops))
	for _, op := range ops {
		s := Step{Op: op, SubTile: subTile}
		s.ASrc = p.A.OwnerRank(op.AIdx, distmat.LocalReplica, rank)
		s.BSrc = p.B.OwnerRank(op.BIdx, distmat.LocalReplica, rank)
		s.CDst = p.C.OwnerRank(op.CIdx, distmat.LocalReplica, rank)
		s.ALocal = s.ASrc == rank
		s.BLocal = s.BSrc == rank
		s.CLocal = s.CDst == rank
		s.AccumBytes = op.M.Len() * op.N.Len() * 4
		if subTile {
			s.ABytes = op.M.Len() * op.K.Len() * 4
			s.BBytes = op.K.Len() * op.N.Len() * 4
			s.FetchA = !s.ALocal
			s.FetchB = !s.BLocal
		} else {
			s.ABytes = p.A.TileBounds(op.AIdx).Area() * 4
			s.BBytes = p.B.TileBounds(op.BIdx).Area() * 4
			if !s.ALocal {
				hit, _, _ := cache.touch(cacheKey{'A', op.AIdx})
				s.FetchA = !hit
			}
			if !s.BLocal {
				hit, _, _ := cache.touch(cacheKey{'B', op.BIdx})
				s.FetchB = !hit
			}
		}
		steps = append(steps, s)
	}
	return Plan{Rank: rank, Stationary: resolved, Steps: steps}
}
