package universal

import (
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

// tileLRU is the tile cache of §4.2's direct execution: the recently
// fetched tiles a rank keeps resident for reuse by later ops, A and B tiles
// sharing one capacity. resolveFetches is its only user, so whether a step
// fetches a tile and how long the fetched buffer stays alive are decided
// by one walk.
type tileLRU struct {
	cap     int
	entries []lruEntry // least recently used first
}

// lruEntry is one resident tile and the step whose fetch brought it in.
type lruEntry struct {
	key  cacheKey
	step int
}

func newTileLRU(capacity int) *tileLRU {
	if capacity <= 0 {
		capacity = DefaultCacheTiles
	}
	return &tileLRU{cap: capacity}
}

// touch marks key as most recently used by step and returns the step
// whose fetch serves it: an earlier step on a hit, step itself on a miss.
// When a miss overflows capacity, the least recently used entry is
// evicted and returned.
func (l *tileLRU) touch(k cacheKey, step int) (src int, evicted lruEntry, didEvict bool) {
	for i, e := range l.entries {
		if e.key == k {
			copy(l.entries[i:], l.entries[i+1:])
			l.entries[len(l.entries)-1] = e
			return e.step, lruEntry{}, false
		}
	}
	l.entries = append(l.entries, lruEntry{k, step})
	if len(l.entries) > l.cap {
		evicted = l.entries[0]
		l.entries = append(l.entries[:0], l.entries[1:]...)
		return step, evicted, true
	}
	return step, lruEntry{}, false
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

// fetchSchedule is the executor's view of the tile LRU, built by the same
// resolveFetches walk that set the steps' fetch flags: where each step's
// non-local full-tile operand comes from, and when each fetched buffer's
// cache residency ends. A tile buffer is recycled exactly when the LRU
// evicts it, so steady-state execution holds at most CacheTiles fetched
// tile buffers instead of retaining every fetch for the whole plan.
type fetchSchedule struct {
	// srcA[i] / srcB[i] give the step whose fetch serves step i's operand
	// (srcX[i] == i when the step fetches it itself); -1 marks local tiles
	// and sub-tile steps, whose operands have no shared fetch.
	srcA, srcB []int
	// evictions lists every full-tile fetch's residency end in
	// non-decreasing atStep order (each fetch appears exactly once), so the
	// executor retires buffers by walking a cursor instead of per-step
	// slices.
	evictions []fetchEvict
	// demand is the plan's pool footprint per buffer bucket, the input to
	// the executor's per-call reservation (executor.reserve).
	demand []bucketDemand
}

// bucketDemand is one pool bucket's share of a plan's buffer footprint.
// Fetch buffers live from their step's dispatch window to the end of
// their LRU residency; the executor adds the runtime-dependent
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

// demandTally accumulates a plan's bucketDemand during resolveFetches
// (the GHEtool idiom: precompute so the per-call reservation is a short
// walk). A full-tile fetch is resident from its own step to its
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

// resolveFetches is the one place the tile LRU runs. It walks one rank's
// steps in order and sets each step's FetchA/FetchB: a sub-tile step
// fetches every non-local operand, a full-tile step only the tiles the LRU
// does not hold. The same walk yields the executor's fetchSchedule. Each
// LRU entry remembers the step that fetched it, so a hit names its source
// and an eviction names the buffer to retire; the tiles still resident at
// the end are retired in LRU order. Locality, SubTile and byte counts
// must already be set.
func resolveFetches(steps []Step, cacheTiles int) fetchSchedule {
	n := len(steps)
	src := make([]int, 2*n)
	// A plan rarely fetches more full tiles than it has steps, so n
	// evictions usually fit without regrowth.
	sched := fetchSchedule{srcA: src[:n:n], srcB: src[n:], evictions: make([]fetchEvict, 0, n)}
	cache := newTileLRU(cacheTiles)
	// resolve runs one full-tile operand of step i through the LRU,
	// reporting whether step i fetches it.
	resolve := func(i int, src *int, local bool, k cacheKey) bool {
		if local {
			return false
		}
		from, ev, evicted := cache.touch(k, i)
		*src = from
		if evicted {
			sched.evictions = append(sched.evictions, fetchEvict{atStep: i, ref: fetchRef{ev.step, ev.key.mat}})
		}
		return from == i
	}
	// Plans use a handful of buffer sizes; sizing the tally for them up
	// front saves its regrowth.
	tally := demandTally{
		ds:   make([]bucketDemand, 0, 4),
		live: make([]int, 0, 4),
		seen: make([]struct{ bytes, idx int }, 0, 8),
	}
	for i := range steps {
		s := &steps[i]
		sched.srcA[i], sched.srcB[i] = -1, -1
		mark := len(sched.evictions)
		if s.SubTile {
			s.FetchA, s.FetchB = !s.ALocal, !s.BLocal
		} else {
			s.FetchA = resolve(i, &sched.srcA[i], s.ALocal, cacheKey{'A', s.Op.AIdx})
			s.FetchB = resolve(i, &sched.srcB[i], s.BLocal, cacheKey{'B', s.Op.BIdx})
		}
		tally.partial(s.AccumBytes)
		if s.FetchA {
			tally.fetch(s.ABytes)
		}
		if s.FetchB {
			tally.fetch(s.BBytes)
		}
		if s.SubTile {
			// Sub-tile fetches are single-use: resident for their own step.
			if s.FetchA {
				tally.release(s.ABytes)
			}
			if s.FetchB {
				tally.release(s.BBytes)
			}
		}
		for _, ev := range sched.evictions[mark:] {
			if ev.ref.mat == 'A' {
				tally.release(steps[ev.ref.step].ABytes)
			} else {
				tally.release(steps[ev.ref.step].BBytes)
			}
		}
	}
	for _, e := range cache.entries {
		sched.evictions = append(sched.evictions, fetchEvict{atStep: n, ref: fetchRef{e.step, e.key.mat}})
	}
	sched.demand = tally.ds
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
	pl, _ := buildStepsFromOps(rank, p, resolved, GenerateOps(rank, p, resolved), cacheTiles, subTile)
	return pl
}

// buildStepsFromOps lowers an explicit op list into a Step sequence with
// locality, fetch decisions, and byte counts resolved for the executing
// rank, and returns the executor's fetch schedule from the same
// resolveFetches walk. BuildPlanMode feeds it the rank's own generated
// ops; the recovery path feeds it ops adopted from a failed rank (plan
// repair), where the adopting rank's own replica placement — not the dead
// rank's — must drive the source/destination resolution. stat must
// already be resolved.
func buildStepsFromOps(rank int, p Problem, resolved Stationary, ops []LocalOp, cacheTiles int, subTile bool) (Plan, fetchSchedule) {
	planBuilds.Add(1)
	steps := make([]Step, len(ops))
	for i, op := range ops {
		s := &steps[i]
		s.Op, s.SubTile = op, subTile
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
		} else {
			s.ABytes = p.A.TileBounds(op.AIdx).Area() * 4
			s.BBytes = p.B.TileBounds(op.BIdx).Area() * 4
		}
	}
	sched := resolveFetches(steps, cacheTiles)
	return Plan{Rank: rank, Stationary: resolved, Steps: steps}, sched
}
