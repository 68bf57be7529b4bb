package universal

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
)

// Fetch flags and the executor's fetch schedule come from one tile-LRU
// walk, so the schedule mirrors the plan exactly: every step's non-local
// full-tile operand resolves to a step that fetched that very tile and
// whose buffer is still held at the use, every fetch's residency is
// released exactly once and never before it was issued, and no step has
// more than CacheTiles fetched tile buffers resident (A and B share the
// one LRU). Checked over a fixed layout and random draws at several
// capacities, in both fetch modes.
func TestPlanFetchScheduleMirrorsPlan(t *testing.T) {
	w := shmem.NewWorld(4)
	type input struct {
		prob Problem
		stat Stationary
	}
	inputs := []input{{NewProblem(
		distmat.New(w, 96, 96, distmat.Block2D{}, 1),
		distmat.New(w, 96, 96, distmat.RowBlock{}, 1),
		distmat.New(w, 96, 96, distmat.ColBlock{}, 1)), StationaryC}}
	rng := rand.New(rand.NewSource(3))
	for len(inputs) < 41 {
		d := randomPlanDraw(rng)
		inputs = append(inputs, input{buildDraw(d), d.cfg.Stationary})
	}
	for n, in := range inputs {
		for _, cacheTiles := range []int{1, 2, DefaultCacheTiles} {
			for _, sub := range []bool{false, true} {
				cp := CompilePlans(in.prob, Config{Stationary: in.stat, CacheTiles: cacheTiles, SubTileFetch: sub})
				for rank, plan := range cp.Plans {
					if err := fetchScheduleErr(plan.Steps, &cp.scheds[rank], cacheTiles); err != nil {
						t.Fatalf("input %d, cache %d, sub-tile %v, rank %d: %v", n, cacheTiles, sub, rank, err)
					}
				}
			}
		}
	}
}

// fetchScheduleErr checks TestPlanFetchScheduleMirrorsPlan's invariants
// for one rank's steps and schedule.
func fetchScheduleErr(steps []Step, sched *fetchSchedule, cacheTiles int) error {
	n := len(steps)
	evictAt := map[fetchRef]int{}
	resident := make([]int, n+1) // difference array over [fetch step, eviction step)
	prev := 0
	for _, ev := range sched.evictions {
		if ev.atStep < prev {
			return fmt.Errorf("evictions out of order: step %d after %d", ev.atStep, prev)
		}
		prev = ev.atStep
		if _, dup := evictAt[ev.ref]; dup {
			return fmt.Errorf("fetch %+v released twice", ev.ref)
		}
		evictAt[ev.ref] = ev.atStep
		if ev.ref.step > ev.atStep {
			return fmt.Errorf("fetch %+v released at step %d before it was issued", ev.ref, ev.atStep)
		}
		resident[ev.ref.step]++
		resident[ev.atStep]--
	}
	live := 0
	for i := 0; i < n; i++ {
		if live += resident[i]; live > cacheTiles {
			return fmt.Errorf("step %d holds %d fetched tiles, capacity %d", i, live, cacheTiles)
		}
	}
	fetches := 0
	for i, s := range steps {
		for _, mat := range [...]byte{'A', 'B'} {
			idx, local, fetch := operandOf(s, mat)
			src := sched.srcA[i]
			if mat == 'B' {
				src = sched.srcB[i]
			}
			switch {
			case s.SubTile:
				if fetch == local || src != -1 {
					return fmt.Errorf("sub-tile step %d %c: local %v fetch %v source %d", i, mat, local, fetch, src)
				}
			case local:
				if fetch || src != -1 {
					return fmt.Errorf("step %d local %c: fetch %v source %d", i, mat, fetch, src)
				}
			default:
				if fetch {
					fetches++
					if src != i {
						return fmt.Errorf("step %d fetches %c but its source is step %d", i, mat, src)
					}
				} else if src < 0 || src >= i {
					return fmt.Errorf("step %d cache-hit %c resolves to step %d", i, mat, src)
				} else if srcIdx, _, srcFetch := operandOf(steps[src], mat); !srcFetch || srcIdx != idx {
					return fmt.Errorf("step %d cache-hit %c resolves to step %d, which did not fetch tile %v", i, mat, src, idx)
				}
				if at, ok := evictAt[fetchRef{src, mat}]; !ok || at < i {
					return fmt.Errorf("step %d reads %c fetched at step %d, released at %d (released: %v)", i, mat, src, at, ok)
				}
			}
		}
	}
	if len(evictAt) != fetches {
		return fmt.Errorf("%d full-tile fetches but %d releases", fetches, len(evictAt))
	}
	return nil
}

// operandOf returns step s's tile index, locality and fetch flag for
// operand mat ('A' or 'B').
func operandOf(s Step, mat byte) (idx index.TileIdx, local, fetch bool) {
	if mat == 'A' {
		return s.Op.AIdx, s.ALocal, s.FetchA
	}
	return s.Op.BIdx, s.BLocal, s.FetchB
}

// The executor's resident tile memory must be bounded by the LRU capacity,
// not by the number of fetches in the plan: on a many-tile problem, running
// with a tiny tile cache must peak well below running with a cache big
// enough that nothing is ever evicted (which is what the seed executor
// did for every cache size — it retained all fetched tiles until the end).
func TestExecutePoolBoundedByTileCache(t *testing.T) {
	const p, n = 4, 256
	run := func(cacheTiles int) int {
		w := shmem.NewWorld(p)
		part := distmat.Custom{TileRows: 32, TileCols: 32, ProcRows: 2, ProcCols: 2}
		a := distmat.New(w, n, n, part, 1)
		b := distmat.New(w, n, n, part, 1)
		c := distmat.New(w, n, n, distmat.Block2D{}, 1)
		pool := gpusim.NewPool()
		cfg := DefaultConfig()
		cfg.Stationary = StationaryC
		cfg.CacheTiles = cacheTiles
		cfg.Pool = pool
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 1)
			b.FillRandom(pe, 2)
			Multiply(pe, c, a, b, cfg)
		})
		return pool.Stats().HighWater
	}
	small := run(2)
	unbounded := run(1 << 20) // nothing ever evicted: the seed behaviour
	if small == 0 || unbounded == 0 {
		t.Fatal("pool was never used")
	}
	if small >= unbounded {
		t.Fatalf("high water with 2-tile cache (%d elems) not below unbounded cache (%d elems): eviction is not recycling buffers",
			small, unbounded)
	}
}

// Repeating a multiply over one shared pool must not grow the pool after
// the first pass: the steady state reuses recycled tile buffers and
// partials instead of allocating (the allocation-free hot path). The
// count must not depend on when crew workers return buffers, so it holds
// for every fetch mode, cache size and concurrency setting: each call
// reserves its worst case in the rank's shard before its first fetch.
func TestExecuteSteadyStateReusesPool(t *testing.T) {
	const p, n = 4, 192
	type setting struct {
		cacheTiles, prefetch, inflight int
		subTile                        bool
	}
	for _, st := range []setting{
		{DefaultCacheTiles, 2, 4, false},
		{1, 1, 1, false},
		{2, 3, 8, false},
		{DefaultCacheTiles, 2, 4, true},
		{1, 3, 2, true},
	} {
		w := shmem.NewWorld(p)
		part := distmat.Custom{TileRows: 48, TileCols: 32, ProcRows: 2, ProcCols: 2}
		a := distmat.New(w, n, n, distmat.RowBlock{}, 1)
		b := distmat.New(w, n, n, part, 1)
		c := distmat.New(w, n, n, distmat.Block2D{}, 1)
		pool := gpusim.NewPool()
		cfg := DefaultConfig()
		cfg.Pool = pool
		cfg.Stationary = StationaryC
		cfg.CacheTiles, cfg.PrefetchDepth, cfg.MaxInflight, cfg.SubTileFetch = st.cacheTiles, st.prefetch, st.inflight, st.subTile
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 1)
			b.FillRandom(pe, 2)
			Multiply(pe, c, a, b, cfg)
		})
		after1 := pool.Stats()
		for i := 0; i < 3; i++ {
			w.Run(func(pe rt.PE) {
				Multiply(pe, c, a, b, cfg)
			})
		}
		after2 := pool.Stats()
		if after2.Allocs != after1.Allocs {
			t.Fatalf("%+v: later multiplies allocated %d fresh pool buffers (want 0: all recycled)",
				st, after2.Allocs-after1.Allocs)
		}
		if after2.Live != 0 {
			t.Fatalf("%+v: %d pool elements still live after execution", st, after2.Live)
		}
	}
}

// gemmAccumulateChain — the per-step GEMM→accumulate chain — must be heap
// allocation free in the steady state: pooled partial buffer, stack view
// headers, chunked in-place accumulate.
func TestGemmAccumulateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const p, n = 2, 128
	w := shmem.NewWorld(p)
	a := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	b := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	c := distmat.New(w, n, n, distmat.RowBlock{}, 1)
	prob := NewProblem(c, a, b)
	pool := gpusim.NewPool()
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		pe.Barrier()
		if pe.Rank() != 0 {
			return
		}
		plan := BuildPlan(0, prob, StationaryC, DefaultCacheTiles)
		var op LocalOp
		found := false
		for _, s := range plan.Steps {
			if s.ALocal && s.BLocal {
				op, found = s.Op, true
				break
			}
		}
		if !found {
			t.Fatal("no fully local step in plan")
		}
		var aT, bT, aSlice, bSlice tile.Matrix
		prob.A.TileInto(pe, &aT, op.AIdx, distmat.LocalReplica)
		prob.B.TileInto(pe, &bT, op.BIdx, distmat.LocalReplica)
		ab := prob.A.TileBounds(op.AIdx)
		bb := prob.B.TileBounds(op.BIdx)
		aT.ViewInto(&aSlice, op.M.Begin-ab.Rows.Begin, op.K.Begin-ab.Cols.Begin, op.M.Len(), op.K.Len())
		bT.ViewInto(&bSlice, op.K.Begin-bb.Rows.Begin, op.N.Begin-bb.Cols.Begin, op.K.Len(), op.N.Len())
		gemmAccumulateChain(pe, prob, op, &aSlice, &bSlice, pool, 1, nil) // warm pools
		allocs := testing.AllocsPerRun(10, func() {
			gemmAccumulateChain(pe, prob, op, &aSlice, &bSlice, pool, 1, nil)
		})
		if allocs > 0 {
			t.Errorf("gemmAccumulateChain allocates %v objects per call in steady state, want 0", allocs)
		}
	})
}

// ExecutePlan run with a cache capacity different from the one the plan
// was built with (legal: both are exported) must stay correct and must not
// leak pooled buffers: it re-resolves the plan's fetch flags under the
// executor's capacity, so the flags it follows and its buffer lifetimes
// always come from one LRU walk.
func TestExecuteWithMismatchedCacheCapacity(t *testing.T) {
	const p, m, n, k = 4, 100, 90, 110
	for _, caps := range [][2]int{{1, 8}, {8, 1}, {2, 1 << 10}} {
		planCap, execCap := caps[0], caps[1]
		w := shmem.NewWorld(p)
		a := distmat.New(w, m, k, distmat.Custom{TileRows: 7, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
		b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
		c := distmat.New(w, m, n, distmat.Block2D{}, 1)
		prob := NewProblem(c, a, b)
		pool := gpusim.NewPool()
		cfg := DefaultConfig()
		cfg.CacheTiles = execCap
		cfg.Pool = pool
		var got, want *tile.Matrix
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 8)
			b.FillRandom(pe, 9)
			c.Zero(pe)
			plan := BuildPlan(pe.Rank(), prob, StationaryC, planCap)
			ExecutePlan(pe, prob, plan, cfg)
			pe.Barrier()
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
				want = tile.New(m, n)
				tile.GemmNaive(want, a.Gather(pe, 0), b.Gather(pe, 0))
			}
		})
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("plan cache %d / exec cache %d: mismatch %g", planCap, execCap, got.MaxAbsDiff(want))
		}
		if live := pool.Stats().Live; live != 0 {
			t.Fatalf("plan cache %d / exec cache %d: %d pool elements leaked", planCap, execCap, live)
		}
	}
}

// Multiplies driven through the slot-based executor must stay correct when
// evictions are frequent (CacheTiles=1) and in sub-tile mode, where every
// step's slices are single-use pooled buffers.
func TestExecuteCorrectUnderEvictionPressure(t *testing.T) {
	const p, m, n, k = 4, 100, 90, 110
	for _, sub := range []bool{false, true} {
		w := shmem.NewWorld(p)
		a := distmat.New(w, m, k, distmat.Custom{TileRows: 7, TileCols: 11, ProcRows: 2, ProcCols: 2}, 1)
		b := distmat.New(w, k, n, distmat.ColBlock{}, 1)
		c := distmat.New(w, m, n, distmat.Block2D{}, 1)
		cfg := DefaultConfig()
		cfg.CacheTiles = 1
		cfg.SubTileFetch = sub
		cfg.Stationary = StationaryC
		var got, want *tile.Matrix
		w.Run(func(pe rt.PE) {
			a.FillRandom(pe, 5)
			b.FillRandom(pe, 6)
			Multiply(pe, c, a, b, cfg)
			pe.Barrier()
			if pe.Rank() == 0 {
				got = c.Gather(pe, 0)
				want = tile.New(m, n)
				tile.GemmNaive(want, a.Gather(pe, 0), b.Gather(pe, 0))
			}
		})
		if !got.AllClose(want, 1e-4) {
			t.Fatalf("subTile=%v: executor mismatch under eviction pressure: %g", sub, got.MaxAbsDiff(want))
		}
	}
}

// smallBatch builds n small multiplies over a 4-PE world — misaligned
// row/column layouts so every plan fetches remote tiles — with distinct
// result matrices, and compiles their plans.
func smallBatch(n int) (*shmem.World, []Problem, []*CompiledPlan, Config) {
	w := shmem.NewWorld(4)
	a := distmat.New(w, 48, 40, distmat.RowBlock{}, 1)
	b := distmat.New(w, 40, 32, distmat.ColBlock{}, 1)
	cfg := DefaultConfig()
	cfg.Pool = gpusim.NewPool()
	probs := make([]Problem, n)
	cps := make([]*CompiledPlan, n)
	for i := range probs {
		probs[i] = NewProblem(distmat.New(w, 48, 32, distmat.Block2D{}, 1), a, b)
		cps[i] = CompilePlans(probs[i], cfg)
	}
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	return w, probs, cps, cfg
}

// A warm fused batch of small plans — the serving hot path — spawns no
// crew goroutine, carves its feeders, slots and operand views from the
// executor's scratch and draws buffers from a reserved pool shard, so it
// allocates nothing.
func TestExecuteCompiledBatchAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	w, probs, cps, cfg := smallBatch(8)
	w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return // ExecuteCompiledBatch is one-sided: rank 0 alone runs its plans
		}
		if err := ExecuteCompiledBatch(pe, probs, cps, cfg); err != nil {
			t.Error(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			_ = ExecuteCompiledBatch(pe, probs, cps, cfg) // shmem ops cannot fail
		})
		if allocs != 0 {
			t.Errorf("warm ExecuteCompiledBatch of %d plans allocates %v objects per call, want 0", len(cps), allocs)
		}
	})
}

// A warm plan-cached Multiply — zeroing C, the cache hit, the executor,
// the barriers — allocates nothing. Rank 0 measures while rank 1 makes
// the matching collective calls (AllocsPerRun runs its function once more
// than the count, as warm-up); the heap counters are process-wide, so
// rank 1's allocations count too.
func TestMultiplyCachedAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const runs = 50
	w := shmem.NewWorld(2)
	a := distmat.New(w, 48, 40, distmat.RowBlock{}, 1)
	b := distmat.New(w, 40, 32, distmat.ColBlock{}, 1)
	c := distmat.New(w, 48, 32, distmat.RowBlock{}, 1)
	cfg := DefaultConfig()
	cfg.Pool = gpusim.NewPool()
	cfg.Plans = NewPlanCache(4)
	multiply := func(pe rt.PE) {
		if _, err := Multiply(pe, c, a, b, cfg); err != nil {
			t.Error(err)
		}
	}
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
		multiply(pe) // compile, reserve, spawn the crew
		if pe.Rank() != 0 {
			for i := 0; i < runs+1; i++ {
				multiply(pe)
			}
			return
		}
		if allocs := testing.AllocsPerRun(runs, func() { multiply(pe) }); allocs != 0 {
			t.Errorf("warm cached Multiply allocates %v objects per call, want 0", allocs)
		}
	})
}

// A nil Config.Pool draws from the world's shared pool, so a warm
// default-config multiply allocates no more than the same call with an
// explicit pool, plain and resilient alike. Rank 0 measures while rank 1
// makes the matching collective calls.
func TestMultiplyDefaultPoolAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc counts only meaningful without -race")
	}
	const runs = 20
	w := shmem.NewWorld(2)
	a := distmat.New(w, 48, 40, distmat.RowBlock{}, 1)
	b := distmat.New(w, 40, 32, distmat.ColBlock{}, 1)
	c := distmat.New(w, 48, 32, distmat.RowBlock{}, 1)
	w.Run(func(pe rt.PE) {
		a.FillRandom(pe, 1)
		b.FillRandom(pe, 2)
	})
	allocs := func(cfg Config, resilient bool) (n float64) {
		multiply := func(pe rt.PE) {
			var err error
			if resilient {
				_, _, err = MultiplyResilient(pe, c, a, b, cfg)
			} else {
				_, err = Multiply(pe, c, a, b, cfg)
			}
			if err != nil {
				t.Error(err)
			}
		}
		w.Run(func(pe rt.PE) {
			multiply(pe) // compile, reserve, spawn the crew
			if pe.Rank() != 0 {
				for i := 0; i < runs+1; i++ {
					multiply(pe)
				}
				return
			}
			n = testing.AllocsPerRun(runs, func() { multiply(pe) })
		})
		return n
	}
	explicit := DefaultConfig()
	explicit.Pool = gpusim.NewPool()
	for _, resilient := range []bool{false, true} {
		if def, exp := allocs(DefaultConfig(), resilient), allocs(explicit, resilient); def > exp {
			t.Errorf("resilient=%v: warm default-pool multiply allocates %v objects per call, explicit pool %v",
				resilient, def, exp)
		}
	}
}

// crewGoroutines counts the goroutines running a crew worker.
func crewGoroutines() int {
	buf := make([]byte, 1<<20)
	n := runtime.Stack(buf, true)
	return strings.Count(string(buf[:n]), "(*crew).work(")
}

// The crew stays warm across calls but is not leaked: once its executor
// sits idle through a full collection cycle the pool drops it, and every
// crew goroutine exits, returning the goroutine count to its baseline
// (crews left warm by earlier tests are excluded from it, since they are
// dropped the same way).
func TestExecutorCrewExitsWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine() - crewGoroutines()
	w, probs, cps, cfg := smallBatch(4)
	w.Run(func(pe rt.PE) {
		if err := ExecuteCompiledBatch(pe, probs, cps, cfg); err != nil {
			t.Error(err)
		}
	})
	if crewGoroutines() == 0 {
		t.Fatal("no crew goroutine outlived the call")
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Fatalf("%d goroutines (%d crew) after the executors went idle, baseline %d: crew workers leaked",
			n, crewGoroutines(), base)
	}
}
