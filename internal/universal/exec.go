package universal

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/tile"
)

// Config tunes the direct-execution engine of §4.2.
type Config struct {
	// Stationary selects the data movement strategy; StationaryAuto picks
	// the largest matrix.
	Stationary Stationary
	// PrefetchDepth is how many steps ahead tile fetches are issued
	// (get_tile_async). The paper prefetches the next two tiles.
	PrefetchDepth int
	// MaxInflight bounds concurrent GEMM+accumulate chains, the paper's
	// configurable concurrency limit trading asynchrony for memory.
	MaxInflight int
	// KernelWorkers parallelizes each local GEMM inside the PE across this
	// many goroutines (tile.GemmParallel's shared-pack crew). 1 (or 0, the
	// default) keeps local GEMMs single-threaded, leaving MaxInflight as the
	// only concurrency axis; set it when PEs are few and cores are many, so
	// a single large per-step GEMM can use the whole socket.
	KernelWorkers int
	// CacheTiles bounds the recently-fetched tile cache used for reuse
	// across consecutive ops. It also bounds the executor's resident tile
	// buffers: a fetched tile's buffer returns to the pool when the tile
	// LRU evicts it.
	CacheTiles int
	// SubTileFetch switches to the bandwidth-optimal fetch mode: each op
	// pulls only its exact (M,K)/(K,N) slices instead of whole tiles. It
	// saves bytes for misaligned tilings and replicated stationary
	// matrices, but gives up cross-op tile reuse (see the fetch-mode
	// ablation benchmark).
	SubTileFetch bool
	// Pool supplies scratch buffers for partial results and fetched tiles;
	// each rank draws from its own shard (gpusim.Pool.Shard), so PEs
	// sharing a pool never contend on its lock. Nil means the world's
	// shared pool, kept next to its plan cache (poolOf).
	Pool *gpusim.Pool
	// Plans is the compiled-plan cache Multiply/MultiplyAccumulate (and
	// their resilient forms) take the problem's CompiledPlan from: a hit
	// executes the precompiled per-rank plan and fetch schedule directly
	// (zero slicing work, zero additional allocations), a miss runs the
	// §4.1 slicing pass once for the whole world and caches the result.
	// Nil means the world's shared cache, PlansOf(world); pass a fresh
	// NewPlanCache to compile independently of it.
	Plans *PlanCache
	// ReduceOrigin is the replica partial C results are reduced into when C
	// is replicated.
	ReduceOrigin int
	// SyncReplicas re-broadcasts the reduced C so every replica holds the
	// final result. The paper's algorithm only reduces; enabling this adds
	// a broadcast_replica for API convenience.
	SyncReplicas bool
	// Retry budgets recovery from one-sided op faults on fault-capable
	// backends: per-op attempts, backoff, and the per-op deadline
	// (docs/RESILIENCE.md). The zero value selects the defaults.
	Retry RetryConfig
	// Exclude names ranks this multiply assigns no work — the shrunken
	// world of PE-loss recovery (docs/RESILIENCE.md). Excluded ranks still
	// call the collective and participate in its barriers and reductions
	// (their memory stays reachable); their ops are adopted round-robin by
	// the surviving ranks. Entries must be valid ranks and at least one
	// rank must survive. The set is part of the PlanKey, so exclusion
	// plans are ordinary PlanCache entries; pass it sorted and
	// duplicate-free (runtime.Membership.Excluded's form) to keep
	// PlanKeyOf allocation-free.
	Exclude []int
}

// DefaultConfig mirrors the paper's direct-execution settings: prefetch
// depth 2 and a small bounded accumulate/GEMM concurrency.
func DefaultConfig() Config {
	return Config{
		Stationary:    StationaryAuto,
		PrefetchDepth: 2,
		MaxInflight:   4,
		CacheTiles:    DefaultCacheTiles,
	}
}

func (cfg Config) withDefaults() Config {
	if cfg.PrefetchDepth <= 0 {
		cfg.PrefetchDepth = 2
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = 4
	}
	if cfg.KernelWorkers <= 0 {
		cfg.KernelWorkers = 1
	}
	if cfg.CacheTiles <= 0 {
		cfg.CacheTiles = DefaultCacheTiles
	}
	cfg.Retry = cfg.Retry.withDefaults()
	return cfg
}

// Multiply computes C = A·B with the universal one-sided algorithm,
// zeroing C first. Collective: every PE of the world must call it with the
// same arguments. It returns the resolved stationary strategy and the
// first fatal one-sided fault of this rank's slice of the work, nil on
// fault-free backends. An erroring rank still participates in every
// collective (the crew drains, the barrier and replica reduction run), so
// a fault never wedges the world — but its C contribution is incomplete,
// so the result is only meaningful when every rank returns nil.
func Multiply(pe rt.PE, c, a, b *distmat.Matrix, cfg Config) (Stationary, error) {
	prob := NewProblem(c, a, b)
	c.Zero(pe) // includes a barrier
	return MultiplyAccumulate(pe, prob, cfg)
}

// MultiplyAccumulate computes C += A·B assuming C already holds the values
// to accumulate onto (zeroed for a plain product). Collective. The plan
// comes from the compiled-plan cache (cfg.Plans, or the world's shared
// cache): built once per world on a miss, re-executed with zero slicing
// work on a hit. Error semantics are Multiply's.
func MultiplyAccumulate(pe rt.PE, prob Problem, cfg Config) (Stationary, error) {
	cfg = cfg.withDefaults()
	cp := compiledPlanOf(pe, prob, cfg)
	rank := pe.Rank()
	err := executePlan(pe, prob, cp.Plans[rank].Steps, &cp.scheds[rank], cfg, nil)
	finishMultiply(pe, prob, cfg)
	return cp.Key.Stationary, err
}

// poolOf resolves the buffer pool pe's executions draw from: cfg.Pool, or
// the world's shared pool when that is nil.
func poolOf(pe rt.PE, cfg Config) *gpusim.Pool {
	if cfg.Pool != nil {
		return cfg.Pool
	}
	return stateOf(pe.World()).pool
}

// compiledPlanOf resolves the CompiledPlan a collective multiply runs:
// from cfg.Plans, or from the world's shared cache when that is nil.
func compiledPlanOf(pe rt.PE, prob Problem, cfg Config) *CompiledPlan {
	plans := cfg.Plans
	if plans == nil {
		plans = PlansOf(pe.World())
	}
	return plans.GetOrCompile(prob, cfg)
}

// finishMultiply is the collective tail of every multiply: a barrier so
// all one-sided updates land, then the replica reduction of a replicated
// C. It runs outside the executor's fault scope, so it proceeds (and stays
// barrier-matched across ranks) even after an error; the reduced values
// are only meaningful if no rank failed.
func finishMultiply(pe rt.PE, prob Problem, cfg Config) {
	pe.Barrier()
	if prob.C.Replication() > 1 {
		prob.C.ReduceReplicas(pe, cfg.ReduceOrigin)
		if cfg.SyncReplicas {
			prob.C.BroadcastReplica(pe, cfg.ReduceOrigin)
		}
	}
}

// tileSlot is one fetched tile buffer with its in-flight future and a
// reference count. A slot is born with one reference held by the tile
// cache (its LRU residency); every step using the tile takes a
// reference for the duration of its GEMM→accumulate chain. When the count
// reaches zero — the LRU residency has ended and no in-flight chain still
// reads the buffer — the buffer returns to the pool for the next fetch.
type tileSlot struct {
	fut  distmat.TileFuture
	mat  tile.Matrix
	buf  []float32
	pool *gpusim.Pool
	refs atomic.Int32
}

// acquire takes a user reference and blocks until the fetch has landed.
func (s *tileSlot) acquire() *tile.Matrix {
	s.refs.Add(1)
	return s.fut.Wait()
}

// release drops one reference, recycling the buffer on the last one.
func (s *tileSlot) release() {
	if s.refs.Add(-1) == 0 && s.buf != nil {
		s.pool.Put(s.buf)
		s.buf = nil
	}
}

// stepOperands holds one step's sliced operand views. They live in the
// executor's scratch so slicing allocates nothing per step.
type stepOperands struct {
	a, b tile.Matrix
}

// ExecutePlan runs a per-rank plan with the §4.2 optimizations: iteration
// offset (already baked into the op order), prefetching via
// get_tile_async, asynchronous GEMM→accumulate chains with bounded
// concurrency, and pooled scratch memory. It reruns the tile-LRU walk
// (resolveFetches) on a private copy of the plan's steps under
// cfg.CacheTiles, so the fetch flags it follows and its buffer lifetimes
// come from one walk even when the plan was built with another capacity;
// ExecuteCompiled reuses the walk frozen at compile time. The run itself
// is allocation-free and spawn-free in the steady state: it borrows a
// pooled executor whose crew and scratch outlive the call, fetched tiles
// land in buffers from the rank's shard of cfg.Pool held in refcounted
// slots that the LRU's evictions retire, and GEMM partials come from the
// same shard. It performs no collective synchronization; callers barrier
// afterwards. The returned error is the rank's first fatal one-sided
// fault (after per-op retries), with every pooled buffer back in the pool
// either way.
func ExecutePlan(pe rt.PE, prob Problem, plan Plan, cfg Config) error {
	return executeSteps(pe, prob, plan.Steps, cfg, nil)
}

// executeSteps is ExecutePlan's body: it resolves the fetches of a copy of
// steps under cfg.CacheTiles and runs them, checkpointing into ckpt when
// it is non-nil.
func executeSteps(pe rt.PE, prob Problem, steps []Step, cfg Config, ckpt *Checkpoint) error {
	cfg = cfg.withDefaults()
	steps = slices.Clone(steps)
	sched := resolveFetches(steps, cfg.CacheTiles)
	return executePlan(pe, prob, steps, &sched, cfg, ckpt)
}

// executePlan runs one plan whose fetch schedule is already computed — the
// shared body of the direct path (which derives sched per call) and the
// compiled-plan path (which reuses the schedule frozen at compile time, so
// a plan-cache hit re-runs zero slicing work). cfg must already have
// defaults applied. steps' fetch flags must come from the same
// resolveFetches walk as sched, which is read-only: concurrent executions
// of one CompiledPlan share it. With ckpt non-nil (already Reset to the
// plan's length) every step whose accumulate lands is marked, so after a
// fatal fault the caller knows exactly which C contributions are durable
// and which steps a repair plan must replay.
func executePlan(pe rt.PE, prob Problem, steps []Step, sched *fetchSchedule, cfg Config, ckpt *Checkpoint) error {
	ex := executors.Get().(*executor)
	ex.add(prob, steps, sched, ckpt)
	err := ex.run(pe, cfg)
	executors.Put(ex)
	return err
}

// executors holds idle executors. Each executing PE borrows one for the
// length of its call, so there are about as many as there are concurrent
// calls. An executor in steady use survives garbage collection; one left
// idle through a full collection cycle is dropped, and its cleanup stops
// its crew, so idle crews never outlive their executor.
var executors = sync.Pool{New: func() any {
	c := &crew{tasks: make(chan chainTask), quit: make(chan struct{})}
	ex := &executor{crew: c}
	// The crew's goroutines reference the crew, never the executor, so
	// the executor becomes unreachable once the pool drops it.
	runtime.AddCleanup(ex, (*crew).stop, c)
	return ex
}}

// executor is the execution state that outlives a single call: a warm
// GEMM→accumulate crew and the scratch each call carves its per-plan
// feeders, tile slots and operand views from. A call queues its plans with
// add and runs them with run; in the steady state that spawns no
// goroutine and allocates nothing. Between calls an executor keeps no
// reference to the call's problems, PE or pool.
type executor struct {
	*crew
	prefetch int

	feeders  []planFeeder
	slots    []tileSlot
	operands []stepOperands
	demand   []bucketDemand
}

// add queues one plan for the next run.
func (ex *executor) add(prob Problem, steps []Step, sched *fetchSchedule, ckpt *Checkpoint) {
	ex.feeders = append(ex.feeders, planFeeder{prob: prob, steps: steps, sched: sched, ckpt: ckpt})
}

// run executes the queued plans as one fused group on pe: one crew drains
// every plan's chains back-to-back, and this rank's first fatal fault
// stops dispatch across all of them and is returned once.
//
// It brackets the run in a fault scope with the configured per-op
// deadline: on fault-capable backends this is the recoverable region
// (injected faults fire only here, retried per Config.Retry), and the
// collectives around it stay fault-free so ranks never diverge on
// barrier counts.
func (ex *executor) run(pe rt.PE, cfg Config) error {
	rt.PushFaultScope(pe)
	defer rt.PopFaultScope(pe)
	rt.SetOpDeadline(pe, cfg.Retry.OpTimeout)
	defer rt.SetOpDeadline(pe, 0)

	ex.pe, ex.pool = pe, poolOf(pe, cfg).Shard(pe.Rank())
	ex.retry, ex.kernelWorkers, ex.prefetch = cfg.Retry, cfg.KernelWorkers, cfg.PrefetchDepth
	steps := ex.carve()
	ex.reserve(cfg.MaxInflight)
	// A call never needs more workers than it has steps: a two-step plan
	// wakes two.
	workers := min(cfg.MaxInflight, steps)
	ex.start(workers)
	for i := range ex.feeders {
		ex.feeders[i].feed(ex)
	}
	ex.end(workers)
	// Residual LRU residencies drop after the crew drains, so the final
	// pool returns happen deterministically here rather than racing
	// worker releases mid-execution.
	for i := range ex.feeders {
		ex.feeders[i].finish()
	}
	err := ex.box.err()
	ex.reset(steps)
	return err
}

// carve sizes the scratch to the queued plans' total steps and hands each
// feeder its share, returning the total. Scratch only grows, so a call no
// larger than an earlier one allocates nothing.
func (ex *executor) carve() int {
	steps := 0
	for i := range ex.feeders {
		steps += len(ex.feeders[i].steps)
	}
	if cap(ex.slots) < 2*steps {
		ex.slots = make([]tileSlot, 2*steps)
	}
	if cap(ex.operands) < steps {
		ex.operands = make([]stepOperands, steps)
	}
	off := 0
	for i := range ex.feeders {
		f := &ex.feeders[i]
		n := len(f.steps)
		f.aSlots = ex.slots[2*off : 2*off+n]
		f.bSlots = ex.slots[2*off+n : 2*(off+n)]
		f.operands = ex.operands[off : off+n]
		off += n
	}
	return steps
}

// reserve carves the call's worst-case buffer demand out of the rank's
// shard before the first fetch, so how many buffers the shard allocates
// depends only on the plans, never on the order in which crew workers
// return them. Per bucket it reserves the plans' peak resident fetch
// buffers plus what the schedule cannot see — the PrefetchDepth+1 steps
// fetched ahead of dispatch and the MaxInflight+1 chains (the one being
// dispatched included) that may still read tiles already evicted, two
// operands each — capped at the fetches issued, and one GEMM partial per
// chain, capped at the steps of that size.
func (ex *executor) reserve(maxInflight int) {
	ex.demand = ex.demand[:0]
	for i := range ex.feeders {
		for _, d := range ex.feeders[i].sched.demand {
			ex.demand = addDemand(ex.demand, d)
		}
	}
	slack := 2*(ex.prefetch+1) + 2*(maxInflight+1)
	for _, d := range ex.demand {
		ex.pool.Reserve(d.size, min(d.fetches, d.resident+slack)+min(d.partials, maxInflight))
	}
}

// reset drops every reference the call left behind, so an idle executor
// never keeps a finished call's matrices, PE or pool alive.
func (ex *executor) reset(steps int) {
	clear(ex.slots[:2*steps])
	clear(ex.operands[:steps])
	clear(ex.feeders)
	ex.feeders = ex.feeders[:0]
	ex.pe, ex.pool = nil, nil
	ex.retry = RetryConfig{}
	ex.box.p.Store(nil)
}

// crew is an executor's bounded GEMM→accumulate worker crew (§4.2's
// configurable chain-concurrency limit) together with the call state its
// workers read. Workers are spawned on first need and then park between
// calls, so a steady-state call wakes them instead of spawning; they exit
// when the executor is garbage collected.
type crew struct {
	// Call state: written by run before the crew starts, cleared by reset
	// after it ends.
	pe            rt.PE
	pool          *gpusim.Pool // the rank's shard of Config.Pool
	retry         RetryConfig
	kernelWorkers int
	box           errBox

	// tasks is unbuffered: a send blocks exactly when every started worker
	// is busy, which is the same admission control as a counting
	// semaphore.
	tasks chan chainTask
	// ctl[i] carries worker i's session start and end signals, alternately;
	// capacity 2 so neither send blocks even when the worker has not yet
	// picked up the start.
	ctl  []chan struct{}
	done sync.WaitGroup // counts started workers out of a call
	quit chan struct{}  // closed by stop
}

// start opens a call's session on workers 0..n-1, spawning any that do
// not exist yet.
func (c *crew) start(n int) {
	c.done.Add(n)
	for i := 0; i < n; i++ {
		if i == len(c.ctl) {
			ctl := make(chan struct{}, 2)
			c.ctl = append(c.ctl, ctl)
			go c.work(i, ctl)
		}
		c.ctl[i] <- struct{}{}
	}
}

// end closes the session on workers 0..n-1 once every task has been
// handed out, and waits until each has finished its last chain.
func (c *crew) end(n int) {
	for i := 0; i < n; i++ {
		c.ctl[i] <- struct{}{}
	}
	c.done.Wait()
}

// stop ends every worker goroutine. It runs as the executor's cleanup,
// when no call can be in progress, so every worker is parked.
func (c *crew) stop() { close(c.quit) }

// work is worker id's goroutine: a session per call until stop.
func (c *crew) work(id int, ctl <-chan struct{}) {
	for {
		select {
		case <-ctl:
		case <-c.quit:
			return
		}
		c.session(id, ctl)
		c.done.Done()
	}
}

// session drains one call's chains until its end signal. Tasks are plain
// values carrying their own Problem, so one session serves every plan of
// a fused batch and dispatching a step allocates nothing. The end signal
// is sent only after the last task has been handed out, so a worker that
// sees it has no task left to take.
//
// The crew's errBox is the call's abort flag: a worker whose accumulate
// fails fatally (after its retry budget) publishes the error, and every
// worker keeps draining tasks — releasing their slots so pooled buffers
// balance — but skips their compute. The feeders poll the same box and
// stop dispatching, so a failed step ends the run cleanly instead of
// deadlocking the channel.
func (c *crew) session(id int, ctl <-chan struct{}) {
	ret := newRetrier(c.retry, uint64(c.pe.Rank())<<16|uint64(id+1))
	for {
		var t chainTask
		select {
		case t = <-c.tasks:
		case <-ctl:
			return
		}
		if c.box.err() == nil {
			err := gemmAccumulateChain(c.pe, t.prob, t.op, &t.ops.a, &t.ops.b, c.pool, c.kernelWorkers, &ret)
			if err == nil && t.ckpt != nil {
				// The chain's single accumulate landed (a failed op moves
				// no data, so this is exactly the step's C contribution
				// becoming durable): checkpoint it at the same point the
				// step's slot references retire.
				t.ckpt.mark(t.step)
			}
			c.box.set(err)
		}
		if t.aSlot != nil {
			t.aSlot.release()
		}
		if t.bSlot != nil {
			t.bSlot.release()
		}
	}
}

// chainTask is one ready GEMM→accumulate chain handed to the crew. It
// carries its own Problem so one crew can serve a fused batch of
// multiplies.
type chainTask struct {
	prob         Problem
	op           LocalOp
	ops          *stepOperands
	aSlot, bSlot *tileSlot
	// ckpt/step checkpoint the chain's accumulate when it lands (nil = no
	// checkpointing; the common fault-free entry points pay nothing).
	ckpt *Checkpoint
	step int
}

// planFeeder walks one queued plan, issuing prefetches and handing each
// ready chain to the crew. Its slot and operand arrays are carved from the
// executor's scratch; the refcounts keep pooled buffers alive until the
// last in-flight chain using them retires, so the feeders of a fused batch
// share one crew and none has to wait for another's chains to drain.
//
// Fault handling: fetch issues run under the retry budget; a fatal
// failure (or one published by a worker, or by a fused sibling plan)
// stops dispatch at that step. Already-issued fetches are safe to abandon
// — every backend completes the data movement of an async get at issue
// time — so finish can return their buffers to the pool unconditionally.
type planFeeder struct {
	prob  Problem
	steps []Step
	sched *fetchSchedule
	ckpt  *Checkpoint
	ret   retrier

	aSlots, bSlots []tileSlot
	operands       []stepOperands
	// Local-tile view headers, one per operand so a step with two local
	// tiles never aliases them; reused across steps.
	aLocal, bLocal tile.Matrix
	evictCursor    int
	abortAt        int  // first step never dispatched; -1 = ran to completion
	fed            bool // false when a fused sibling failed before this plan began
}

// slot returns the slot of one fetch.
func (f *planFeeder) slot(ref fetchRef) *tileSlot {
	if ref.mat == 'A' {
		return &f.aSlots[ref.step]
	}
	return &f.bSlots[ref.step]
}

// feed dispatches the plan's steps to the crew.
func (f *planFeeder) feed(ex *executor) {
	if ex.box.err() != nil {
		return // a fused sibling plan already failed; skip this one entirely
	}
	f.fed, f.abortAt = true, -1
	f.ret = newRetrier(ex.retry, uint64(ex.pe.Rank())<<16|0xfeed)
	if err := f.issueFetches(ex, 0, 1+ex.prefetch); err != nil {
		ex.box.set(err)
	}
	for i := range f.steps {
		s := &f.steps[i]
		if ex.box.err() != nil {
			f.abortAt = i
			return
		}
		if err := f.issueFetches(ex, i+1+ex.prefetch, i+2+ex.prefetch); err != nil {
			ex.box.set(err)
			f.abortAt = i
			return
		}

		ops := &f.operands[i]
		aSrc, bSrc := i, i // a sub-tile step reads its own fetches
		if !s.SubTile {
			aSrc, bSrc = f.sched.srcA[i], f.sched.srcB[i]
		}
		aSlot := operand(ex.pe, f.prob.A, s.Op.AIdx, index.Rect{Rows: s.Op.M, Cols: s.Op.K}, s.ALocal, s.SubTile, f.aSlots, aSrc, &f.aLocal, &ops.a)
		bSlot := operand(ex.pe, f.prob.B, s.Op.BIdx, index.Rect{Rows: s.Op.K, Cols: s.Op.N}, s.BLocal, s.SubTile, f.bSlots, bSrc, &f.bLocal, &ops.b)

		ex.tasks <- chainTask{prob: f.prob, op: s.Op, ops: ops, aSlot: aSlot, bSlot: bSlot, ckpt: f.ckpt, step: i}

		// Sub-tile fetches are single-use: drop their residency reference
		// now that the chain holds its own.
		if s.SubTile {
			if aSlot != nil {
				aSlot.release()
			}
			if bSlot != nil {
				bSlot.release()
			}
		}
		// Retire buffers whose LRU residency ended at this step.
		ev := f.sched.evictions
		for f.evictCursor < len(ev) && ev[f.evictCursor].atStep == i {
			f.slot(ev[f.evictCursor].ref).release()
			f.evictCursor++
		}
	}
}

// finish drops the plan's residual residencies once the crew has drained.
func (f *planFeeder) finish() {
	if !f.fed {
		return
	}
	// Full-tile fetches (issued or not) all appear in the eviction list;
	// releasing an unissued slot is a no-op, so the walk is correct on
	// the abort path as well.
	for ev := f.sched.evictions; f.evictCursor < len(ev); f.evictCursor++ {
		f.slot(ev[f.evictCursor].ref).release()
	}
	if f.abortAt < 0 {
		return
	}
	// Sub-tile fetches are not in the eviction list (their residency ends
	// at dispatch), so on abort the issued-but-never-dispatched ones still
	// hold their single-use reference.
	for j := f.abortAt; j < len(f.steps); j++ {
		if !f.steps[j].SubTile {
			continue
		}
		if f.aSlots[j].buf != nil {
			f.aSlots[j].release()
		}
		if f.bSlots[j].buf != nil {
			f.bSlots[j].release()
		}
	}
}

// issueFetches starts the async copies needed by steps [from, to).
func (f *planFeeder) issueFetches(ex *executor, from, to int) error {
	for i := from; i < to && i < len(f.steps); i++ {
		s := &f.steps[i]
		if s.SubTile {
			if s.FetchA {
				if err := f.fetchSub(ex, &f.aSlots[i], f.prob.A, s.Op.AIdx, index.Rect{Rows: s.Op.M, Cols: s.Op.K}); err != nil {
					return err
				}
			}
			if s.FetchB {
				if err := f.fetchSub(ex, &f.bSlots[i], f.prob.B, s.Op.BIdx, index.Rect{Rows: s.Op.K, Cols: s.Op.N}); err != nil {
					return err
				}
			}
			continue
		}
		if s.FetchA {
			if err := f.fetchTile(ex, &f.aSlots[i], f.prob.A, s.Op.AIdx); err != nil {
				return err
			}
		}
		if s.FetchB {
			if err := f.fetchTile(ex, &f.bSlots[i], f.prob.B, s.Op.BIdx); err != nil {
				return err
			}
		}
	}
	return nil
}

// arm points slot s at a pooled rows×cols buffer from the rank's shard,
// holding the cache's residency reference.
func (ex *executor) arm(s *tileSlot, rows, cols int) {
	s.pool = ex.pool
	s.buf = ex.pool.GetUninit(rows * cols)
	s.mat = tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: s.buf}
	s.refs.Store(1)
}

// fetchTile starts the async whole-tile copy of m's tile idx into slot s,
// retrying transient issue failures.
func (f *planFeeder) fetchTile(ex *executor, s *tileSlot, m *distmat.Matrix, idx index.TileIdx) error {
	rows, cols := m.TileBounds(idx).Shape()
	ex.arm(s, rows, cols)
	return f.ret.do(func() { m.GetTileIntoAsync(ex.pe, &s.fut, &s.mat, idx, distmat.LocalReplica) })
}

// fetchSub starts the async exact-slice copy for a sub-tile step.
// Sub-tile fetches are single-use, so their residency reference is dropped
// as soon as the step's chain holds its own.
func (f *planFeeder) fetchSub(ex *executor, s *tileSlot, m *distmat.Matrix, idx index.TileIdx, sub index.Rect) error {
	rows, cols := sub.Shape()
	ex.arm(s, rows, cols)
	return f.ret.do(func() { m.GetSubTileIntoAsync(ex.pe, &s.fut, &s.mat, idx, distmat.LocalReplica, sub) })
}

// operand fills view with one step's operand sliced to rect (the op's
// (M,K) or (K,N) bounds) and returns the slot whose chain reference the
// step now holds, nil for a local tile. A local tile is viewed in place
// through localTile; otherwise the step waits for the fetch in slots[src]
// to land: a whole tile, or in sub-tile mode exactly rect.
func operand(pe rt.PE, m *distmat.Matrix, idx index.TileIdx, rect index.Rect, local, subTile bool,
	slots []tileSlot, src int, localTile, view *tile.Matrix) *tileSlot {
	t, origin := localTile, m.TileBounds(idx)
	var slot *tileSlot
	if local {
		m.TileInto(pe, localTile, idx, distmat.LocalReplica)
	} else {
		slot = &slots[src]
		t = slot.acquire()
		if subTile {
			origin = rect
		}
	}
	t.ViewInto(view, rect.Rows.Begin-origin.Rows.Begin, rect.Cols.Begin-origin.Cols.Begin, rect.Rows.Len(), rect.Cols.Len())
	return slot
}

// gemmAccumulateChain is the GEMM→accumulate chain of §4.2: it multiplies
// the sliced tiles into a pooled scratch buffer and accumulates the result
// into C. aSlice and bSlice must already be sliced to the op's (M,K) and
// (K,N) bounds; workers > 1 spreads the GEMM across that many goroutines
// (Config.KernelWorkers). It performs no heap allocation in the steady
// state: the partial lives in a pooled buffer and its header on the stack.
// With ret non-nil the accumulate runs under the retry budget and a fatal
// fault comes back as an error with the scratch buffer already back in the
// pool; with ret nil faults panic through unchanged (the IR path's
// contract).
func gemmAccumulateChain(pe rt.PE, prob Problem, op LocalOp, aSlice, bSlice *tile.Matrix, pool *gpusim.Pool, workers int, ret *retrier) error {
	rows, cols := op.M.Len(), op.N.Len()
	buf := pool.Get(rows * cols)
	partial := tile.Matrix{Rows: rows, Cols: cols, Stride: cols, Data: buf}
	if workers > 1 {
		tile.GemmParallel(&partial, aSlice, bSlice, workers)
	} else {
		tile.Gemm(&partial, aSlice, bSlice)
	}
	rt.ChargeGemm(pe, rows, cols, op.K.Len())
	var err error
	if ret != nil {
		err = ret.do(func() { prob.C.AccumulateSubTile(pe, op.CIdx, distmat.LocalReplica, subRect(op), &partial) })
	} else {
		prob.C.AccumulateSubTile(pe, op.CIdx, distmat.LocalReplica, subRect(op), &partial)
	}
	pool.Put(buf)
	return err
}

// RunStep executes one plan step given its (full) A and B tiles: it slices
// the tiles to the op's bounds, multiplies, and accumulates into C. It is
// shared by the direct executor and the IR executor.
func RunStep(pe rt.PE, prob Problem, s Step, aTile, bTile *tile.Matrix, pool *gpusim.Pool) {
	ab := prob.A.TileBounds(s.Op.AIdx)
	bb := prob.B.TileBounds(s.Op.BIdx)
	aSlice := aTile.View(s.Op.M.Begin-ab.Rows.Begin, s.Op.K.Begin-ab.Cols.Begin, s.Op.M.Len(), s.Op.K.Len())
	bSlice := bTile.View(s.Op.K.Begin-bb.Rows.Begin, s.Op.N.Begin-bb.Cols.Begin, s.Op.K.Len(), s.Op.N.Len())
	gemmAccumulateChain(pe, prob, s.Op, aSlice, bSlice, pool, 1, nil)
}

func subRect(op LocalOp) (r index.Rect) {
	r.Rows = op.M
	r.Cols = op.N
	return r
}
