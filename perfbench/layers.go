package main

import (
	"math"
	"runtime"
	"sync/atomic"
	"time"

	"slicing/internal/chaos"
	"slicing/internal/distmat"
	"slicing/internal/index"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// execSet is a group of problems with their compiled plans on one real
// world: the operations a real-execution workload times, replayed layer
// by layer by the probes below.
type execSet struct {
	w     *shmem.World
	probs []universal.Problem
	cfgs  []universal.Config
	cps   []*universal.CompiledPlan
}

// steps is the number of plan steps one pass over the set executes.
func (s *execSet) steps() int {
	n := 0
	for _, cp := range s.cps {
		n += cp.Steps()
	}
	return n
}

// readHost copies replica of m into dst straight from the world's
// symmetric storage, without a collective. The caller must own m's
// contents at that moment (no multiply may be writing it).
func readHost(w rt.World, m *distmat.Matrix, replica int, dst *tile.Matrix) {
	tr, tc := m.GridShape()
	for r := 0; r < tr; r++ {
		for c := 0; c < tc; c++ {
			idx := index.TileIdx{Row: r, Col: c}
			b := m.TileBounds(idx)
			rows, cols := b.Shape()
			off := m.TileOffset(idx)
			store := w.SegmentStorage(m.Segment(), m.RankFor(m.OwnerSlot(idx), replica))
			src := tile.FromSlice(rows, cols, store[off:off+rows*cols])
			dst.View(b.Rows.Begin, b.Cols.Begin, rows, cols).CopyFrom(src)
		}
	}
}

// corruptHost adds 1 to the first element of m's replica 0, standing in
// for a wrong result.
func corruptHost(w rt.World, m *distmat.Matrix) {
	idx := index.TileIdx{}
	w.SegmentStorage(m.Segment(), m.RankFor(m.OwnerSlot(idx), 0))[m.TileOffset(idx)]++
}

// layerProbes measures the tile, distmat/shmem and executor layers on
// set, spending about budget in total, and records the per-layer metrics
// of those layers per operation, where one operation is opsPerPass-th of
// a pass over the set.
func layerProbes(set *execSet, opsPerPass float64, budget time.Duration, out map[string]float64) {
	gflops, calls, flops := gemmReplay(set.cps, budget/5)
	out["tile.gemm_gflops"] = gflops
	out["tile.gemm_calls"] = float64(calls) / opsPerPass
	out["tile.gemm_mflop"] = flops / opsPerPass / 1e6

	var gets, accums []*distmat.Matrix
	for _, p := range set.probs {
		gets = append(gets, p.A, p.B)
		accums = append(accums, p.C)
	}
	out["distmat.get_mbs"], out["distmat.accum_mbs"] = distmatBandwidth(set.w, gets, accums, budget/5)

	before := set.w.Stats()
	multiplyPass(set.w, set)
	after := set.w.Stats()
	out["shmem.remote_get_mb"] = float64(after.RemoteGetBytes-before.RemoteGetBytes) / 1e6 / opsPerPass
	out["shmem.remote_accum_mb"] = float64(after.RemoteAccumBytes-before.RemoteAccumBytes) / 1e6 / opsPerPass
	out["shmem.remote_ops"] = float64(after.RemoteOps-before.RemoteOps) / opsPerPass

	out["universal.exec_us_per_step"], out["universal.allocs_per_step"] = execProbe(set, budget/5)
	out["universal.ckpt_tax_pct"], out["universal.resilient_tax_pct"], out["chaos.clean_tax_pct"] = taxProbe(set, 2*budget/5)
}

// gemmReplay runs tile.Gemm on one goroutine over the exact (m,n,k)
// multiset of the plans' steps, in plan order, for about budget. It
// returns the achieved GFLOP/s plus the calls and flops of one pass.
func gemmReplay(cps []*universal.CompiledPlan, budget time.Duration) (gflops float64, calls int, flops float64) {
	type shape struct{ m, n, k int }
	type operands struct{ a, b, c *tile.Matrix }
	mats := map[shape]operands{}
	var seq []operands
	for _, cp := range cps {
		for _, pl := range cp.Plans {
			for _, st := range pl.Steps {
				sh := shape{st.Op.M.Len(), st.Op.N.Len(), st.Op.K.Len()}
				o, ok := mats[sh]
				if !ok {
					o = operands{tile.New(sh.m, sh.k), tile.New(sh.k, sh.n), tile.New(sh.m, sh.n)}
					o.a.Fill(0.5)
					o.b.Fill(0.25)
					mats[sh] = o
				}
				seq = append(seq, o)
				flops += tile.Flops(sh.m, sh.n, sh.k)
			}
		}
	}
	if len(seq) == 0 {
		return 0, 0, 0
	}
	pass := func() {
		for _, o := range seq {
			tile.Gemm(o.c, o.a, o.b)
		}
	}
	pass() // warm the packing scratch
	passes := 0
	t0 := time.Now()
	for passes == 0 || time.Since(t0) < budget {
		pass()
		passes++
	}
	return float64(passes) * flops / time.Since(t0).Seconds() / 1e9, len(seq), flops
}

// distmatBandwidth times GetTileInto over the remote tiles of gets and
// AccumulateTile onto the remote tiles of accums, every PE at once, and
// returns the achieved MB/s of each.
func distmatBandwidth(w *shmem.World, gets, accums []*distmat.Matrix, budget time.Duration) (getMBs, accMBs float64) {
	// remoteTiles lists, per rank, the tiles of ms held by another rank of
	// the caller's replica.
	type ref struct {
		m   *distmat.Matrix
		idx index.TileIdx
		buf *tile.Matrix
	}
	remoteTiles := func(ms []*distmat.Matrix) [][]ref {
		out := make([][]ref, w.NumPE())
		for rank := range out {
			for _, m := range ms {
				tr, tc := m.GridShape()
				for r := 0; r < tr; r++ {
					for c := 0; c < tc; c++ {
						idx := index.TileIdx{Row: r, Col: c}
						if m.OwnerRank(idx, distmat.LocalReplica, rank) == rank {
							continue
						}
						rows, cols := m.TileBounds(idx).Shape()
						out[rank] = append(out[rank], ref{m, idx, tile.New(rows, cols)})
					}
				}
			}
		}
		return out
	}
	measure := func(refs [][]ref, op func(pe rt.PE, r ref)) float64 {
		var bytes atomic.Int64
		pass := func(reps int) time.Duration {
			t0 := time.Now()
			w.Run(func(pe rt.PE) {
				var n int64
				for i := 0; i < reps; i++ {
					for _, r := range refs[pe.Rank()] {
						op(pe, r)
						n += int64(4 * r.buf.Rows * r.buf.Cols)
					}
				}
				bytes.Add(n)
			})
			return time.Since(t0)
		}
		one := pass(1)
		reps := max(1, int(budget/2/max(one, time.Microsecond)))
		bytes.Store(0)
		d := pass(reps)
		return float64(bytes.Load()) / 1e6 / d.Seconds()
	}
	getMBs = measure(remoteTiles(gets), func(pe rt.PE, r ref) {
		r.m.GetTileInto(pe, r.buf, r.idx, distmat.LocalReplica)
	})
	accMBs = measure(remoteTiles(accums), func(pe rt.PE, r ref) {
		r.m.AccumulateTile(pe, r.idx, distmat.LocalReplica, r.buf)
	})
	return getMBs, accMBs
}

// multiplyPass runs universal.Multiply once over every problem of set in
// one collective activation of w (w may wrap set's world).
func multiplyPass(w rt.World, set *execSet) {
	w.Run(func(pe rt.PE) {
		for i, p := range set.probs {
			_, _ = universal.Multiply(pe, p.C, p.A, p.B, set.cfgs[i]) // fault-free world
		}
	})
}

// execProbe times universal.ExecuteCompiled over every plan of set and
// returns the wall time per plan step in microseconds (median over
// passes) and the heap allocations per step.
func execProbe(set *execSet, budget time.Duration) (usPerStep, allocsPerStep float64) {
	steps := set.steps()
	if steps == 0 {
		return 0, 0
	}
	pass := func() time.Duration {
		t0 := time.Now()
		set.w.Run(func(pe rt.PE) {
			for i, p := range set.probs {
				_ = universal.ExecuteCompiled(pe, p, set.cps[i], set.cfgs[i]) // fault-free world
			}
			pe.Barrier()
		})
		return time.Since(t0)
	}
	pass() // warm the pools
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var walls []float64
	t0 := time.Now()
	for len(walls) < 3 || time.Since(t0) < budget {
		walls = append(walls, pass().Seconds())
	}
	runtime.ReadMemStats(&ms1)
	usPerStep = median(walls) * 1e6 / float64(steps)
	allocsPerStep = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(walls)*steps)
	return usPerStep, allocsPerStep
}

// taxProbe measures the clean-run cost of the resilience layers on set's
// plans, each against its plain counterpart in interleaved rounds:
// ExecutePlanCheckpointed vs ExecutePlan, MultiplyResilient vs Multiply,
// and Multiply on a rule-free chaos.WrapWorld vs the bare world. Each tax
// is the percentage by which the median resilient round is slower.
func taxProbe(set *execSet, budget time.Duration) (ckptPct, resilientPct, chaosPct float64) {
	w := set.w
	cw := chaos.WrapWorld(w, &chaos.Plan{})
	ckpts := make([]universal.Checkpoint, w.NumPE())
	timed := func(run func()) float64 {
		t0 := time.Now()
		run()
		return time.Since(t0).Seconds()
	}
	variants := []func(){
		func() { // ExecutePlan
			w.Run(func(pe rt.PE) {
				for i, p := range set.probs {
					_ = universal.ExecutePlan(pe, p, set.cps[i].Plans[pe.Rank()], set.cfgs[i])
				}
				pe.Barrier()
			})
		},
		func() { // ExecutePlanCheckpointed
			w.Run(func(pe rt.PE) {
				for i, p := range set.probs {
					_ = universal.ExecutePlanCheckpointed(pe, p, set.cps[i].Plans[pe.Rank()], set.cfgs[i], &ckpts[pe.Rank()])
				}
				pe.Barrier()
			})
		},
		func() { multiplyPass(w, set) },
		func() { // MultiplyResilient
			w.Run(func(pe rt.PE) {
				for i, p := range set.probs {
					_, _, _ = universal.MultiplyResilient(pe, p.C, p.A, p.B, set.cfgs[i])
				}
			})
		},
		func() { multiplyPass(cw, set) },
	}
	samples := make([][]float64, len(variants))
	for _, v := range variants {
		v() // warm up
	}
	t0 := time.Now()
	for round := 0; round < 3 || time.Since(t0) < budget; round++ {
		// Rotate the order so no variant always runs right after another.
		for j := range variants {
			k := (j + round) % len(variants)
			samples[k] = append(samples[k], timed(variants[k]))
		}
	}
	tax := func(x, base int) float64 {
		b := median(samples[base])
		if b == 0 || math.IsNaN(b) {
			return 0
		}
		return 100 * (median(samples[x])/b - 1)
	}
	return tax(1, 0), tax(3, 2), tax(4, 2)
}

// compileProbe runs the slicing pass cold over every problem of set reps
// times and returns the median milliseconds per CompilePlans call.
func compileProbe(set *execSet, reps int, tr *tracer) float64 {
	var compiles []float64
	for rep := 0; rep < reps; rep++ {
		for i, p := range set.probs {
			sp := tr.begin("universal.CompilePlans", -1, int64(i), 0)
			t0 := time.Now()
			universal.CompilePlans(p, set.cfgs[i])
			compiles = append(compiles, ms(time.Since(t0)))
			tr.end(sp)
		}
	}
	return median(compiles)
}

// probeBudget is the time the traced run spends in its layer probes.
func probeBudget(ctx *runCtx) time.Duration {
	if ctx.tiny {
		return 200 * time.Millisecond
	}
	return 6 * time.Second
}

// finishKernelRatios derives the kernel-share ratios of a real-execution
// workload from its untraced phase and the gemm replay.
func finishKernelRatios(L map[string]float64, plain opStats, pes int) {
	g := L["tile.gemm_gflops"]
	if g <= 0 || plain.perSec <= 0 {
		return
	}
	kernelS := L["tile.gemm_mflop"] * 1e6 / (g * 1e9)
	procs := runtime.GOMAXPROCS(0)
	L["tile.gemm_share_pct"] = 100 * kernelS * plain.perSec / float64(procs)
	L["universal.exec_over_kernel_pct"] = 100 * L["bench.useful_gflops"] / (g * float64(min(pes, procs)))
}

// hitPct is the plan-cache hit rate between two snapshots.
func hitPct(before, after universal.PlanCacheStats) float64 {
	hits, misses := after.Hits-before.Hits, after.Misses-before.Misses
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
