package main

import (
	"fmt"
	"math/rand"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// mixedSize fixes the mixed-partitions problem size.
type mixedSize struct {
	pes, dim, problems, setups int
	// tileLo and tileHi bound the misaligned Custom tile edges.
	tileLo, tileHi int
}

func (c *runCtx) mixedSize() mixedSize {
	if c.tiny {
		return mixedSize{pes: 4, dim: 96, problems: 4, setups: 1, tileLo: 9, tileHi: 24}
	}
	return mixedSize{pes: 4, dim: 512, problems: 12, setups: 5, tileLo: 48, tileHi: 128}
}

// operandSpec is one drawn layout of an operand.
type operandSpec struct {
	part distmat.Partition
	repl int
}

// mixedProblem is one drawn C = A·B layout with its stationary strategy.
type mixedProblem struct {
	a, b, c operandSpec
	stat    universal.Stationary
}

func (p mixedProblem) String() string {
	f := func(o operandSpec) string { return fmt.Sprintf("%s/r%d", partName(o.part), o.repl) }
	return fmt.Sprintf("A=%s B=%s C=%s %v", f(p.a), f(p.b), f(p.c), p.stat)
}

func partName(p distmat.Partition) string {
	if c, ok := p.(distmat.Custom); ok {
		return fmt.Sprintf("custom%dx%d@%dx%d", c.TileRows, c.TileCols, c.ProcRows, c.ProcCols)
	}
	return p.Name()
}

// balanced returns n values that cycle through choices evenly, in seeded
// order.
func balanced[T any](rng *rand.Rand, n int, choices []T) []T {
	out := make([]T, n)
	for i := range out {
		out[i] = choices[i%len(choices)]
	}
	rng.Shuffle(n, func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// drawMixed builds the mix. Which partitioning kind (row, column, 2-D
// block, misaligned Custom), replication factor and stationary strategy
// each problem uses is a fixed design: every operand takes each kind and
// both factors equally often, each kind with each factor, and the
// strategies cycle A, B, C. The seed draws each Custom tiling's tile
// edges (around evenly spread base edges in [tileLo, tileHi]) and process
// grid. Fixing the pairing keeps the plan sizes every seed runs alike,
// so seed-to-seed spread measures the system, not the draw.
func drawMixed(rng *rand.Rand, sz mixedSize) []mixedProblem {
	n := sz.problems
	customs := 0
	edgeOf := func() int {
		// Base edges for the 3n/4 Custom operands, spread over the range,
		// jittered by up to an eighth of it.
		span := sz.tileHi - sz.tileLo
		base := sz.tileLo + customs*span/max(1, 3*n/4-1)
		customs++
		jit := span / 8
		return min(sz.tileHi, max(sz.tileLo, base-jit+rng.Intn(2*jit+1)))
	}
	operand := func(kind, repl int) operandSpec {
		slots := sz.pes / repl
		switch kind {
		case 0:
			return operandSpec{distmat.RowBlock{}, repl}
		case 1:
			return operandSpec{distmat.ColBlock{}, repl}
		case 2:
			return operandSpec{distmat.Block2D{}, repl}
		}
		var grids [][2]int
		for pr := 1; pr <= slots; pr++ {
			if slots%pr == 0 {
				grids = append(grids, [2]int{pr, slots / pr})
			}
		}
		g := grids[rng.Intn(len(grids))]
		rows := edgeOf()
		return operandSpec{distmat.Custom{TileRows: rows, TileCols: edgeOf(), ProcRows: g[0], ProcCols: g[1]}, repl}
	}
	stats := []universal.Stationary{universal.StationaryA, universal.StationaryB, universal.StationaryC}
	out := make([]mixedProblem, n)
	for i := range out {
		out[i] = mixedProblem{
			a:    operand(i%4, 1+(i%4+i/4)%2),
			b:    operand((i+1+i/4)%4, 1+(i/2)%2),
			c:    operand((i+2+2*(i/4))%4, 1+((i+1)/2)%2),
			stat: stats[i%3],
		}
	}
	return out
}

// setupMixed builds one world with every drawn problem allocated, filled
// and planned.
func setupMixed(sz mixedSize, mix []mixedProblem, srcA, srcB *tile.Matrix) (*execSet, error) {
	w := shmem.NewWorld(sz.pes)
	plans := universal.PlansOf(w)
	pool := gpusim.NewPool()
	set := &execSet{w: w}
	for _, mp := range mix {
		a := distmat.New(w, sz.dim, sz.dim, mp.a.part, mp.a.repl)
		b := distmat.New(w, sz.dim, sz.dim, mp.b.part, mp.b.repl)
		c := distmat.New(w, sz.dim, sz.dim, mp.c.part, mp.c.repl)
		set.probs = append(set.probs, universal.NewProblem(c, a, b))
		cfg := universal.DefaultConfig()
		cfg.Stationary, cfg.Plans, cfg.Pool = mp.stat, plans, pool
		set.cfgs = append(set.cfgs, cfg)
	}
	errs := make([]error, sz.pes)
	w.Run(func(pe rt.PE) {
		for i, p := range set.probs {
			p.A.ScatterFrom(pe, srcA)
			p.B.ScatterFrom(pe, srcB)
			// Warm-up: compiles the plan into the world's cache and fills
			// the buffer pool.
			if _, err := universal.Multiply(pe, p.C, p.A, p.B, set.cfgs[i]); err != nil && errs[pe.Rank()] == nil {
				errs[pe.Rank()] = err
			}
		}
	})
	for _, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("warm-up multiply: %w", err)
		}
	}
	for i, p := range set.probs {
		cp, ok := plans.Get(universal.PlanKeyOf(p, set.cfgs[i]))
		if !ok {
			return nil, fmt.Errorf("problem %d: plan not cached after warm-up", i)
		}
		set.cps = append(set.cps, cp)
	}
	return set, nil
}

// mixedRunner times and checks the multiplies of one fixture.
type mixedRunner struct {
	set     *execSet
	ref     *tile.Matrix
	got     *tile.Matrix
	order   []int
	next    int
	res     *result
	corrupt bool
}

// phase runs multiplies round-robin over the seeded problem order for d
// and returns their latency and throughput figures. Every result is
// checked against the reference product; a wrong or failed multiply
// counts as failed.
func (r *mixedRunner) phase(d time.Duration, tr *tracer) opStats {
	set := r.set
	errs := make([]error, set.w.NumPE())
	var lats []float64
	start := time.Now()
	for time.Since(start) < d {
		i := r.order[r.next%len(r.order)]
		req := int64(r.next)
		r.next++
		p, cfg := set.probs[i], set.cfgs[i]
		root := tr.begin("bench.multiply", -1, req, 0)
		run := tr.begin("shmem.World.Run", root, req, 0)
		t0 := time.Now()
		set.w.Run(func(pe rt.PE) {
			sp := tr.begin("universal.Multiply", run, req, 1+pe.Rank())
			_, errs[pe.Rank()] = universal.Multiply(pe, p.C, p.A, p.B, cfg)
			tr.end(sp)
		})
		lat := time.Since(t0)
		tr.end(run)
		r.res.attempted++
		failed := false
		for _, err := range errs {
			failed = failed || err != nil
		}
		vs := tr.begin("bench.verify", root, req, 0)
		if r.corrupt {
			corruptHost(set.w, p.C)
			r.corrupt = false
		}
		readHost(set.w, p.C, 0, r.got)
		if !r.got.AllClose(r.ref, 1e-4) {
			r.res.wrong++
			failed = true
		}
		tr.end(vs)
		tr.end(root)
		if failed {
			r.res.failed++
		}
		lats = append(lats, ms(lat))
	}
	// Throughput is over the time spent multiplying; the checks between
	// multiplies are not the system's work. A window is ten passes through
	// the problems.
	return latencyStats(lats, 10*len(r.order))
}

func runMixed(ctx *runCtx) (*result, *tracer, error) {
	sz := ctx.mixedSize()
	rng := rand.New(rand.NewSource(ctx.seed))
	mix := drawMixed(rng, sz)
	srcA, srcB := tile.New(sz.dim, sz.dim), tile.New(sz.dim, sz.dim)
	srcA.FillRandom(rng)
	srcB.FillRandom(rng)
	order := rng.Perm(len(mix))

	setupS, set, err := medianSetup(sz.setups, nil, func() (*execSet, error) { return setupMixed(sz, mix, srcA, srcB) })
	if err != nil {
		return nil, nil, err
	}

	// Reference: every problem's gathered A and B must equal the source
	// exactly, so one naive product checks every problem's C.
	gathered := make([][2]*tile.Matrix, len(set.probs))
	set.w.Run(func(pe rt.PE) {
		if pe.Rank() != 0 {
			return
		}
		for i, p := range set.probs {
			gathered[i] = [2]*tile.Matrix{p.A.Gather(pe, 0), p.B.Gather(pe, 0)}
		}
	})
	for i, g := range gathered {
		if !g[0].Equal(srcA) || !g[1].Equal(srcB) {
			return nil, nil, fmt.Errorf("problem %d (%v): gathered operands differ from their source", i, mix[i])
		}
	}
	ref := tile.New(sz.dim, sz.dim)
	tile.GemmNaive(ref, srcA, srcB)

	res := newResult()
	r := &mixedRunner{set: set, ref: ref, got: tile.New(sz.dim, sz.dim), order: order, res: res, corrupt: ctx.corrupt}
	flopsPerOp := tile.Flops(sz.dim, sz.dim, sz.dim)
	r.phase(ctx.warmup(), nil)
	if !ctx.trace {
		st := r.phase(ctx.phase(1), nil)
		res.setE2E(setupS, st)
		res.finish()
		return res, nil, nil
	}

	plain := r.phase(ctx.phase(0.5), nil)
	res.setE2E(setupS, plain)
	cache := set.cfgs[0].Plans
	cache0, builds0 := cache.Stats(), universal.PlanBuildCount()
	tr := newTracer()
	traced := r.phase(ctx.phase(0.5), tr)
	cache1, builds1 := cache.Stats(), universal.PlanBuildCount()

	L := res.layer
	L["bench.trace_overhead_pct"] = traceOverhead(plain, traced)
	L["bench.useful_gflops"] = plain.perSec * flopsPerOp / 1e9
	L["universal.plan_builds"] = float64(builds1-builds0) / float64(traced.ops)
	L["universal.plancache_hit_pct"] = hitPct(cache0, cache1)
	L["universal.plan_steps"] = float64(set.steps()) / float64(len(set.probs))

	L["universal.compile_ms_p50"] = compileProbe(set, 3, tr)

	layerProbes(set, float64(len(set.probs)), probeBudget(ctx), L)
	finishKernelRatios(L, plain, set.w.NumPE())
	res.finish()
	return res, tr, nil
}
