package main

import (
	"math"
	"math/rand"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/fabric"
	"slicing/internal/gpusim"
	"slicing/internal/modelworld"
	"slicing/internal/universal"
)

// priceSize fixes the plan-price workload.
type priceSize struct {
	nodes  []int // fat-tree node counts; 8 PEs per node
	dim    int   // m, n and k are drawn within 10% of dim
	setups int
	maxOps int // bound on a point's estimated local op count
}

func (c *runCtx) priceSize() priceSize {
	if c.tiny {
		return priceSize{nodes: []int{2}, dim: 1024, setups: 1, maxOps: 64}
	}
	return priceSize{nodes: []int{4, 8, 16}, dim: 16384, setups: 3, maxOps: 8192}
}

// pricePoint is one cluster configuration to plan and price.
type pricePoint struct {
	nodes, rails int
	oversub      float64
	a, b, c      operandSpec
	stat         universal.Stationary
}

// drawPoints lays out the grid and draws the problem shape. The grid is
// fixed: every (A, B, C) combination of row, column and 2-D block
// partitionings, at replication 1 and 2, on every node count, less the
// points whose estimated local op count exceeds sz.maxOps (layouts that
// split m, n and k all finely at once reach 500k plan steps and seconds
// per point). Stationary strategies, rail counts and oversubscription
// cycle along the grid. The seed draws m, n and k, each within 10% of
// sz.dim, and the order points are priced in (runPrice): the shape moves
// every tile bound and transfer size but not the plans' step counts. (At
// 25% the shape alone moved op_ms_p50 by about 13% between seeds.)
func drawPoints(rng *rand.Rand, sz priceSize) (pts []pricePoint, shape mnk) {
	dim := func() int { return sz.dim*9/10 + rng.Intn(sz.dim/5+1) }
	shape = mnk{dim(), dim(), dim()}
	parts := []distmat.Partition{distmat.RowBlock{}, distmat.ColBlock{}, distmat.Block2D{}}
	stats := []universal.Stationary{universal.StationaryA, universal.StationaryB, universal.StationaryC}
	rails := []int{1, 2, 4, 8}
	for _, nodes := range sz.nodes {
		for _, repl := range []int{1, 2} {
			for _, pa := range parts {
				for _, pb := range parts {
					for _, pc := range parts {
						pt := pricePoint{nodes: nodes, a: operandSpec{pa, repl}, b: operandSpec{pb, repl}, c: operandSpec{pc, repl}}
						if estimatedOps(8*nodes, pt) > sz.maxOps {
							continue
						}
						i := len(pts)
						pt.stat = stats[i%len(stats)]
						pt.rails = rails[i%len(rails)]
						pt.oversub = 1
						if pt.rails > 1 && (i/len(rails))%2 == 1 {
							pt.oversub = 2
						}
						pts = append(pts, pt)
					}
				}
			}
		}
	}
	return pts, shape
}

// mnk is a problem shape: C is m×n, A m×k, B k×n.
type mnk struct{ m, n, k int }

// estimatedOps estimates a point's local op count on p PEs: the product
// of how finely the operands split m, n and k (row, column or 2-D block
// over p/replication slots).
func estimatedOps(p int, pt pricePoint) int {
	splits := func(o operandSpec) (rows, cols int) {
		slots := p / o.repl
		switch o.part.(type) {
		case distmat.RowBlock:
			return slots, 1
		case distmat.ColBlock:
			return 1, slots
		}
		return distmat.NearSquareFactors(slots)
	}
	ar, ac := splits(pt.a)
	br, bc := splits(pt.b)
	cr, cc := splits(pt.c)
	return max(ar, cr) * max(bc, cc) * max(ac, br)
}

// priced is one point's evaluation.
type priced struct {
	res   universal.SimResult
	steps int
	simS  float64
	prob  universal.Problem
	cfg   universal.Config
	sys   universal.SimSystem
}

// evalPoint plans and prices one point from scratch: build the fabric,
// lay the operands out on a model world, run the slicing pass, and replay
// the compiled plan through x.
func evalPoint(pt pricePoint, sh mnk, x *universal.ModelExecutor, tr *tracer, req int64) priced {
	root := tr.begin("bench.point", -1, req, 0)
	defer tr.end(root)
	sp := tr.begin("fabric.H100FatTree", root, req, 0)
	fab := fabric.H100FatTree(pt.nodes, pt.rails, pt.oversub)
	tr.end(sp)
	sys := universal.SimSystem{Topo: fab.Topology(), Dev: gpusim.PresetH100Device()}

	sp = tr.begin("distmat.New", root, req, 0)
	w := modelworld.NewWorld(sys.Topo.NumPE())
	a := distmat.New(w, sh.m, sh.k, pt.a.part, pt.a.repl)
	b := distmat.New(w, sh.k, sh.n, pt.b.part, pt.b.repl)
	c := distmat.New(w, sh.m, sh.n, pt.c.part, pt.c.repl)
	tr.end(sp)
	prob := universal.NewProblem(c, a, b)
	cfg := universal.DefaultConfig()
	cfg.Stationary = pt.stat

	sp = tr.begin("universal.CompilePlans", root, req, 0)
	cp := universal.CompilePlans(prob, cfg)
	tr.end(sp)

	sp = tr.begin("universal.ModelExecutor.Simulate", root, req, 0)
	t0 := time.Now()
	res := x.Simulate(prob, cp, cfg, sys)
	simS := time.Since(t0).Seconds()
	tr.end(sp)
	return priced{res: res, steps: cp.Steps(), simS: simS, prob: prob, cfg: cfg, sys: sys}
}

// samePrediction reports whether two evaluations agree bit for bit.
func samePrediction(x, y universal.SimResult) bool {
	return math.Float64bits(x.Makespan) == math.Float64bits(y.Makespan) &&
		math.Float64bits(x.PercentOfPeak) == math.Float64bits(y.PercentOfPeak) &&
		math.Float64bits(x.AvgComputeUtil) == math.Float64bits(y.AvgComputeUtil) &&
		x.RemoteGetBytes == y.RemoteGetBytes && x.RemoteAccumBytes == y.RemoteAccumBytes &&
		x.Ops == y.Ops && x.Stationary == y.Stationary
}

// priceFixture holds the warm executor and each point's first prediction,
// the reference every later evaluation must reproduce exactly.
type priceFixture struct {
	x    *universal.ModelExecutor
	refs []priced
}

func setupPrice(pts []pricePoint, sh mnk) (*priceFixture, error) {
	fx := &priceFixture{x: universal.NewModelExecutor()}
	for i, pt := range pts {
		fx.refs = append(fx.refs, evalPoint(pt, sh, fx.x, nil, int64(i)))
	}
	return fx, nil
}

// priceRunner cycles over the points, timing and checking each.
type priceRunner struct {
	shape   mnk
	pts     []pricePoint
	fx      *priceFixture
	order   []int
	next    int
	res     *result
	corrupt bool
	// simOps and simS total the simulated ops and simulate time of the
	// last phase.
	simOps int
	simS   float64
	steps  int
}

func (r *priceRunner) phase(d time.Duration, tr *tracer) opStats {
	r.simOps, r.simS, r.steps = 0, 0, 0
	var lats []float64
	start := time.Now()
	for time.Since(start) < d {
		i := r.order[r.next%len(r.order)]
		req := int64(r.next)
		r.next++
		t0 := time.Now()
		got := evalPoint(r.pts[i], r.shape, r.fx.x, tr, req)
		lat := time.Since(t0)
		r.res.attempted++
		if r.corrupt {
			got.res.Makespan *= 1 + 1e-12
			r.corrupt = false
		}
		if !samePrediction(got.res, r.fx.refs[i].res) {
			r.res.wrong++
			r.res.failed++
		}
		r.simOps += got.res.Ops
		r.simS += got.simS
		r.steps += got.steps
		lats = append(lats, ms(lat))
	}
	return latencyStats(lats, len(r.order))
}

func runPrice(ctx *runCtx) (*result, *tracer, error) {
	sz := ctx.priceSize()
	rng := rand.New(rand.NewSource(ctx.seed))
	pts, shape := drawPoints(rng, sz)
	order := rng.Perm(len(pts))
	sample := rng.Intn(len(pts))
	setupS, fx, err := medianSetup(sz.setups, nil, func() (*priceFixture, error) { return setupPrice(pts, shape) })
	if err != nil {
		return nil, nil, err
	}
	res := newResult()

	// The sampled point's compiled-plan replay must agree with the
	// estimator's own plan-building path.
	ref := fx.refs[sample]
	direct := universal.SimulateMultiply(ref.prob, ref.cfg, ref.sys)
	res.attempted++
	if math.Abs(direct.Makespan-ref.res.Makespan) > 1e-9*math.Abs(ref.res.Makespan) {
		res.wrong++
		res.failed++
	}

	r := &priceRunner{shape: shape, pts: pts, fx: fx, order: order, res: res, corrupt: ctx.corrupt}
	if !ctx.trace {
		res.setE2E(setupS, r.phase(ctx.phase(1), nil))
		res.finish()
		return res, nil, nil
	}
	plain := r.phase(ctx.phase(0.5), nil)
	res.setE2E(setupS, plain)
	tr := newTracer()
	builds0 := universal.PlanBuildCount()
	traced := r.phase(ctx.phase(0.5), tr)
	builds1 := universal.PlanBuildCount()

	L := res.layer
	L["bench.trace_overhead_pct"] = traceOverhead(plain, traced)
	L["universal.compile_ms_p50"] = median(tr.durations("universal.CompilePlans"))
	L["universal.simulate_ms_p50"] = median(tr.durations("universal.ModelExecutor.Simulate"))
	L["fabric.build_ms"] = median(tr.durations("fabric.H100FatTree"))
	L["universal.plan_builds"] = float64(builds1-builds0) / float64(traced.ops)
	L["universal.plan_steps"] = float64(r.steps) / float64(traced.ops)
	if r.simS > 0 {
		L["gpusim.ops_per_s"] = float64(r.simOps) / r.simS
	}
	res.finish()
	return res, tr, nil
}
