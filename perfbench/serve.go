package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/serve"
	"slicing/internal/shmem"
	"slicing/internal/tile"
	"slicing/internal/universal"
)

// serveSize fixes the serve-small workload.
type serveSize struct {
	pes     int
	dims    []int // the hot set: one square shape per entry
	tenants int
	// rate is the open-loop offered load in requests per second. It is a
	// constant well below the knee of the drain curve, never derived from
	// a measured capacity.
	rate  float64
	batch int
	// perShape result matrices exist per shape; a request holds one from
	// issue to completion, so they bound the requests in flight.
	perShape int
	// backlog is the number of requests one drain round submits at once.
	backlog     int
	setups      int
	sampleEvery int // one result in sampleEvery is checked
}

func (c *runCtx) serveSize() serveSize {
	if c.tiny {
		return serveSize{pes: 4, dims: []int{8, 16}, tenants: 4, rate: 2000, batch: 16,
			perShape: 64, backlog: 64, setups: 1, sampleEvery: 2}
	}
	return serveSize{pes: 4, dims: []int{16, 32, 48, 64}, tenants: 4, rate: 6000, batch: 64,
		perShape: 512, backlog: 2048, setups: 5, sampleEvery: 8}
}

// serveFixture is one world with its server, operands and result pools.
type serveFixture struct {
	w       *shmem.World
	srv     *serve.Server
	cfg     universal.Config
	a, b    []*distmat.Matrix
	ref     []*tile.Matrix
	free    []chan *distmat.Matrix
	tenants []string
}

func setupServe(sz serveSize, seed int64) (*serveFixture, error) {
	w := shmem.NewWorld(sz.pes)
	part := distmat.Block2D{}
	fx := &serveFixture{w: w, cfg: universal.Config{Plans: universal.PlansOf(w), Pool: gpusim.NewPool()}}
	for t := 0; t < sz.tenants; t++ {
		fx.tenants = append(fx.tenants, fmt.Sprintf("tenant-%d", t))
	}
	for _, d := range sz.dims {
		fx.a = append(fx.a, distmat.New(w, d, d, part, 1))
		fx.b = append(fx.b, distmat.New(w, d, d, part, 1))
		free := make(chan *distmat.Matrix, sz.perShape)
		for i := 0; i < sz.perShape; i++ {
			free <- distmat.New(w, d, d, part, 1)
		}
		fx.free = append(fx.free, free)
		fx.ref = append(fx.ref, tile.New(d, d))
	}
	gathered := make([][2]*tile.Matrix, len(sz.dims))
	w.Run(func(pe rt.PE) {
		for s := range sz.dims {
			fx.a[s].FillRandom(pe, seed+int64(2*s))
			fx.b[s].FillRandom(pe, seed+int64(2*s+1))
			if pe.Rank() == 0 {
				gathered[s] = [2]*tile.Matrix{fx.a[s].Gather(pe, 0), fx.b[s].Gather(pe, 0)}
			}
		}
	})
	for s, g := range gathered {
		tile.GemmNaive(fx.ref[s], g[0], g[1])
	}
	fx.srv = serve.NewServer(w, serve.Config{Queue: sz.backlog, Batch: sz.batch, Exec: fx.cfg})
	// Warm-up: every shape once per tenant compiles the hot set's plans;
	// then one drain round fills the buffer pools.
	for s := range sz.dims {
		for _, tn := range fx.tenants {
			c := <-fx.free[s]
			_, err := fx.srv.Multiply(context.Background(), tn, c, fx.a[s], fx.b[s])
			fx.free[s] <- c
			if err != nil {
				fx.srv.Close()
				return nil, fmt.Errorf("warm-up request: %w", err)
			}
		}
	}
	r := &serveRunner{fx: fx, sz: sz, rng: rand.New(rand.NewSource(seed))}
	r.drainRound(nil)
	if n := r.failed.Load(); n > 0 {
		fx.srv.Close()
		return nil, fmt.Errorf("warm-up drain: %d requests failed", n)
	}
	return fx, nil
}

// serveRunner issues, times and checks requests against one fixture.
type serveRunner struct {
	fx  *serveFixture
	sz  serveSize
	rng *rand.Rand // the driver goroutine's seeded draws

	wg                       sync.WaitGroup
	attempted, failed, wrong atomic.Int64
	corrupt                  atomic.Bool
}

// request is one in-flight call: the result matrix it holds and when it
// was due.
type request struct {
	id     int64
	shape  int
	tenant int
	c      *distmat.Matrix
	check  bool
	due    time.Time
	lat    *float64 // where the latency from due time is stored, or nil
}

// issue runs one request to completion on its own goroutine.
func (r *serveRunner) issue(q request, tr *tracer) {
	r.attempted.Add(1)
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		fx := r.fx
		sp := tr.begin("serve.Server.Multiply", -1, q.id, 100+q.tenant)
		_, err := fx.srv.Multiply(context.Background(), fx.tenants[q.tenant], q.c, fx.a[q.shape], fx.b[q.shape])
		tr.end(sp)
		if q.lat != nil {
			*q.lat = ms(time.Since(q.due))
		}
		switch {
		case err != nil: // rejected, shed or failed: the server counts which
			r.failed.Add(1)
		case q.check:
			vs := tr.begin("bench.verify", sp, q.id, 100+q.tenant)
			if r.corrupt.CompareAndSwap(true, false) {
				corruptHost(fx.w, q.c)
			}
			got := tile.New(q.c.Rows(), q.c.Cols())
			readHost(fx.w, q.c, 0, got)
			if !got.AllClose(fx.ref[q.shape], 1e-4) {
				r.wrong.Add(1)
				r.failed.Add(1)
			}
			tr.end(vs)
		}
		fx.free[q.shape] <- q.c
	}()
}

// openLoop offers Poisson arrivals at the fixed rate for d from the
// calling (driver) goroutine and returns the latency figures, each
// request timed from its due time, plus how late the generator issued
// requests (p99, ms).
func (r *serveRunner) openLoop(d time.Duration, tr *tracer) (opStats, float64) {
	limit := int(r.sz.rate*d.Seconds()*1.5) + 100
	lats := make([]float64, limit)
	var lags []float64
	start := time.Now()
	due := time.Duration(0)
	n := 0
	for n < limit {
		due += time.Duration(r.rng.ExpFloat64() / r.sz.rate * float64(time.Second))
		if due >= d {
			break
		}
		if wait := due - time.Since(start); wait > 0 {
			time.Sleep(wait)
		}
		q := request{
			id: int64(n), shape: r.rng.Intn(len(r.sz.dims)), tenant: r.rng.Intn(r.sz.tenants),
			check: r.rng.Intn(r.sz.sampleEvery) == 0, due: start.Add(due), lat: &lats[n],
		}
		q.c = <-r.fx.free[q.shape]
		lags = append(lags, ms(time.Since(start)-due))
		r.issue(q, tr)
		n++
	}
	r.wg.Wait()
	st := latencyStats(lats[:n], 1000)
	sort.Float64s(lags)
	return st, quantile(lags, 0.99)
}

// drainRound submits one seeded backlog, all due at once, with equal
// counts per shape, and returns its completions per second.
func (r *serveRunner) drainRound(tr *tracer) float64 {
	shapes := balanced(r.rng, r.sz.backlog, seq(len(r.sz.dims)))
	t0 := time.Now()
	for i, s := range shapes {
		q := request{
			id: int64(i), shape: s, tenant: i % r.sz.tenants,
			check: r.rng.Intn(r.sz.sampleEvery) == 0, due: t0,
		}
		q.c = <-r.fx.free[s]
		r.issue(q, tr)
	}
	r.wg.Wait()
	return float64(len(shapes)) / time.Since(t0).Seconds()
}

// drain runs drain rounds for d (at least three) and returns the upper
// quartile of their completions per second (see latencyStats).
func (r *serveRunner) drain(d time.Duration, tr *tracer) float64 {
	var rps []float64
	t0 := time.Now()
	for len(rps) < 3 || time.Since(t0) < d {
		rps = append(rps, r.drainRound(tr))
	}
	return percentile(rps, 0.75)
}

// servePhase is one open-loop phase followed by one drain phase.
type servePhase struct {
	open   opStats
	lagP99 float64
	before serve.Stats
	mid    serve.Stats // between the open-loop and the drain phase
	after  serve.Stats
}

func (r *serveRunner) phase(d time.Duration, tr *tracer) servePhase {
	var p servePhase
	p.before = r.fx.srv.Stats()
	p.open, p.lagP99 = r.openLoop(d*3/4, tr)
	p.mid = r.fx.srv.Stats()
	// The drain rate replaces open-loop throughput, which only echoes the
	// offered rate.
	p.open.perSec = r.drain(d/4, tr)
	p.after = r.fx.srv.Stats()
	return p
}

func runServe(ctx *runCtx) (*result, *tracer, error) {
	sz := ctx.serveSize()
	setupS, fx, err := medianSetup(sz.setups, func(f *serveFixture) { f.srv.Close() },
		func() (*serveFixture, error) { return setupServe(sz, ctx.seed) })
	if err != nil {
		return nil, nil, err
	}
	r := &serveRunner{fx: fx, sz: sz, rng: rand.New(rand.NewSource(ctx.seed + 1))}
	r.corrupt.Store(ctx.corrupt)
	res := newResult()
	collect := func() {
		res.attempted, res.failed, res.wrong = r.attempted.Load(), r.failed.Load(), r.wrong.Load()
		res.finish()
	}
	r.openLoop(ctx.warmup(), nil)
	if !ctx.trace {
		p := r.phase(ctx.phase(1), nil)
		fx.srv.Close()
		res.setE2E(setupS, p.open)
		collect()
		return res, nil, nil
	}

	plain := r.phase(ctx.phase(0.5), nil)
	res.setE2E(setupS, plain.open)
	builds0 := universal.PlanBuildCount()
	tr := newTracer()
	traced := r.phase(ctx.phase(0.5), tr)
	builds1 := universal.PlanBuildCount()
	fx.srv.Close()

	L := res.layer
	L["bench.trace_overhead_pct"] = traceOverhead(plain.open, traced.open)
	L["bench.generator_lag_ms_p99"] = plain.lagP99
	served := traced.after.Served - traced.before.Served
	L["universal.plan_builds"] = float64(builds1-builds0) / float64(max(served, 1))
	L["universal.plancache_hit_pct"] = hitPct(traced.before.PlanCache, traced.after.PlanCache)
	if b := plain.after.Batches - plain.mid.Batches; b > 0 {
		L["serve.avg_batch"] = float64(plain.after.BatchedRequests-plain.mid.BatchedRequests) / float64(b)
	}
	var qs float64
	var qn int64
	for name, t := range plain.mid.Tenants {
		qs += t.QueueSeconds - plain.before.Tenants[name].QueueSeconds
		qn += t.Served - plain.before.Tenants[name].Served
	}
	if qn > 0 {
		L["serve.queue_wait_ms_mean"] = 1e3 * qs / float64(qn)
	}
	end := traced.after
	L["serve.rejected"] = float64(end.Rejected)
	L["serve.failed"] = float64(end.Failed)
	L["serve.shed"] = float64(end.Shed)

	// The probes run on the world directly, now that the server is closed.
	set := &execSet{w: fx.w}
	var flops float64
	for s, d := range sz.dims {
		c := <-fx.free[s]
		fx.free[s] <- c
		p := universal.NewProblem(c, fx.a[s], fx.b[s])
		cp, ok := fx.cfg.Plans.Get(universal.PlanKeyOf(p, fx.cfg))
		if !ok {
			return nil, nil, fmt.Errorf("shape %d³: plan not cached after serving", d)
		}
		set.probs, set.cfgs, set.cps = append(set.probs, p), append(set.cfgs, fx.cfg), append(set.cps, cp)
		flops += tile.Flops(d, d, d)
	}
	perOp := float64(len(sz.dims))
	L["bench.useful_gflops"] = plain.open.perSec * flops / perOp / 1e9
	L["universal.plan_steps"] = float64(set.steps()) / perOp
	L["universal.compile_ms_p50"] = compileProbe(set, 20, tr)
	layerProbes(set, perOp, probeBudget(ctx), L)
	finishKernelRatios(L, plain.open, sz.pes)

	nb := max(1, int(math.Round(L["serve.avg_batch"])))
	batchS := batchProbe(fx, sz, nb, probeBudget(ctx)/6)
	L["universal.batch_ms"] = batchS * 1e3
	if batchS > 0 {
		L["serve.over_batch_pct"] = 100 * plain.open.perSec / (float64(nb) / batchS)
	}
	collect()
	return res, tr, nil
}

// batchProbe times universal.ExecuteCompiledBatch alone over nb hot-set
// requests, in the serving loop's collective shape (zero every result,
// barrier, execute, barrier), and returns the median seconds per batch.
// It keeps the result matrices it takes: the fixture is not served again.
// nb never exceeds the server's batch size, which the pools cover.
func batchProbe(fx *serveFixture, sz serveSize, nb int, budget time.Duration) float64 {
	var probs []universal.Problem
	var cps []*universal.CompiledPlan
	for i := 0; i < nb; i++ {
		s := i % len(sz.dims)
		p := universal.NewProblem(<-fx.free[s], fx.a[s], fx.b[s])
		cp, _ := fx.cfg.Plans.Get(universal.PlanKeyOf(p, fx.cfg))
		probs, cps = append(probs, p), append(cps, cp)
	}
	pass := func() float64 {
		t0 := time.Now()
		fx.w.Run(func(pe rt.PE) {
			for _, p := range probs {
				for _, idx := range p.C.OwnedTiles(pe.Rank()) {
					p.C.Tile(pe, idx, distmat.LocalReplica).Zero()
				}
			}
			pe.Barrier()
			_ = universal.ExecuteCompiledBatch(pe, probs, cps, fx.cfg) // fault-free world
			pe.Barrier()
		})
		return time.Since(t0).Seconds()
	}
	pass()
	var walls []float64
	t0 := time.Now()
	for len(walls) < 5 || time.Since(t0) < budget {
		walls = append(walls, pass())
	}
	return median(walls)
}

// seq returns 0..n-1.
func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}
