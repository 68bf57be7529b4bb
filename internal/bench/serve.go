package bench

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"slicing/internal/distmat"
	"slicing/internal/gpusim"
	rt "slicing/internal/runtime"
	"slicing/internal/serve"
	"slicing/internal/shmem"
	"slicing/internal/universal"
)

// ServeOptions configures the serving-load measurement: many concurrent
// tenants issuing small same-shape GEMMs against one PE world — the
// steady-state regime the multiply-as-a-service layer exists for. The
// defaults are the committed BENCH_PR7 workload: 4 PEs, 16³ single-tile
// products, 128 closed-loop clients over 4 tenants, batches of 64.
type ServeOptions struct {
	// P is the PE count (default 4).
	P int
	// Dim is the square GEMM dimension m=n=k (default 16).
	Dim int
	// TileDim is the square tile dimension (default Dim: one tile per
	// matrix, the small-adapter serving shape).
	TileDim int
	// Workers is the number of concurrent closed-loop clients, each owning
	// its own result matrix (default 128).
	Workers int
	// Tenants is the number of tenant identities the workers cycle through
	// (default 4).
	Tenants int
	// PerWorker is the number of sequential requests each worker issues
	// (default 60).
	PerWorker int
	// Batch is the server's fused-batch size (default 64).
	Batch int
}

func (o ServeOptions) withDefaults() ServeOptions {
	if o.P <= 0 {
		o.P = 4
	}
	if o.Dim <= 0 {
		o.Dim = 16
	}
	if o.TileDim <= 0 {
		o.TileDim = o.Dim
	}
	if o.Workers <= 0 {
		o.Workers = 128
	}
	if o.Tenants <= 0 {
		o.Tenants = 4
	}
	if o.PerWorker <= 0 {
		o.PerWorker = 60
	}
	if o.Batch <= 0 {
		o.Batch = 64
	}
	return o
}

// ServeResult is one serving-load measurement.
type ServeResult struct {
	// Requests is the total number of multiplies measured.
	Requests int
	// RPS is completed requests per wall-clock second.
	RPS float64
	// P50Ms and P99Ms are request-latency percentiles in milliseconds
	// (enqueue to result for the served path; per-iteration wall time for
	// the naive loop).
	P50Ms, P99Ms float64
	// HitPct is the compiled-plan cache hit rate (0 for the naive loop).
	HitPct float64
	// AvgBatch is the realized fused-batch size (1 for the naive loop).
	AvgBatch float64
}

// serveFixture is the shared world and operand set both measurement modes
// run against.
type serveFixture struct {
	w  rt.World
	a  *distmat.Matrix
	b  *distmat.Matrix
	cs []*distmat.Matrix
}

func newServeFixture(o ServeOptions) *serveFixture {
	w := shmem.NewWorld(o.P)
	pr, pc := distmat.NearSquareFactors(o.P)
	part := distmat.Custom{TileRows: o.TileDim, TileCols: o.TileDim, ProcRows: pr, ProcCols: pc}
	f := &serveFixture{
		w: w,
		a: distmat.New(w, o.Dim, o.Dim, part, 1),
		b: distmat.New(w, o.Dim, o.Dim, part, 1),
	}
	f.cs = make([]*distmat.Matrix, o.Workers)
	for i := range f.cs {
		f.cs[i] = distmat.New(w, o.Dim, o.Dim, part, 1)
	}
	w.Run(func(pe rt.PE) {
		f.a.FillRandom(pe, 1)
		f.b.FillRandom(pe, 2)
	})
	return f
}

func percentiles(lat []time.Duration) (p50Ms, p99Ms float64) {
	if len(lat) == 0 {
		return 0, 0
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	at := func(q float64) float64 {
		return lat[int(q*float64(len(lat)-1))].Seconds() * 1e3
	}
	return at(0.50), at(0.99)
}

// RunServeLoad drives the multiply-as-a-service stack at the configured
// workload — concurrent tenants, compiled-plan cache, fused batching — and
// reports throughput and latency percentiles.
func RunServeLoad(o ServeOptions) ServeResult {
	o = o.withDefaults()
	f := newServeFixture(o)
	s := serve.NewServer(f.w, serve.Config{Batch: o.Batch, Queue: 2 * o.Workers * o.PerWorker})
	lats := make([][]time.Duration, o.Workers)
	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < o.Workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tn := fmt.Sprintf("tenant-%d", i%o.Tenants)
			lat := make([]time.Duration, 0, o.PerWorker)
			for j := 0; j < o.PerWorker; j++ {
				t0 := time.Now()
				if _, err := s.Multiply(context.Background(), tn, f.cs[i], f.a, f.b); err != nil {
					panic(fmt.Sprintf("bench: serve load request failed: %v", err))
				}
				lat = append(lat, time.Since(t0))
			}
			lats[i] = lat
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	st := s.Stats()
	s.Close()

	var all []time.Duration
	for _, l := range lats {
		all = append(all, l...)
	}
	res := ServeResult{
		Requests: len(all),
		RPS:      float64(len(all)) / elapsed,
		HitPct:   st.PlanCache.HitPct(),
	}
	res.P50Ms, res.P99Ms = percentiles(all)
	if st.Batches > 0 {
		res.AvgBatch = float64(st.BatchedRequests) / float64(st.Batches)
	}
	return res
}

// RunServeNaive measures the pre-serving baseline at the same workload: a
// sequential loop issuing one collective per request, each rebuilding its
// plans and fetch schedules from scratch with no cache (a fresh PlanCache
// and buffer pool per request, so the world's shared cache and pool are
// never consulted), no batching, and per-request synchronization. This is what sharing the
// world across tenants looked like before the serving layer existed
// (concurrent callers must serialize their collectives).
func RunServeNaive(o ServeOptions) ServeResult {
	o = o.withDefaults()
	f := newServeFixture(o)
	prob := universal.NewProblem(f.cs[0], f.a, f.b)
	n := o.Workers * o.PerWorker
	lat := make([]time.Duration, 0, n)
	start := time.Now()
	for i := 0; i < n; i++ {
		t0 := time.Now()
		cfg := universal.Config{Plans: universal.NewPlanCache(0), Pool: gpusim.NewPool()}
		f.w.Run(func(pe rt.PE) {
			f.cs[0].Zero(pe)
			universal.MultiplyAccumulate(pe, prob, cfg)
		})
		lat = append(lat, time.Since(t0))
	}
	elapsed := time.Since(start).Seconds()
	res := ServeResult{
		Requests: n,
		RPS:      float64(n) / elapsed,
		AvgBatch: 1,
	}
	res.P50Ms, res.P99Ms = percentiles(lat)
	return res
}
