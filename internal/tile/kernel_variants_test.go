package tile

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
	"testing/quick"
)

// forceKernel switches the dispatched variant for a test and restores it
// on cleanup.
func forceKernel(t *testing.T, name string) {
	t.Helper()
	prev, err := SetKernel(name)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { SetKernel(prev) })
}

// Every dispatched variant — not just the one this machine would pick —
// must agree with the naive oracle on shapes that straddle its own
// blocking boundaries (mr, nr, kc, mc ± 1), primes, degenerate vectors,
// and empties.
func TestKernelVariantsMatchNaiveOddShapes(t *testing.T) {
	for _, name := range KernelVariants() {
		t.Run(name, func(t *testing.T) {
			forceKernel(t, name)
			kn := activeKern
			rng := rand.New(rand.NewSource(44))
			shapes := [][3]int{
				{1, 1, 1}, {1, 1, 64}, {1, 64, 1}, {64, 1, 1},
				{kn.mr - 1, 10, kn.nr - 1}, {kn.mr + 1, 10, kn.nr + 1},
				{kn.mr, kn.kc, kn.nr}, // exactly one interior register tile
				{2 * kn.mr, 2 * kn.kc, 2 * kn.nr},
				{kn.mc - 1, kn.kc - 1, kn.nr*3 - 1},
				{kn.mc + 1, kn.kc + 1, kn.nr*3 + 1},
				{3*kn.mr + 2, 2*kn.kc + 5, 3*kn.nr + 7},
				{97, 101, 103}, {31, 127, 61}, // primes
				{0, 5, 5}, {5, 0, 5}, {5, 5, 0},
			}
			for _, s := range shapes {
				m, k, n := s[0], s[1], s[2]
				a := randomMatrix(rng, m, k)
				b := randomMatrix(rng, k, n)
				want := New(m, n)
				GemmNaive(want, a, b)
				got := New(m, n)
				GemmPacked(got, a, b)
				if !got.AllClose(want, 1e-3) {
					t.Fatalf("%s mismatch for %dx%dx%d: maxdiff %v",
						name, m, k, n, got.MaxAbsDiff(want))
				}
			}
		})
	}
}

// Property: every variant handles random strided sub-views of larger
// buffers (A, B, and C all strided) and accumulates into C rather than
// overwriting it — the direct-into-C interior path must respect both.
func TestKernelVariantsPropertyStridedViews(t *testing.T) {
	for _, name := range KernelVariants() {
		t.Run(name, func(t *testing.T) {
			forceKernel(t, name)
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				m, k, n := 1+r.Intn(60), 1+r.Intn(60), 1+r.Intn(60)
				bigA := randomMatrix(r, m+r.Intn(5), k+r.Intn(5))
				bigB := randomMatrix(r, k+r.Intn(5), n+r.Intn(5))
				bigC := randomMatrix(r, m+r.Intn(5), n+r.Intn(5))
				a := bigA.View(bigA.Rows-m, bigA.Cols-k, m, k)
				b := bigB.View(bigB.Rows-k, bigB.Cols-n, k, n)
				c := bigC.View(bigC.Rows-m, bigC.Cols-n, m, n)
				want := c.Clone()
				GemmNaive(want, a.Clone(), b.Clone())
				GemmPacked(c, a, b)
				return c.AllClose(want, 1e-3)
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
				t.Error(err)
			}
		})
	}
}

// The shared-pack parallel path must agree with the oracle for every
// variant and worker count, including strided views and shapes that don't
// divide the blocking.
func TestGemmParallelSharedPackMatchesNaive(t *testing.T) {
	for _, name := range KernelVariants() {
		t.Run(name, func(t *testing.T) {
			forceKernel(t, name)
			rng := rand.New(rand.NewSource(45))
			for _, workers := range []int{2, 3, 5, 8} {
				for _, s := range [][3]int{{64, 64, 64}, {97, 101, 103}, {300, 257, 129}, {512, 96, 512}} {
					m, k, n := s[0], s[1], s[2]
					big := randomMatrix(rng, m+3, n+2)
					c := big.View(1, 1, m, n)
					a := randomMatrix(rng, m, k)
					b := randomMatrix(rng, k, n)
					want := c.Clone()
					GemmNaive(want, a, b)
					GemmParallel(c, a, b, workers)
					if !c.AllClose(want, 1e-3) {
						t.Fatalf("%s workers=%d mismatch for %dx%dx%d: maxdiff %v",
							name, workers, m, k, n, c.MaxAbsDiff(want))
					}
				}
			}
		})
	}
}

// The whole point of the shared-pack path: each (pc, jc) B panel is
// packed exactly once, no matter how many workers run — the row-band
// path packed it once per worker.
func TestGemmParallelPacksEachBPanelOnce(t *testing.T) {
	kn := activeKern
	m := 4 * kn.mc
	k := 2*kn.kc + 7
	n := kn.nr*5 + 3
	rng := rand.New(rand.NewSource(46))
	a := randomMatrix(rng, m, k)
	b := randomMatrix(rng, k, n)
	wantPanels := int64(((n + kn.nc - 1) / kn.nc) * ((k + kn.kc - 1) / kn.kc))
	for _, workers := range []int{2, 4, 8} {
		c := New(m, n)
		before := packBPanels.Load()
		GemmParallel(c, a, b, workers)
		got := packBPanels.Load() - before
		if got != wantPanels {
			t.Fatalf("workers=%d packed %d B panels, want %d (independent of workers)",
				workers, got, wantPanels)
		}
	}
	// The row-band baseline re-packs per band: with enough rows per band
	// to clear the fallback, the count must scale with the worker count.
	c := New(m, n)
	before := packBPanels.Load()
	gemmParallelRowBands(c, a, b, 4)
	got := packBPanels.Load() - before
	if got != 4*wantPanels {
		t.Fatalf("row-band baseline packed %d B panels, want %d (4 workers x %d panels)",
			got, 4*wantPanels, wantPanels)
	}
}

// The shared-pack parallel path must allocate nothing in the steady state:
// crew goroutines are pooled, state and scratch come from sync.Pools, and
// fan-out bookkeeping is a cursor plus a WaitGroup.
func TestGemmParallelSteadyStateAllocFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates and sync.Pool sheds items; alloc counts only meaningful without -race")
	}
	rng := rand.New(rand.NewSource(47))
	a := randomMatrix(rng, 256, 256)
	b := randomMatrix(rng, 256, 256)
	c := New(256, 256)
	GemmParallel(c, a, b, 4) // warm crew, state pool, and scratch pool
	allocs := testing.AllocsPerRun(10, func() {
		GemmParallel(c, a, b, 4)
	})
	if allocs > 0 {
		t.Fatalf("GemmParallel allocates %v objects per call in steady state, want 0", allocs)
	}
}

// Regression guard for the phase-admission protocol: a pull that straddles
// a phase transition (claimed from one phase's cursor, checked against the
// next phase's window) must be rejected, not admitted into the wider next
// phase — admission would run a unit twice (double-accumulating into C)
// and over-signal the WaitGroup. Hammer transitions with many small calls
// from concurrent goroutines at oversubscribed worker counts, so crew
// wake-ups routinely arrive after their phase (or call) has closed.
func TestGemmParallelPhaseTransitionStress(t *testing.T) {
	iters := 400
	if testing.Short() || raceEnabled {
		iters = 50
	}
	const m, k, n = 70, 70, 70 // just above the serial-fallback threshold
	done := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func(seed int64) {
			rng := rand.New(rand.NewSource(seed))
			a := randomMatrix(rng, m, k)
			b := randomMatrix(rng, k, n)
			want := New(m, n)
			GemmNaive(want, a, b)
			got := New(m, n)
			for i := 0; i < iters; i++ {
				clear(got.Data)
				GemmParallel(got, a, b, 64)
				if !got.AllClose(want, 1e-4) {
					done <- fmt.Errorf("seed %d iter %d: GemmParallel mismatch: maxdiff %v",
						seed, i, got.MaxAbsDiff(want))
					return
				}
			}
			done <- nil
		}(int64(49 + g))
	}
	for g := 0; g < 8; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
}

// TestKernelDispatchSmoke logs which micro-kernel the runtime dispatch
// selected and which are available — CI runs it with -v on every push so
// the selected ISA on the runner is visible in the log.
func TestKernelDispatchSmoke(t *testing.T) {
	t.Logf("GOARCH=%s GOMAXPROCS=%d", runtime.GOARCH, runtime.GOMAXPROCS(0))
	t.Logf("selected kernel: %s", KernelDescription())
	t.Logf("available variants: %v", KernelVariants())
	found := false
	for _, v := range KernelVariants() {
		if v == KernelName() {
			found = true
		}
	}
	if !found {
		t.Fatalf("selected kernel %q not among available variants %v", KernelName(), KernelVariants())
	}
}

func TestSetKernelUnknownRejected(t *testing.T) {
	prev := KernelName()
	if _, err := SetKernel("mmx"); err == nil {
		t.Fatal("SetKernel(\"mmx\") should fail")
	}
	if KernelName() != prev {
		t.Fatalf("failed SetKernel changed the active kernel: %s -> %s", prev, KernelName())
	}
}

// benchGemmParallel reports GFLOP/s and packed-B panel counts for the
// parallel paths at 512³, the satellite comparison showing the shared-pack
// rebuild removed the per-worker B re-packing.
func benchGemmParallel(b *testing.B, workers int, impl func(c, a, bm *Matrix, workers int)) {
	rng := rand.New(rand.NewSource(48))
	a := randomMatrix(rng, 512, 512)
	bm := randomMatrix(rng, 512, 512)
	c := New(512, 512)
	impl(c, a, bm, workers) // warm pools and crew
	flops := Flops(512, 512, 512)
	packsBefore := packBPanels.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		impl(c, a, bm, workers)
	}
	b.StopTimer()
	b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOP/s")
	b.ReportMetric(float64(packBPanels.Load()-packsBefore)/float64(b.N), "Bpacks/op")
}

func BenchmarkGemmParallelSharedPack4(b *testing.B) { benchGemmParallel(b, 4, GemmParallel) }
func BenchmarkGemmParallelRowBands4(b *testing.B)   { benchGemmParallel(b, 4, gemmParallelRowBands) }

// gemmParallelRowBands is the earlier row-band parallel path, kept in a
// test file as the benchmark baseline that shows the shared-pack win:
// every band re-packs all of B, so its packB panel count scales with the
// worker count.
func gemmParallelRowBands(c, a, b *Matrix, workers int) {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	m := a.Rows
	if workers > m {
		workers = m
	}
	if workers <= 1 || m*a.Cols*b.Cols < 64*64*64 {
		Gemm(c, a, b)
		return
	}
	var wg sync.WaitGroup
	chunk := (m + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, m)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			cv := c.View(lo, 0, hi-lo, c.Cols)
			av := a.View(lo, 0, hi-lo, a.Cols)
			Gemm(cv, av, b)
		}(lo, hi)
	}
	wg.Wait()
}
