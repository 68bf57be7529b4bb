package main

import (
	"sort"
	"time"
)

// quantile returns the q-quantile of sorted by linear interpolation
// between closest ranks; 0 for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// median returns the median of xs without reordering it.
func median(xs []float64) float64 { return percentile(xs, 0.5) }

// latencyStats summarizes per-operation latencies in milliseconds, in
// issue order. Every win consecutive operations form a window (for the
// closed-loop workloads, whole passes through the mix), and the figures
// come from the quietest quarter of the windows: p50 and p90 are the
// lower quartiles of the windows' own p50 and p90, perSec the upper
// quartile of their operations per second of latency. On a shared host
// the other guests' bursts of CPU steal move a minority of windows, and
// this view of the run repeats where whole-run figures do not (README.md,
// "Noise"). p99 is over the whole run. With fewer than four windows the
// whole run is one window.
func latencyStats(latMs []float64, win int) opStats {
	st := opStats{ops: len(latMs)}
	if len(latMs) == 0 {
		return st
	}
	st.p99Ms = percentile(latMs, 0.99)
	n := len(latMs) / max(win, 1)
	if n < 4 {
		n, win = 1, len(latMs)
	}
	p50s, p90s, rates := make([]float64, n), make([]float64, n), make([]float64, n)
	for i := range p50s {
		w := append([]float64(nil), latMs[i*win:(i+1)*win]...)
		sort.Float64s(w)
		p50s[i], p90s[i] = quantile(w, 0.5), quantile(w, 0.9)
		var sum float64
		for _, l := range w {
			sum += l
		}
		rates[i] = 1e3 * float64(len(w)) / sum
	}
	st.p50Ms, st.p90Ms, st.perSec = percentile(p50s, 0.25), percentile(p90s, 0.25), percentile(rates, 0.75)
	return st
}

// percentile returns the q-quantile of xs without reordering it.
func percentile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, q)
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// medianSetup runs setup n times and returns the median duration in
// seconds together with the last fixture built. Each earlier fixture is
// passed to release, when non-nil, before the next one is built.
func medianSetup[F any](n int, release func(F), setup func() (F, error)) (float64, F, error) {
	var f F
	times := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		if i > 0 && release != nil {
			release(f)
		}
		t0 := time.Now()
		var err error
		if f, err = setup(); err != nil {
			return 0, f, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), f, nil
}
