package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// maxSpans caps the spans one traced run keeps, so the in-memory buffer
// and the trace file stay bounded on the high-rate serving workload;
// spans past the cap are counted, not kept.
const maxSpans = 200_000

// span is one timed call from the benchmark into a layer's public API.
type span struct {
	name       string
	start, end time.Duration // since the tracer's origin
	parent     int32         // index of the enclosing span, -1 for a root
	req        int64         // the operation (request) the span belongs to
	lane       int           // 0 for the driver, 1+rank for PE goroutines
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	origin  time.Time
	mu      sync.Mutex
	spans   []span
	dropped int64
}

// newTracer returns a tracer whose buffer already holds maxSpans, so
// recording never copies a grown buffer while holding the lock.
func newTracer() *tracer {
	return &tracer{origin: time.Now(), spans: make([]span, 0, maxSpans)}
}

// begin opens a span and returns its id, -1 when nothing is recorded.
func (t *tracer) begin(name string, parent int32, req int64, lane int) int32 {
	if t == nil {
		return -1
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return -1
	}
	t.spans = append(t.spans, span{name: name, start: now, end: now, parent: parent, req: req, lane: lane})
	return int32(len(t.spans) - 1)
}

// end closes span id; ids of -1 are ignored.
func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// durations returns the durations in milliseconds of every span named
// name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, ms(s.end-s.start))
		}
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events, microsecond timestamps), loadable in chrome://tracing or
// Perfetto.
func (t *tracer) writeChrome(w io.Writer) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	bw := bufio.NewWriter(w)
	if _, err := io.WriteString(bw, `{"displayTimeUnit":"ms","traceEvents":[`); err != nil {
		return err
	}
	enc := json.NewEncoder(bw)
	for i, s := range t.spans {
		if i > 0 {
			if err := bw.WriteByte(','); err != nil {
				return err
			}
		}
		ev := event{
			Name: s.name, Cat: layerOf(s.name), Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: s.lane,
			Args: map[string]any{"id": i, "parent": s.parent, "req": s.req},
		}
		if err := enc.Encode(ev); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(bw, `],"otherData":{"dropped_spans":%d}}`+"\n", t.dropped); err != nil {
		return err
	}
	return bw.Flush()
}

// layerOf is the package prefix of a span name ("universal.Multiply" →
// "universal").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i > 0 {
		return name[:i]
	}
	return name
}

// selfRow is one line of the self-time table.
type selfRow struct {
	name            string
	count           int
	totalMs, selfMs float64
}

// selfTimes computes, per span name, the total duration and the self
// time: each span's duration minus the part of its interval covered by
// its child spans (the union of the children's intervals, so concurrent
// children on several PEs are not double-counted).
func (t *tracer) selfTimes() []selfRow {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := make(map[int32][]int32)
	for i, s := range t.spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], int32(i))
		}
	}
	rows := map[string]*selfRow{}
	for i, s := range t.spans {
		r := rows[s.name]
		if r == nil {
			r = &selfRow{name: s.name}
			rows[s.name] = r
		}
		dur := s.end - s.start
		r.count++
		r.totalMs += ms(dur)
		r.selfMs += ms(dur - covered(t.spans, s, children[int32(i)]))
	}
	out := make([]selfRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].selfMs > out[j].selfMs })
	return out
}

// covered returns how much of parent's interval the union of the given
// child spans covers.
func covered(spans []span, parent span, kids []int32) time.Duration {
	type iv struct{ a, b time.Duration }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		a, b := max(spans[k].start, parent.start), min(spans[k].end, parent.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total time.Duration
	var curA, curB time.Duration
	open := false
	for _, v := range ivs {
		if open && v.a <= curB {
			curB = max(curB, v.b)
			continue
		}
		if open {
			total += curB - curA
		}
		curA, curB, open = v.a, v.b, true
	}
	if open {
		total += curB - curA
	}
	return total
}

// writeSelfTable writes the self-time table, one row per span name and
// one per layer, as aligned text.
func (t *tracer) writeSelfTable(w io.Writer) error {
	rows := t.selfTimes()
	var all float64
	layers := map[string]float64{}
	for _, r := range rows {
		all += r.selfMs
		layers[layerOf(r.name)] += r.selfMs
	}
	pct := func(v float64) float64 {
		if all == 0 {
			return 0
		}
		return 100 * v / all
	}
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%-40s %9s %12s %12s %7s\n", "span", "count", "total_ms", "self_ms", "self_%")
	for _, r := range rows {
		fmt.Fprintf(bw, "%-40s %9d %12.3f %12.3f %7.2f\n", r.name, r.count, r.totalMs, r.selfMs, pct(r.selfMs))
	}
	names := make([]string, 0, len(layers))
	for l := range layers {
		names = append(names, l)
	}
	sort.Slice(names, func(i, j int) bool { return layers[names[i]] > layers[names[j]] })
	fmt.Fprintf(bw, "\n%-40s %12s %7s\n", "layer", "self_ms", "self_%")
	for _, l := range names {
		fmt.Fprintf(bw, "%-40s %12.3f %7.2f\n", l, layers[l], pct(layers[l]))
	}
	if t.dropped > 0 {
		fmt.Fprintf(bw, "\n%d spans past the %d-span cap were not kept\n", t.dropped, maxSpans)
	}
	return bw.Flush()
}
