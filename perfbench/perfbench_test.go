package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the part of ../BENCHMARK.json the tests cross-check.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func TestMetricListsMatchBenchmarkFile(t *testing.T) {
	buf, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(buf, &bf); err != nil {
		t.Fatal(err)
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(bf.Workloads), len(workloads))
	}
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	check := func(kind string, defs []metricDef, got []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}) {
		if len(defs) != len(got) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", kind, len(got), len(defs))
			return
		}
		for i, d := range defs {
			if got[i].Name != d.name || got[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark prints %s (%s)",
					kind, i, got[i].Name, got[i].Unit, d.name, d.unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
}

// TestSmokeEveryWorkload runs each workload at its tiny size, untraced and
// traced, and checks the result line carries every metric with its unit
// and no failures.
func TestSmokeEveryWorkload(t *testing.T) {
	for name, wl := range workloads {
		for _, traced := range []bool{false, true} {
			ctx := &runCtx{seed: 7, seconds: 0.4, trace: traced, tiny: true}
			res, tr, err := wl(ctx)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, traced, err)
			}
			sum := summarize(res, traced)
			if !sum.Correct || sum.Failed != 0 || sum.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", name, traced, sum.Correct, sum.Attempted, sum.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(sum.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, traced, len(sum.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := sum.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %g, want > 0", name, d.name, m.Value)
				}
			}
			dir := t.TempDir()
			if err := writeFiles(dir, name, currentEnv(ctx.seed), traced, res, tr); err != nil {
				t.Fatal(err)
			}
			if traced {
				for _, suffix := range []string{".trace.json", ".selftime.txt"} {
					if _, err := os.Stat(filepath.Join(dir, name+".layers"+suffix)); err != nil {
						t.Errorf("%s: %v", name, err)
					}
				}
			}
		}
	}
}

// TestCorruptedResultCountsAsFailed perturbs one checked output per
// workload and expects the run to report it as a failed operation.
func TestCorruptedResultCountsAsFailed(t *testing.T) {
	for name, wl := range workloads {
		res, _, err := wl(&runCtx{seed: 3, seconds: 0.3, tiny: true, corrupt: true})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.failed < 1 || res.wrong < 1 || res.layer["bench.failed_pct"] <= 0 {
			t.Errorf("%s: failed=%d wrong=%d failed_pct=%g after a corrupted result",
				name, res.failed, res.wrong, res.layer["bench.failed_pct"])
		}
		if summarize(res, false).Correct {
			t.Errorf("%s: summary reports correct after a corrupted result", name)
		}
	}
}

func TestRunPrintsOneResultLine(t *testing.T) {
	var out, errOut bytes.Buffer
	args := []string{"-workload", "plan-price", "-seed", "2", "-seconds", "0.2", "-out", t.TempDir()}
	// The full-size plan-price set-up takes seconds; bound the test.
	done := make(chan error, 1)
	go func() { done <- run(args, &out, &errOut) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v\n%s", err, errOut.String())
		}
	case <-time.After(2 * time.Minute):
		t.Fatal("run did not finish")
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not a result: %v", err)
	}
	if !sum.Correct || len(sum.Metrics) != len(endToEnd) {
		t.Errorf("result %+v", sum)
	}
	if !strings.Contains(errOut.String(), "kernel=") {
		t.Errorf("stderr lacks the environment record: %q", errOut.String())
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"-workload", "nope"},
		{"-workload", "plan-price", "-trace", "2"},
		{"-workload", "plan-price", "-seconds", "600"},
	} {
		var out bytes.Buffer
		if err := run(args, &out, &bytes.Buffer{}); err == nil {
			t.Errorf("run(%v) succeeded", args)
		}
		if out.Len() != 0 {
			t.Errorf("run(%v) printed %q", args, out.String())
		}
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	tr := newTracer()
	tr.spans = []span{
		{name: "bench.op", start: 0, end: 100, parent: -1},
		{name: "pe.work", start: 10, end: 50, parent: 0},
		{name: "pe.work", start: 30, end: 70, parent: 0},  // overlaps the first child
		{name: "pe.work", start: 90, end: 120, parent: 0}, // runs past the parent
	}
	rows := map[string]selfRow{}
	for _, r := range tr.selfTimes() {
		rows[r.name] = r
	}
	// Children cover [10,70) and [90,100): 70 of the parent's 100.
	if got, want := rows["bench.op"].selfMs, ms(30); got != want {
		t.Errorf("parent self time %g ms, want %g", got, want)
	}
	if got := rows["pe.work"].count; got != 3 {
		t.Errorf("child count %d, want 3", got)
	}
}
