// Command perfbench is the repository's benchmark. It runs one seeded
// workload against the library's public packages, checks every output it
// times, and prints one JSON result line:
//
//	go run . -workload mixed-partitions -seed 1 -seconds 20 -trace 0
//
// With -trace 0 the result holds the end-to-end metrics; with -trace 1 it
// holds the per-layer metrics of a traced run, and the run also writes a
// Chrome trace-event file and a self-time table next to its result file
// in -out. README.md explains each workload and metric.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"slicing/internal/tile"
)

// runCtx carries one run's settings to a workload.
type runCtx struct {
	seed    int64
	seconds float64
	trace   bool
	// tiny shrinks every workload to a smoke-test size.
	tiny bool
	// corrupt perturbs the first output a workload checks, so tests can
	// prove a wrong result is counted as failed.
	corrupt bool
}

// phase returns the length of a timed phase that takes share of the run.
func (c *runCtx) phase(share float64) time.Duration {
	return time.Duration(share * c.seconds * float64(time.Second))
}

// warmup is how long a real-execution workload runs untimed before its
// first timed phase, so heap growth, goroutine stacks and pooled buffers
// settle first.
func (c *runCtx) warmup() time.Duration {
	if c.tiny {
		return 50 * time.Millisecond
	}
	return time.Second
}

// workloads maps each workload name to its implementation.
var workloads = map[string]func(*runCtx) (*result, *tracer, error){
	"mixed-partitions": runMixed,
	"serve-small":      runServe,
	"plan-price":       runPrice,
}

// envRecord identifies the machine and build a result came from, so
// results from different hosts or kernel dispatches are never compared as
// like for like.
type envRecord struct {
	Seed       int64  `json:"seed"`
	CPUModel   string `json:"cpu_model"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Kernel     string `json:"kernel"`
	// StealPct is the share of CPU time the hypervisor gave to other
	// guests during the run (Linux /proc/stat), a sign of a noisy host.
	StealPct float64 `json:"steal_pct"`
}

func currentEnv(seed int64) envRecord {
	return envRecord{
		Seed: seed, CPUModel: cpuModel(), NProc: runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Kernel: tile.KernelName(),
	}
}

// cpuTicks returns the steal and total tick counters of /proc/stat's
// aggregate cpu line, zeros where it cannot be read.
func cpuTicks() (steal, total float64) {
	buf, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(buf), "\n")
	fields := strings.Fields(line)
	for i, f := range fields[1:] {
		var v float64
		if _, err := fmt.Sscan(f, &v); err != nil {
			return 0, 0
		}
		total += v
		if i == 7 {
			steal = v
		}
	}
	return steal, total
}

// cpuModel reads the CPU model name on Linux and falls back to the
// architecture elsewhere.
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// summarize selects the end-to-end or per-layer metrics of res.
func summarize(res *result, traced bool) summary {
	defs, vals := endToEnd, res.e2e
	if traced {
		defs, vals = perLayer, res.layer
	}
	s := summary{
		Correct:   res.wrong == 0,
		Attempted: res.attempted,
		Failed:    res.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		s.Metrics[d.name] = metricValue{Value: vals[d.name], Unit: d.unit}
	}
	return s
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: mixed-partitions, serve-small or plan-price")
	seed := fs.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 20, "length of the timed measurement in seconds (1-60)")
	traceFlag := fs.Int("trace", 0, "1 runs the traced measurement and prints per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for result and trace files")
	if err := fs.Parse(args); err != nil {
		return err
	}
	wl, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 0.1 || *seconds > 60 {
		return fmt.Errorf("-seconds %g outside [0.1, 60]", *seconds)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	ctx := &runCtx{seed: *seed, seconds: *seconds, trace: *traceFlag == 1}

	// Every workload bounds its own phases; the watchdog only turns a hang
	// into a failed run well inside the three-minute budget of a run.
	watchdog := time.AfterFunc(time.Duration(*seconds)*time.Second+120*time.Second, func() {
		fmt.Fprintln(stderr, "perfbench: run exceeded its time budget")
		os.Exit(2)
	})
	defer watchdog.Stop()

	env := currentEnv(*seed)
	fmt.Fprintf(stderr, "perfbench: %s seed=%d cpu=%q nproc=%d gomaxprocs=%d go=%s kernel=%s\n",
		*name, env.Seed, env.CPUModel, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Kernel)
	steal0, total0 := cpuTicks()
	res, tr, err := wl(ctx)
	if err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if steal1, total1 := cpuTicks(); total1 > total0 {
		env.StealPct = 100 * (steal1 - steal0) / (total1 - total0)
	}
	fmt.Fprintf(stderr, "perfbench: cpu steal during the run %.1f%%\n", env.StealPct)
	sum := summarize(res, ctx.trace)
	if err := writeFiles(*out, *name, env, ctx.trace, res, tr); err != nil {
		return err
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// writeFiles writes the run's result file and, for a traced run, its
// Chrome trace and self-time table. Each (workload, trace mode) keeps
// only its latest files, so repeated runs do not accumulate output.
func writeFiles(dir, name string, env envRecord, traced bool, res *result, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	mode := "e2e"
	if traced {
		mode = "layers"
	}
	base := filepath.Join(dir, name+"."+mode)
	doc := struct {
		Env       envRecord          `json:"env"`
		Workload  string             `json:"workload"`
		Attempted int64              `json:"attempted"`
		Failed    int64              `json:"failed"`
		Wrong     int64              `json:"wrong"`
		EndToEnd  map[string]float64 `json:"end_to_end"`
		PerLayer  map[string]float64 `json:"per_layer,omitempty"`
	}{env, name, res.attempted, res.failed, res.wrong, res.e2e, nil}
	if traced {
		doc.PerLayer = res.layer
	}
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".json", append(buf, '\n'), 0o644); err != nil {
		return err
	}
	if !traced || tr == nil {
		return nil
	}
	return errors.Join(
		writeWith(base+".trace.json", tr.writeChrome),
		writeWith(base+".selftime.txt", tr.writeSelfTable),
	)
}

func writeWith(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
