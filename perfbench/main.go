// Command perfbench is the serving benchmark of this repository. It
// drives the real serving stack in process — serve.FrontEnd over a
// prepared core.Solver over the kernel, sparse, durable and spectral
// layers — with inputs generated from a seed before any timing, checks
// the answers, and prints one JSON result line last.
//
//	perfbench -workload query|ingest|restart -seed N -seconds S -trace 0|1 [-dir D]
//
// With -trace 0 it measures the end-to-end metrics untraced. With
// -trace 1 it runs the workload twice for S/2 seconds each — untraced,
// then traced through the solver and filesystem decorators — and
// reports the per-layer metrics of the traced pass, the tracing
// overhead (traced minus untraced medians), and writes the spans as
// JSON lines under D. run.sh builds it from source and runs it; see
// README.md for the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// e2eNames lists the end-to-end metrics every workload reports, with
// units; BENCHMARK.json's end_to_end section mirrors it.
var e2eNames = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"heap_live_mb", "MB"},
	{"solve_p50_ms", "ms"},
	{"topk_p50_ms", "ms"},
	{"main_p50_ms", "ms"},
	{"main_per_s", "1/s"},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type output struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload runs one pass; inputs are generated once per process and
// shared by both passes of a traced run.
type workload func(ps pass) (*result, error)

func workloadFor(name string, seed uint64) (workload, bool) {
	switch name {
	case "query":
		in := newQueryInputs(seed)
		return func(ps pass) (*result, error) { return runQuery(in, ps) }, true
	case "ingest":
		in := newIngestInputs(seed)
		return func(ps pass) (*result, error) { return runIngest(in, ps) }, true
	case "restart":
		in := newRestartInputs(seed)
		return func(ps pass) (*result, error) { return runRestart(in, ps) }, true
	}
	return nil, false
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "query | ingest | restart")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Float64("seconds", 10, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		dir     = flag.String("dir", filepath.Join(".bench_build", "perfbench"), "scratch directory for durable state and span files")
	)
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive and -trace 0 or 1")
		return 2
	}
	wl, ok := workloadFor(*name, uint64(*seed))
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want query, ingest or restart)\n", *name)
		return 2
	}
	runDir := filepath.Join(*dir, fmt.Sprintf("%s-%d-%d", *name, *seed, os.Getpid()))
	defer os.RemoveAll(runDir)

	out := output{Metrics: map[string]metric{}}
	var results []*result
	if *trace == 0 {
		r, err := wl(pass{seconds: *seconds, setups: 3, dir: runDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		results = append(results, r)
		for _, m := range e2eNames {
			out.Metrics[m.name] = metric{r.e2e[m.name], m.unit}
		}
	} else {
		plain, err := wl(pass{seconds: *seconds / 2, setups: 1, dir: runDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s untraced pass: %v\n", *name, err)
			return 1
		}
		t := newTracer()
		traced, err := wl(pass{seconds: *seconds / 2, setups: 1, t: t, dir: runDir})
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s traced pass: %v\n", *name, err)
			return 1
		}
		results = append(results, plain, traced)
		layers := layerMetrics(t.snapshot(), traced.nnz)
		layers["serve.shed"] = traced.shed
		layers["host.stream_gbps"] = streamGBps()
		layers["go.alloc_mb"] = mean(traced.rt.allocMB, traced.mainOps)
		layers["go.gc_cycles"] = traced.rt.gcCycles
		layers["go.gc_pause_ms"] = traced.rt.gcPauseMS
		layers["go.gc_cpu_frac"] = traced.rt.gcCPUFrac
		for _, m := range []string{"main_p50_ms", "solve_p50_ms", "topk_p50_ms"} {
			layers["trace.overhead_"+m] = traced.e2e[m] - plain.e2e[m]
		}
		spans := filepath.Join(*dir, fmt.Sprintf("spans-%s-%d.jsonl", *name, *seed))
		if err := t.write(spans); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			return 1
		}
		fmt.Printf("%s: %d spans written to %s\n", *name, len(t.snapshot()), spans)
		for _, m := range layerNames {
			out.Metrics[m.name] = metric{layers[m.name], m.unit}
		}
	}

	out.Correct = true
	for i, r := range results {
		if len(results) > 1 {
			fmt.Printf("%s %s pass:\n", *name, []string{"untraced", "traced"}[i])
		}
		for _, l := range r.lines {
			fmt.Printf("  %s %s\n", *name, l)
		}
		out.Attempted += r.attempted.Load()
		out.Failed += r.failed.Load()
		for j, p := range r.problems {
			if j == 10 {
				fmt.Fprintf(os.Stderr, "perfbench: ... %d more failed checks\n", len(r.problems)-j)
				break
			}
			fmt.Fprintf(os.Stderr, "perfbench: %s\n", p)
		}
	}
	if out.Attempted > 0 {
		fmt.Printf("  %s %s\n", *name, line{"fail_ratio", float64(out.Failed) / float64(out.Attempted), "ratio",
			fmt.Sprintf("%d of %d calls failed, were refused, or returned a wrong answer", out.Failed, out.Attempted)})
	}
	if *trace == 1 {
		for _, m := range layerNames {
			fmt.Printf("  %s %s\n", *name, line{m.name, out.Metrics[m.name].Value, m.unit, "traced"})
		}
	}
	for k, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s has no value (no samples)\n", k)
			out.Correct = false
			m.Value = 0
			out.Metrics[k] = m
		}
	}
	out.Correct = out.Correct && out.Failed == 0 && out.Attempted > 0
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(b))
	return 0
}
