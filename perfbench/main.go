// Command perfbench is the repository benchmark. It drives three
// workloads from one process through the public entry points of the
// simulator (core, workload, sim), the experiment harness (exp) and the
// serving tier (service), and prints one JSON result line:
//
//	go build -o perfbench . && ./perfbench -workload serve-mixed -seed 1 -seconds 40 -trace 0
//
// With -trace 0 the result carries the end-to-end metrics; with
// -trace 1 a separate, traced pass carries the per-layer metrics and a
// Chrome-trace file of the spans is written under -out. The program
// must run from the repository root, where it reads the committed fig11
// golden. README.md beside this file says why each workload exists and
// which layer metric should move which end-to-end metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. The tables below
// must match BENCHMARK.json; the self-test checks that they do.
type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"sweep_runs_per_s", "runs/s"},
	{"fidelity_err_pct", "%"},
	{"peak_rss_mb", "MB"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"first_run_p50_ms", "ms"},
	{"jobs_per_s", "jobs/s"},
}

var perLayer = []metricDef{
	{"workload.program_s", "s"},
	{"core.build_s", "s"},
	{"core.run_s", "s"},
	{"core.run_s.single", "s"},
	{"core.run_s.numa2", "s"},
	{"core.run_s.numa4", "s"},
	{"core.run_s.numa8", "s"},
	{"core.run_s.mono2", "s"},
	{"core.run_s.mono4", "s"},
	{"core.run_s.mono8", "s"},
	{"core.run_ms.max", "ms"},
	{"sim.events", "count"},
	{"core.ns_per_event", "ns"},
	{"core.events_per_access", "events/access"},
	{"core.ns_per_access", "ns"},
	{"core.allocs_per_access", "allocs/access"},
	{"core.alloc_mb", "MB"},
	{"sim.engine_ns_per_event", "ns"},
	{"exp.pool_idle_frac", "fraction"},
	{"exp.render_ms", "ms"},
	{"service.submit_ms", "ms"},
	{"service.queue_ms", "ms"},
	{"service.exec_ms", "ms"},
	{"service.result_ms", "ms"},
	{"service.events_per_job", "events/job"},
	{"service.journal_bytes_per_job", "B/job"},
	{"service.rejected", "count"},
	{"service.diskcache_get_us", "us"},
	{"service.diskcache_put_us", "us"},
	{"exp.plan_ms", "ms"},
	{"exp.delta_hits", "count"},
	{"exp.coalesced_keys", "count"},
	{"exp.cache_hits", "count"},
	{"exp.simulations", "count"},
	{"exp.new_key_frac", "fraction"},
	{"fabric.first_remote_ms", "ms"},
	{"fabric.shards", "count"},
	{"fabric.worker_simulations", "count"},
	{"fabric.requeued", "count"},
	{"fabric.stale_results", "count"},
	{"trace.overhead_pct", "%"},
	{"bench.self_s", "s"},
	{"exp.self_s", "s"},
	{"workload.self_s", "s"},
	{"core.self_s", "s"},
	{"service.self_s", "s"},
}

// workloads maps each -workload name to the function that runs it.
var workloads = map[string]func(env) (outcome, error){
	"fig11-cold":  func(e env) (outcome, error) { return fig11Cold(e, defaultFig11()) },
	"serve-warm":  func(e env) (outcome, error) { return serve(e, defaultServe(false)) },
	"serve-mixed": func(e env) (outcome, error) { return serve(e, defaultServe(true)) },
}

// env is what every workload function receives from the command line.
type env struct {
	seed   int64
	dur    time.Duration // how long the measured phase runs
	traced bool
	par    int    // clients, connections and simulation slots: nproc
	work   string // scratch directory for cache and state directories
	tr     *tracer
	log    io.Writer // notes for the reader of a run, never parsed
}

// outcome is a workload's verdict. e2e is filled by untraced runs and
// layer by traced runs; a metric a traced workload leaves unset reads 0,
// meaning that layer does no work on that workload.
type outcome struct {
	attempted, failed int
	correct           bool
	e2e               map[string]float64
	layer             map[string]float64
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "fig11-cold | serve-warm | serve-mixed")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 20, "length of the measured phase")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for scratch state and trace files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	drive, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) || fs.NArg() != 0 {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	if _, err := os.Stat(fig11GoldenPath); err != nil {
		fmt.Fprintf(stderr, "perfbench: run from the repository root: %v\n", err)
		return 2
	}
	work := filepath.Join(*out, "work")
	if err := os.MkdirAll(work, 0o755); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	host := fingerprint(".")
	hostJSON, _ := json.Marshal(host)
	fmt.Fprintf(stdout, "host %s\n", hostJSON)

	e := env{
		seed:   *seed,
		dur:    time.Duration(*seconds) * time.Second,
		traced: *trace == 1,
		par:    runtime.NumCPU(),
		work:   work,
		log:    stdout,
	}
	if e.traced {
		e.tr = newTracer()
	}
	o, err := drive(e)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if e.traced {
		path := filepath.Join(*out, fmt.Sprintf("trace-%s-seed%d.json", *name, *seed))
		if err := writeTrace(path, e.tr, host, *name, *seed); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "trace %s (%d spans)\n", path, e.tr.len())
	}
	rep, err := buildReport(o, e.traced)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", line)
	return 0
}

// buildReport checks that the workload produced exactly the declared
// metric set for its mode and attaches the units.
func buildReport(o outcome, traced bool) (report, error) {
	defs, got := endToEnd, o.e2e
	if traced {
		defs, got = perLayer, o.layer
	}
	rep := report{Correct: o.correct && o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: map[string]metricOut{}}
	if rep.Attempted < 1 {
		return rep, errors.New("no operation was attempted")
	}
	for _, d := range defs {
		v, ok := got[d.name]
		if !ok && !traced {
			return rep, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	for k := range got {
		if _, ok := rep.Metrics[k]; !ok {
			return rep, fmt.Errorf("metric %s is not declared", k)
		}
	}
	return rep, nil
}

// sortedDurations returns ds sorted ascending, leaving ds untouched.
func sortedDurations(ds []time.Duration) []time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s
}

// quantile is the nearest-rank q-quantile (0 < q ≤ 1) of an ascending
// slice, or 0 for an empty one.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func median(ds []time.Duration) time.Duration { return quantile(sortedDurations(ds), 0.5) }

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// tail reports the fixed tail quantile q of ds and notes how many
// samples lie beyond it; the metric is only meaningful with at least
// ten, which each workload's run length is chosen to give.
func tail(log io.Writer, label string, ds []time.Duration, q float64) time.Duration {
	s := sortedDurations(ds)
	v := quantile(s, q)
	beyond := 0
	for _, d := range s {
		if d > v {
			beyond++
		}
	}
	fmt.Fprintf(log, "tail %s p%g over %d samples, %d beyond it\n", label, q*100, len(s), beyond)
	return v
}

// settle returns freed heap to the OS so that a workload's peak RSS is
// not inherited from its set-up.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}
