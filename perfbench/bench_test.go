package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"testing"
	"time"

	"repro/internal/exp"
	"repro/internal/workload"
)

// tinyOpts is a harness small enough for unit tests.
func tinyOpts() exp.Options {
	o := exp.QuickOptions()
	o.IterScale = 0.05
	o.MaxCTAs = 16
	return o
}

func tinyFig11(t *testing.T) fig11Params {
	t.Helper()
	o := tinyOpts()
	o.Workloads = workload.Table()[:2]
	want := exp.RenderGolden(exp.Figure11(exp.NewRunner(o)))
	return fig11Params{opts: o, want: want}
}

func tinyServe(mixed bool) serveParams {
	p := defaultServe(mixed)
	p.opts = tinyOpts()
	p.workloads = workload.Table()[:3]
	p.sizeMin, p.sizeMax, p.freshSize, p.shapes = 1, 2, 2, 2
	p.setups = 1
	p.warmup = 100 * time.Millisecond
	return p
}

func tinyEnv(t *testing.T, traced bool) env {
	e := env{seed: 7, dur: 300 * time.Millisecond, traced: traced, par: 2, work: t.TempDir(), log: io.Discard}
	if traced {
		e.tr = newTracer()
	}
	return e
}

// TestMetricTablesMatchBenchmarkJSON keeps the names and units the
// program emits in step with the declaration the benchmark is run by.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type def struct{ Name, Unit string }
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	same := func(label string, got []def, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program %d", label, len(got), len(want))
			return
		}
		for i := range want {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", label, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd)
	same("per_layer", doc.PerLayer, perLayer)
	for _, w := range doc.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("BENCHMARK.json workload %s is not one the program runs", w.Name)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload at minimal size,
// untraced and traced, and checks that the result is correct and
// carries every declared metric with its unit.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	runs := map[string]func(env) (outcome, error){
		"fig11-cold":  func(e env) (outcome, error) { return fig11Cold(e, tinyFig11(t)) },
		"serve-warm":  func(e env) (outcome, error) { return serve(e, tinyServe(false)) },
		"serve-mixed": func(e env) (outcome, error) { return serve(e, tinyServe(true)) },
	}
	for name, drive := range runs {
		for _, traced := range []bool{false, true} {
			o, err := drive(tinyEnv(t, traced))
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			rep, err := buildReport(o, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, traced, rep.Correct, rep.Attempted, rep.Failed)
			}
			defs := endToEnd
			if traced {
				defs = perLayer
			}
			if len(rep.Metrics) != len(defs) {
				t.Errorf("%s traced=%v: %d metrics, want %d", name, traced, len(rep.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := rep.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %s", name, traced, d.name, m, d.unit)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestCorruptResultCountsAsFailure flips one byte of one result and
// expects the run to report it as a failed operation.
func TestCorruptResultCountsAsFailure(t *testing.T) {
	flip := func(b []byte) { b[len(b)/2] ^= 0x01 }

	p := tinyFig11(t)
	p.corrupt = flip
	o, err := fig11Cold(tinyEnv(t, false), p)
	if err != nil {
		t.Fatal(err)
	}
	if rep, _ := buildReport(o, false); rep.Failed == 0 || rep.Correct {
		t.Errorf("fig11-cold with a corrupt rendering: correct=%v failed=%d", rep.Correct, rep.Failed)
	}

	for _, mixed := range []bool{false, true} {
		sp := tinyServe(mixed)
		sp.corrupt = flip
		o, err := serve(tinyEnv(t, false), sp)
		if err != nil {
			t.Fatal(err)
		}
		if rep, _ := buildReport(o, false); rep.Failed == 0 || rep.Correct {
			t.Errorf("serve mixed=%v with one corrupt result: correct=%v failed=%d", mixed, rep.Correct, rep.Failed)
		}
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	tr := newTracer()
	ms := time.Millisecond
	root := tr.reserve()
	tr.add("core.run", 1*ms, 3*ms, root, "j", 1)
	tr.add("core.run", 2*ms, 5*ms, root, "j", 2)
	tr.add("core.build", 7*ms, 8*ms, root, "j", 1)
	tr.fill(root, "exp.run", 0, 10*ms, 0, "j", 0)
	got := tr.selfTimes()
	if got["exp"] != 5*ms || got["core"] != 6*ms {
		t.Errorf("self times %v, want exp 5ms, core 6ms", got)
	}
}

// TestRunOutsideRepositoryFails checks that the program refuses to run
// without the repository around it and prints no result.
func TestRunOutsideRepositoryFails(t *testing.T) {
	var out bytes.Buffer
	code := run([]string{"-workload", "fig11-cold", "-seconds", "1", "-out", t.TempDir()}, &out, io.Discard)
	if code == 0 || out.Len() != 0 {
		t.Errorf("exit %d, stdout %q: want a failure and no output", code, out.String())
	}
	if code := run([]string{"-workload", "nope"}, &out, io.Discard); code != 2 {
		t.Errorf("unknown workload: exit %d, want 2", code)
	}
}
