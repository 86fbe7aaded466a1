package exp

import (
	"bytes"
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/obs"
	"repro/internal/workload"
)

// TestRunKeyIgnoresObs pins the Obs policy exemption in
// TestRunKeyCoversEveryConfigField: enabling any observability option
// must not change the run key, or observed runs would fork the shared
// cache namespace for byte-identical results.
func TestRunKeyIgnoresObs(t *testing.T) {
	r := NewRunner(tinyOptions())
	spec := r.opts.Workloads[0]
	base := r.Base(2)
	k0 := r.RunKey(base, spec)
	withObs := base
	withObs.Obs = arch.ObsSpec{Series: true, Trace: true, SamplePeriod: 100, MaxSamples: 8, MaxTraceEvents: 16}
	if k := r.RunKey(withObs, spec); k != k0 {
		t.Fatalf("Obs leaked into the run key:\n%q\nvs\n%q", k, k0)
	}
}

// TestObsForcesLocalSimulation pins the dispatch contract for observed
// runs: the Backend must never be consulted (a remote result has no
// series to flush), the run simulates locally, and the sink fires with
// a populated collector.
func TestObsForcesLocalSimulation(t *testing.T) {
	b := &fakeBackend{mode: "fail"} // would fail the run if consulted
	o := tinyOptions()
	o.Obs = arch.ObsSpec{Series: true, SamplePeriod: 500}
	var sunk []*obs.Collector
	o.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
		sunk = append(sunk, col)
	}
	o.Backend = b
	r := NewRunner(o)
	spec := r.opts.Workloads[0]
	res := r.Run(r.Base(2), spec)

	if b.callCount() != 0 {
		t.Fatalf("observed run reached the backend %d times, want 0", b.callCount())
	}
	if st := r.Stats(); st.Simulations != 1 {
		t.Fatalf("stats = %+v, want exactly one local simulation", st)
	}
	if len(sunk) != 1 || sunk[0] == nil {
		t.Fatalf("ObsSink calls = %d (nil-free: %v), want 1 populated collector", len(sunk), sunk)
	}
	var samples int
	for _, s := range sunk[0].Series() {
		samples += s.Len()
	}
	if samples == 0 {
		t.Fatal("collector reached the sink with no samples")
	}

	plain := NewRunner(tinyOptions())
	if want := plain.Run(plain.Base(2), spec); !reflect.DeepEqual(res, want) {
		t.Fatalf("observed result differs from plain local run:\n%+v\nvs\n%+v", res, want)
	}
}

// TestObsSkipsWarmCache pins the cache layering for observed runs: a
// warm second-level cache entry must NOT short-circuit the simulation
// (it has no series), the re-simulated result must equal the cached
// one, and the run still writes back through the cache.
func TestObsSkipsWarmCache(t *testing.T) {
	cache := newMapCache()
	plain := NewRunner(cachedOptions(cache))
	spec := plain.opts.Workloads[0]
	want := plain.Run(plain.Base(2), spec)

	o := cachedOptions(cache)
	o.Obs = arch.ObsSpec{Series: true, SamplePeriod: 500}
	sunk := 0
	o.ObsSink = func(string, workload.Spec, *obs.Collector) { sunk++ }
	r := NewRunner(o)
	got := r.Run(r.Base(2), spec)

	if st := r.Stats(); st.Simulations != 1 || st.CacheHits != 0 {
		t.Fatalf("observed run must simulate despite a warm cache: %+v", st)
	}
	if sunk != 1 {
		t.Fatalf("ObsSink calls = %d, want 1", sunk)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("observed result differs from cached result:\n%+v\nvs\n%+v", got, want)
	}
	if cache.gets != 1 || cache.puts != 2 {
		t.Fatalf("cache traffic gets=%d puts=%d, want gets=1 (plain only) puts=2 (both write back)", cache.gets, cache.puts)
	}
}

// obsBytes runs every tinyOptions workload observed (series + trace) at
// the given parallelism and returns the flushed bytes per run key.
func obsBytes(t *testing.T, parallelism int) map[string][]byte {
	t.Helper()
	o := tinyOptions()
	o.Parallelism = parallelism
	o.Obs = arch.ObsSpec{Series: true, Trace: true, SamplePeriod: 500}
	out := make(map[string][]byte)
	var mu sync.Mutex
	o.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
		var buf bytes.Buffer
		if err := col.WriteSeriesCSV(&buf); err != nil {
			t.Errorf("WriteSeriesCSV(%s): %v", spec.Name, err)
		}
		if err := col.WriteTrace(&buf); err != nil {
			t.Errorf("WriteTrace(%s): %v", spec.Name, err)
		}
		mu.Lock()
		defer mu.Unlock()
		if _, dup := out[key]; dup {
			t.Errorf("ObsSink fired twice for key %q", key)
		}
		out[key] = append([]byte(nil), buf.Bytes()...)
	}
	r := NewRunner(o)
	reqs := make([]RunRequest, 0, 2*len(r.opts.Workloads))
	for _, spec := range r.opts.Workloads {
		// Duplicates exercise the once-per-unique-key sink contract.
		reqs = append(reqs, RunRequest{Cfg: r.Base(2), Spec: spec}, RunRequest{Cfg: r.Base(2), Spec: spec})
	}
	r.RunAll(reqs)
	return out
}

// TestObsDeterministicAcrossParallelism requires byte-identical series
// and trace flushes from a sequential and an 8-way parallel sweep:
// concurrency must be unobservable in the observability output, exactly
// as it is in the results.
func TestObsDeterministicAcrossParallelism(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seq := obsBytes(t, 1)
	par := obsBytes(t, 8)
	if len(seq) != len(par) {
		t.Fatalf("key sets differ: %d sequential vs %d parallel", len(seq), len(par))
	}
	for key, want := range seq {
		got, ok := par[key]
		if !ok {
			t.Fatalf("parallel sweep missing key %q", key)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("series/trace bytes differ between -j1 and -j8 for key %q (%d vs %d bytes)", key, len(got), len(want))
		}
	}
}
