package exp

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// fakeBackend is a controllable Backend: "sim" executes the run
// in-process (a perfect remote), "unavailable" reports an empty fleet,
// and "fail" reports a hard error.
type fakeBackend struct {
	mode string

	mu    sync.Mutex
	calls []string
}

func (b *fakeBackend) Execute(key string, cfg arch.Config, spec workload.Spec, o workload.Options) (core.Result, error) {
	b.mu.Lock()
	b.calls = append(b.calls, key)
	b.mu.Unlock()
	switch b.mode {
	case "sim":
		res := core.MustSystem(cfg).Run(spec.Program(o))
		res.Name = spec.Name
		return res, nil
	case "unavailable":
		return core.Result{}, fmt.Errorf("fleet empty: %w", ErrBackendUnavailable)
	case "deadline":
		return core.Result{}, fmt.Errorf("shard cancelled: %w", ErrDeadlineExceeded)
	default:
		return core.Result{}, errors.New("backend exploded")
	}
}

func (b *fakeBackend) callCount() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.calls)
}

// TestBackendExecutesMemoMisses pins the dispatch contract: a memo miss
// goes to the Backend (never the local simulator), a repeat of the same
// key stays in the memo, and the run counters attribute the work to
// RemoteRuns.
func TestBackendExecutesMemoMisses(t *testing.T) {
	b := &fakeBackend{mode: "sim"}
	o := tinyOptions()
	o.Backend = b
	r := NewRunner(o)
	spec := r.opts.Workloads[0]
	res := r.Run(r.Base(2), spec)
	if res.Cycles == 0 || res.Name != spec.Name {
		t.Fatalf("backend result not adopted: %+v", res)
	}
	if again := r.Run(r.Base(2), spec); again.Cycles != res.Cycles {
		t.Fatalf("memoized repeat differs: %d vs %d cycles", again.Cycles, res.Cycles)
	}
	if n := b.callCount(); n != 1 {
		t.Fatalf("backend called %d times for one unique key, want 1", n)
	}
	if st := r.Stats(); st.RemoteRuns != 1 || st.Simulations != 0 {
		t.Fatalf("stats = %+v, want 1 remote run and 0 local simulations", st)
	}
}

// TestBackendUnavailableFallsBackLocally: an empty fleet must degrade
// to a local simulation with an identical result, not an error.
func TestBackendUnavailableFallsBackLocally(t *testing.T) {
	local := NewRunner(tinyOptions())
	b := &fakeBackend{mode: "unavailable"}
	o := tinyOptions()
	o.Backend = b
	r := NewRunner(o)
	spec := r.opts.Workloads[0]
	want := local.Run(local.Base(2), spec)
	got := r.Run(r.Base(2), spec)
	if got.Cycles != want.Cycles || got.Instructions != want.Instructions {
		t.Fatalf("fallback result differs: %+v vs %+v", got, want)
	}
	if n := b.callCount(); n != 1 {
		t.Fatalf("backend consulted %d times, want 1", n)
	}
	if st := r.Stats(); st.Simulations != 1 || st.RemoteRuns != 0 {
		t.Fatalf("stats = %+v, want the run counted as a local simulation", st)
	}
}

// TestBackendHardErrorPanicsOnce: a non-unavailable backend error fails
// the run like a local simulation panic — raised for the first caller,
// memoized, and re-raised for later callers without retrying.
func TestBackendHardErrorPanicsOnce(t *testing.T) {
	b := &fakeBackend{mode: "fail"}
	o := tinyOptions()
	o.Backend = b
	r := NewRunner(o)
	spec := r.opts.Workloads[0]
	mustPanic := func(step string) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic from backend failure", step)
			}
		}()
		r.Run(r.Base(2), spec)
	}
	mustPanic("first call")
	mustPanic("memoized repeat")
	if n := b.callCount(); n != 1 {
		t.Fatalf("failed key retried: %d backend calls, want 1", n)
	}
}

// TestBackendDeadlineErrorNotMemoized: deadline cancellation is
// transient — it fails the current caller but, unlike a hard backend
// error, must NOT poison the memo: resubmitting the same key after the
// deadline storm retries the backend and succeeds.
func TestBackendDeadlineErrorNotMemoized(t *testing.T) {
	b := &fakeBackend{mode: "deadline"}
	o := tinyOptions()
	o.Backend = b
	r := NewRunner(o)
	spec := r.opts.Workloads[0]
	func() {
		defer func() {
			p := recover()
			if p == nil {
				t.Fatal("deadline-cancelled run did not fail")
			}
			err, ok := p.(error)
			if !ok || !errors.Is(err, ErrDeadlineExceeded) {
				t.Fatalf("panic payload = %v, want ErrDeadlineExceeded", p)
			}
		}()
		r.Run(r.Base(2), spec)
	}()

	// The same key retried after the backend recovers must re-consult it
	// and succeed — contrast TestBackendHardErrorPanicsOnce, where the
	// second call never reaches the backend.
	b.mode = "sim"
	res := r.Run(r.Base(2), spec)
	if res.Cycles == 0 {
		t.Fatalf("retried run after deadline cancel: %+v", res)
	}
	if n := b.callCount(); n != 2 {
		t.Fatalf("backend called %d times, want 2 (deadline error not memoized)", n)
	}
}

// memCache is a minimal in-memory exp.Cache.
type memCache struct {
	mu sync.Mutex
	m  map[string]core.Result
}

func (c *memCache) Get(key string) (core.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	res, ok := c.m[key]
	return res, ok
}

func (c *memCache) Put(key string, res core.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[key] = res
}

// TestBackendWritesThroughCache: a backend-executed result must land in
// Options.Cache exactly like a local simulation, so a coordinator's
// disk cache stays the source of truth for worker-produced results.
func TestBackendWritesThroughCache(t *testing.T) {
	cache := &memCache{m: make(map[string]core.Result)}
	opts := tinyOptions()
	opts.Cache = cache
	b := &fakeBackend{mode: "sim"}
	opts.Backend = b
	r := NewRunner(opts)
	spec := r.opts.Workloads[0]
	want := r.Run(r.Base(2), spec)
	if len(cache.m) != 1 {
		t.Fatalf("cache has %d entries after a remote run, want 1", len(cache.m))
	}

	// A fresh runner over the same cache serves the key without
	// touching its backend.
	b2 := &fakeBackend{mode: "fail"} // would panic if consulted
	opts.Backend = b2
	r2 := NewRunner(opts)
	got := r2.Run(r2.Base(2), spec)
	if got.Cycles != want.Cycles {
		t.Fatalf("cache replay differs: %d vs %d cycles", got.Cycles, want.Cycles)
	}
	if b2.callCount() != 0 {
		t.Fatal("cache hit consulted the backend")
	}
	if st := r2.Stats(); st.CacheHits != 1 || st.RemoteRuns != 0 || st.Simulations != 0 {
		t.Fatalf("warm stats = %+v, want a pure cache hit", st)
	}
}

// TestRemoteRunnerExperimentByteIdentical runs a full experiment once
// on a plain local Runner and once on a remote Runner whose backend
// simulates out-of-band, and requires byte-identical tables, CSV, and
// summaries: the remote submit surface must be unobservable in the
// output, including RunAll request ordering.
func TestRemoteRunnerExperimentByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	e, ok := ExperimentByName("fig3")
	if !ok {
		t.Fatal("fig3 missing from registry")
	}
	local := NewRunner(tinyOptions())
	b := &fakeBackend{mode: "sim"}
	opts := tinyOptions()
	opts.Parallelism = 8
	opts.Backend = b
	remote := NewRunner(opts)

	want := e.Run(local)
	got := e.Run(remote)
	if string(RenderGolden(got)) != string(RenderGolden(want)) {
		t.Fatalf("remote rendering differs from local:\n--- remote ---\n%s\n--- local ---\n%s",
			RenderGolden(got), RenderGolden(want))
	}
	if b.callCount() == 0 {
		t.Fatal("backend never consulted")
	}
	if st := remote.Stats(); st.Simulations != 0 || st.RemoteRuns == 0 {
		t.Fatalf("remote runner stats = %+v, want all runs remote", st)
	}
}
