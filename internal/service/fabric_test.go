package service

import (
	"bytes"
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/workload"
)

// --- fabric lease-machinery unit tests (no simulations) ---

// testRun builds a WireRun with a distinguishable key; the config and
// workload are never executed by these unit tests.
func testRun(key string) WireRun {
	return WireRun{Key: key, Workload: "Other-Stream-Triad"}
}

// startExecute launches fabric.execute on its own goroutine and
// returns a channel carrying its outcome.
type executeOutcome struct {
	res core.Result
	err error
}

func startExecute(f *fabric, key string) chan executeOutcome {
	ch := make(chan executeOutcome, 1)
	go func() {
		res, err := f.execute(testRun(key))
		ch <- executeOutcome{res, err}
	}()
	return ch
}

// awaitLeased polls a worker's lease set until it holds n shards.
func awaitLeased(t *testing.T, f *fabric, workerID string, n int) []WireShard {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := f.pollWorker(PollRequest{WorkerID: workerID, Want: n})
		if err != nil {
			t.Fatalf("poll: %v", err)
		}
		f.mu.Lock()
		leased := len(f.workers[workerID].leased)
		f.mu.Unlock()
		if len(resp.Shards) > 0 || leased >= n {
			return resp.Shards
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker %s never leased %d shards", workerID, n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestFabricNoWorkersIsUnavailable(t *testing.T) {
	f := newFabric(time.Second, 10*time.Millisecond)
	defer f.close()
	if _, err := f.execute(testRun("k1")); !errors.Is(err, errNoWorkers) {
		t.Fatalf("execute with no workers: %v, want errNoWorkers", err)
	}
	b := fabricBackend{f}
	_, err := b.Execute("k1", arch.Config{}, workload.Spec{}, workload.Options{})
	if !errors.Is(err, exp.ErrBackendUnavailable) {
		t.Fatalf("backend with no workers: %v, want exp.ErrBackendUnavailable", err)
	}
}

func TestFabricLeaseWindowAndCompletion(t *testing.T) {
	f := newFabric(time.Minute, 10*time.Millisecond)
	defer f.close()
	reg, err := f.register("w", "proc-w", 2)
	if err != nil {
		t.Fatal(err)
	}
	c1 := startExecute(f, "k1")
	c2 := startExecute(f, "k2")
	c3 := startExecute(f, "k3")

	// The window caps the grant at 2 even though 3 shards are pending
	// and the worker asked for more.
	var got []WireShard
	deadline := time.Now().Add(5 * time.Second)
	for len(got) < 2 {
		resp, err := f.pollWorker(PollRequest{WorkerID: reg.WorkerID, Want: 8})
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, resp.Shards...)
		if time.Now().After(deadline) {
			t.Fatalf("leased %d shards, want 2", len(got))
		}
		time.Sleep(time.Millisecond)
	}
	if len(got) != 2 {
		t.Fatalf("leased %d shards, want exactly 2 (window)", len(got))
	}
	if resp, _ := f.pollWorker(PollRequest{WorkerID: reg.WorkerID, Want: 8}); len(resp.Shards) != 0 {
		t.Fatalf("over-window grant: %d extra shards", len(resp.Shards))
	}

	// Completing one shard frees a window slot and wakes its waiter.
	res := core.Result{Name: "done", Cycles: 42}
	resp, err := f.pollWorker(PollRequest{
		WorkerID: reg.WorkerID,
		Want:     8,
		Results:  []ShardResult{{ShardID: got[0].ID, Key: got[0].Run.Key, Result: &res}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Shards) != 1 {
		t.Fatalf("freed slot granted %d shards, want 1", len(resp.Shards))
	}
	outcomes := map[string]chan executeOutcome{"k1": c1, "k2": c2, "k3": c3}
	select {
	case out := <-outcomes[got[0].Run.Key]:
		if out.err != nil || out.res.Cycles != 42 {
			t.Fatalf("waiter outcome = %+v", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter never woken by completion")
	}
	snap := f.snapshot()
	if snap.Completed != 1 || snap.ShardsTotal != 3 {
		t.Fatalf("snapshot = %+v, want 1 completed of 3", snap)
	}
}

func TestFabricWorkerDeathRequeuesToSurvivor(t *testing.T) {
	f := newFabric(60*time.Millisecond, 5*time.Millisecond)
	defer f.close()
	rega, _ := f.register("a", "proc-a", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, rega.WorkerID, 1)
	if len(shards) != 1 {
		t.Fatalf("worker a leased %d shards", len(shards))
	}
	// b registers and keeps polling; a goes silent and must expire.
	regb, _ := f.register("b", "proc-b", 1)
	var re []WireShard
	deadline := time.Now().Add(5 * time.Second)
	for len(re) == 0 {
		resp, err := f.pollWorker(PollRequest{WorkerID: regb.WorkerID, Want: 1})
		if err != nil {
			t.Fatal(err)
		}
		re = resp.Shards
		if time.Now().After(deadline) {
			t.Fatal("dead worker's shard never re-leased")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if re[0].Run.Key != "k1" {
		t.Fatalf("re-leased %q, want k1", re[0].Run.Key)
	}
	res := core.Result{Cycles: 7}
	if _, err := f.pollWorker(PollRequest{
		WorkerID: regb.WorkerID,
		Results:  []ShardResult{{ShardID: re[0].ID, Key: "k1", Result: &res}},
	}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err != nil || out.res.Cycles != 7 {
		t.Fatalf("outcome after re-lease = %+v", out)
	}
	snap := f.snapshot()
	if snap.Requeued != 1 || snap.WorkersLive != 1 || snap.Completed != 1 {
		t.Fatalf("snapshot after death = %+v", snap)
	}
	// The dead worker's late report (it was alive all along, just
	// partitioned) is dropped as stale, not double-applied.
	if _, err := f.pollWorker(PollRequest{WorkerID: rega.WorkerID}); !errors.Is(err, errUnknownWorker) {
		t.Fatalf("expired worker poll: %v, want errUnknownWorker", err)
	}
}

func TestFabricLastWorkerDeathFailsOver(t *testing.T) {
	f := newFabric(50*time.Millisecond, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("only", "proc-only", 1)
	done := startExecute(f, "k1")
	awaitLeased(t, f, reg.WorkerID, 1)
	// The only worker dies: the waiter must fall back to local
	// simulation via errNoWorkers instead of hanging.
	select {
	case out := <-done:
		if !errors.Is(out.err, errNoWorkers) {
			t.Fatalf("outcome = %+v, want errNoWorkers", out)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("waiter hung after the last worker died")
	}
}

func TestFabricStaleResultDropped(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, reg.WorkerID, 1)
	res := core.Result{Cycles: 1}
	report := PollRequest{
		WorkerID: reg.WorkerID,
		Results:  []ShardResult{{ShardID: shards[0].ID, Key: "k1", Result: &res}},
	}
	if _, err := f.pollWorker(report); err != nil {
		t.Fatal(err)
	}
	<-done
	// Duplicate report for the completed shard, and a report for a key
	// the fabric never issued: both dropped and counted.
	if _, err := f.pollWorker(report); err != nil {
		t.Fatal(err)
	}
	bogus := PollRequest{WorkerID: reg.WorkerID, Results: []ShardResult{{Key: "never-issued", Result: &res}}}
	if _, err := f.pollWorker(bogus); err != nil {
		t.Fatal(err)
	}
	snap := f.snapshot()
	if snap.StaleResults != 2 || snap.Completed != 1 {
		t.Fatalf("snapshot = %+v, want 2 stale results and 1 completion", snap)
	}
}

func TestFabricWorkerErrorFailsShardDeterministically(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	reg, _ := f.register("w", "proc-w", 1)
	done := startExecute(f, "k1")
	shards := awaitLeased(t, f, reg.WorkerID, 1)
	if _, err := f.pollWorker(PollRequest{
		WorkerID: reg.WorkerID,
		Results:  []ShardResult{{ShardID: shards[0].ID, Key: "k1", Error: "simulation panic: bad config"}},
	}); err != nil {
		t.Fatal(err)
	}
	out := <-done
	if out.err == nil || !strings.Contains(out.err.Error(), "bad config") {
		t.Fatalf("outcome = %+v, want the worker's error", out)
	}
	if snap := f.snapshot(); snap.Failed != 1 {
		t.Fatalf("snapshot = %+v, want 1 failed shard", snap)
	}
}

func TestFabricDeregisterRequeues(t *testing.T) {
	f := newFabric(time.Minute, 5*time.Millisecond)
	defer f.close()
	rega, _ := f.register("a", "proc-a", 1)
	regb, _ := f.register("b", "proc-b", 1)
	done := startExecute(f, "k1")
	// Make sure a (not b) holds the lease before deregistering it.
	shards := awaitLeased(t, f, rega.WorkerID, 1)
	if err := f.deregister(rega.WorkerID); err != nil {
		t.Fatal(err)
	}
	re := awaitLeased(t, f, regb.WorkerID, 1)
	if re[0].Run.Key != shards[0].Run.Key {
		t.Fatalf("re-leased %q, want %q", re[0].Run.Key, shards[0].Run.Key)
	}
	res := core.Result{Cycles: 9}
	f.pollWorker(PollRequest{WorkerID: regb.WorkerID, Results: []ShardResult{{Key: "k1", Result: &res}}})
	if out := <-done; out.err != nil || out.res.Cycles != 9 {
		t.Fatalf("outcome = %+v", out)
	}
}

// --- integration tests: real Server + real Workers + real simulations ---

// fabricOpts is the smallest useful harness for cluster tests.
func fabricOpts() exp.Options {
	var subset []workload.Spec
	for _, name := range []string{"Other-Stream-Triad", "Rodinia-Hotspot", "HPC-RSBench", "Lonestar-SP"} {
		s, ok := workload.ByName(name)
		if !ok {
			panic("missing workload " + name)
		}
		subset = append(subset, s)
	}
	return exp.Options{Divisor: 16, IterScale: 0.1, MaxCTAs: 64, Workloads: subset, Parallelism: 4}
}

// clusterServer boots a coordinator with a fast lease clock for tests.
func clusterServer(t *testing.T, cacheDir string) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(Config{
		Options:    fabricOpts(),
		CacheDir:   cacheDir,
		Workers:    2,
		LeaseTTL:   300 * time.Millisecond,
		FabricPoll: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("service.New: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts, NewClient(ts.URL)
}

func startTestWorker(t *testing.T, url, name string, window int) (*Worker, context.CancelFunc, chan error) {
	t.Helper()
	w := NewWorker(WorkerConfig{
		CoordinatorURL: url,
		Name:           name,
		Window:         window,
		Poll:           10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- w.Run(ctx) }()
	t.Cleanup(cancel)
	return w, cancel, errc
}

// sweepBytes runs the canonical test sweep on a server and returns the
// result payload.
func sweepBytes(t *testing.T, c *Client) []byte {
	t.Helper()
	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	b, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// awaitWorkers blocks until n workers are registered.
func awaitWorkers(t *testing.T, srv *Server, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkersLive < n {
		if time.Now().After(deadline) {
			t.Fatalf("only %d workers registered, want %d", srv.fabric.snapshot().WorkersLive, n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestClusterTwoWorkersByteIdenticalExactlyOnce is the tentpole
// acceptance test: a 2-worker cluster produces byte-identical sweep
// output to a worker-less (purely local) daemon, with every simulation
// executed exactly once cluster-wide, all of it observable in the
// run-count metrics.
func TestClusterTwoWorkersByteIdenticalExactlyOnce(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	// Baseline: no workers — the coordinator simulates locally.
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	w1, _, _ := startTestWorker(t, ts.URL, "w1", 1)
	w2, _, _ := startTestWorker(t, ts.URL, "w2", 1)
	awaitWorkers(t, srv, 2)

	got := sweepBytes(t, c)
	if !bytes.Equal(got, want) {
		t.Fatalf("cluster sweep differs from local sweep:\n%s\nvs\n%s", got, want)
	}

	uniq := uint64(len(fabricOpts().Workloads))
	if st := srv.RunnerStats(); st.Simulations != 0 || st.RemoteRuns != uniq {
		t.Fatalf("coordinator stats = %+v, want 0 local sims and %d remote runs", st, uniq)
	}
	snap := srv.fabric.snapshot()
	if snap.ShardsTotal != uniq || snap.Completed != uniq || snap.StaleResults != 0 {
		t.Fatalf("fabric snapshot = %+v, want %d shards completed exactly once", snap, uniq)
	}
	if total := w1.Stats().Simulations + w2.Stats().Simulations; total != uniq {
		t.Fatalf("workers simulated %d times for %d unique keys (w1 %d, w2 %d)",
			total, uniq, w1.Stats().Simulations, w2.Stats().Simulations)
	}

	// The disk cache is the source of truth: worker results must be
	// replayable from it without any fleet at all.
	metrics, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, wantLine := range []string{
		"numagpud_simulations_total 0\n",
		"numagpud_fabric_results_stale_total 0\n",
	} {
		if !strings.Contains(metrics, wantLine) {
			t.Fatalf("metrics missing %q:\n%s", wantLine, metrics)
		}
	}
}

// TestClusterWorkerKillMidSweep kills one worker while it holds a
// lease and requires: the coordinator re-leases its shards to the
// survivor, the sweep output stays byte-identical, and no simulation
// ran twice cluster-wide (exact run counts — the killed worker's
// blocked shard never simulated).
func TestClusterWorkerKillMidSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	w1 := NewWorker(WorkerConfig{CoordinatorURL: ts.URL, Name: "victim", Window: 1, Poll: 10 * time.Millisecond})
	// The victim's executor blocks forever: it leases a shard, starts
	// "simulating", and never finishes — modelling SIGKILL mid-run.
	w1.beforeRun = func(string) { select {} }
	go w1.Run(context.Background())

	w2, _, _ := startTestWorker(t, ts.URL, "survivor", 1)
	awaitWorkers(t, srv, 2)

	// Submit the sweep, wait until the victim holds a lease, then kill.
	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		snap := srv.fabric.snapshot()
		victimLeased := 0
		for _, ws := range snap.Workers {
			if ws.Name == "victim" {
				victimLeased = ws.Leased
			}
		}
		if victimLeased > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never leased a shard")
		}
		time.Sleep(5 * time.Millisecond)
	}
	w1.kill()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("post-kill sweep differs from local sweep:\n%s\nvs\n%s", got, want)
	}

	uniq := uint64(len(fabricOpts().Workloads))
	snap := srv.fabric.snapshot()
	if snap.Requeued < 1 {
		t.Fatalf("no shards re-queued after worker kill: %+v", snap)
	}
	if snap.Completed != uniq || snap.StaleResults != 0 {
		t.Fatalf("fabric snapshot = %+v, want %d completions and 0 stale", snap, uniq)
	}
	if st := srv.RunnerStats(); st.Simulations != 0 {
		t.Fatalf("coordinator simulated locally (%d) despite a live survivor", st.Simulations)
	}
	// Exactly once: the victim's blocked shard never simulated, so the
	// survivor's count alone must equal the unique keys.
	if total := w1.Stats().Simulations + w2.Stats().Simulations; total != uniq {
		t.Fatalf("cluster simulated %d times for %d unique keys (victim %d, survivor %d)",
			total, uniq, w1.Stats().Simulations, w2.Stats().Simulations)
	}
}

// TestClusterWorkerDrainOnCancel: cancelling a worker's context must
// finish and ship its in-flight shards, deregister, and leave the
// sweep to complete correctly (here: on the coordinator, locally).
func TestClusterWorkerDrainOnCancel(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	_, _, baseClient := clusterServer(t, "")
	want := sweepBytes(t, baseClient)

	srv, ts, c := clusterServer(t, t.TempDir())
	_, cancel, errc := startTestWorker(t, ts.URL, "draining", 2)
	awaitWorkers(t, srv, 1)

	req := SweepRequest{Preset: "base", Sockets: 2}
	j, err := c.SubmitSweep(req)
	if err != nil {
		t.Fatal(err)
	}
	// Let the worker lease something, then ask it to drain.
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().Leased == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never leased a shard")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	select {
	case err := <-errc:
		if err != nil {
			t.Fatalf("worker drain returned %v", err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("worker drain hung")
	}
	if srv.fabric.snapshot().WorkersLive != 0 {
		t.Fatal("worker did not deregister on drain")
	}

	ctx, cancel2 := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel2()
	if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	got, err := c.Result(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("sweep output wrong after worker drain")
	}
	// Work is conserved: every unique key simulated exactly once
	// cluster-wide, split between the drained worker and the
	// coordinator's local fallback.
	uniq := uint64(len(fabricOpts().Workloads))
	snap := srv.fabric.snapshot()
	local := srv.RunnerStats().Simulations
	if snap.WorkerStats.Simulations+local != uniq || snap.StaleResults != 0 {
		t.Fatalf("worker sims %d + local sims %d != %d unique keys (snapshot %+v)",
			snap.WorkerStats.Simulations, local, uniq, snap)
	}
}

// gatedTransport simulates a network partition: while blocked, every
// request fails at the transport layer.
type gatedTransport struct{ blocked atomic.Bool }

func (g *gatedTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if g.blocked.Load() {
		return nil, errors.New("partitioned")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestWorkerReregistrationDoesNotDoubleCountStats partitions a worker
// past its lease TTL so the coordinator expires it (folding its last
// report into the departed accumulator), then heals the partition so
// the worker re-registers. Its pre-partition simulations must not be
// reported again under the new identity: cluster-wide worker
// simulation counts stay equal to unique runs.
func TestWorkerReregistrationDoesNotDoubleCountStats(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	srv, ts, c := clusterServer(t, "")
	gate := &gatedTransport{}
	w := NewWorker(WorkerConfig{
		CoordinatorURL: ts.URL,
		Name:           "flaky",
		Window:         2,
		Poll:           10 * time.Millisecond,
		HTTPClient:     &http.Client{Transport: gate},
	})
	go w.Run(context.Background())
	awaitWorkers(t, srv, 1)

	runSweep := func(workloads []string) {
		t.Helper()
		j, err := c.SubmitSweep(SweepRequest{Preset: "base", Sockets: 2, Workloads: workloads})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if _, err := c.Wait(ctx, j.ID, 5*time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	runSweep([]string{"Other-Stream-Triad"})
	// Make sure the simulation count reached the coordinator before
	// partitioning.
	deadline := time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkerStats.Simulations != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("first simulation never reported: %+v", srv.fabric.snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}

	gate.blocked.Store(true)
	deadline = time.Now().Add(10 * time.Second)
	for srv.fabric.snapshot().WorkersLive != 0 {
		if time.Now().After(deadline) {
			t.Fatal("partitioned worker never expired")
		}
		time.Sleep(10 * time.Millisecond)
	}
	gate.blocked.Store(false)
	awaitWorkers(t, srv, 1) // re-registered under a fresh identity

	runSweep([]string{"Rodinia-Hotspot"})
	deadline = time.Now().Add(10 * time.Second)
	var got uint64
	for {
		got = srv.fabric.snapshot().WorkerStats.Simulations
		if got >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if got != 2 {
		t.Fatalf("cluster-wide worker simulations = %d after re-registration, want exactly 2 (no double count)", got)
	}
	if w.Stats().Simulations != 2 {
		t.Fatalf("worker process simulated %d times, want 2", w.Stats().Simulations)
	}
}

// TestWorkerRejectsVersionSkew pins the worker-side skew guard: a
// shard whose RunKey the worker derives differently — a doctored key
// stands in for a coordinator on another simulator version — comes back
// as a shard error without simulating, the coordinator fails that run
// instead of re-leasing it, and nothing reaches the disk cache. The same
// run under its true key then simulates normally.
func TestWorkerRejectsVersionSkew(t *testing.T) {
	srv, ts, _ := clusterServer(t, t.TempDir())
	w, _, _ := startTestWorker(t, ts.URL, "skew-w", 1)
	awaitWorkers(t, srv, 1)

	spec := fabricOpts().Workloads[0]
	cfg := srv.runner.Base(2)
	run := WireRun{Key: "v999|doctored", Cfg: cfg, Workload: spec.Name, IterScale: 0.1, MaxCTAs: 64}
	if _, err := srv.fabric.execute(run); err == nil || !strings.Contains(err.Error(), "run key mismatch") {
		t.Fatalf("doctored shard: err = %v, want a run key mismatch", err)
	}
	if snap := srv.fabric.snapshot(); snap.Failed != 1 || snap.Requeued != 0 || snap.Completed != 0 {
		t.Fatalf("snapshot = %+v, want the run failed once, not requeued", snap)
	}
	if n := w.Stats().Simulations; n != 0 {
		t.Fatalf("worker simulated %d times for a skewed shard, want 0", n)
	}
	if n := srv.disk.Stats().Entries; n != 0 {
		t.Fatalf("disk cache has %d entries after a skewed shard, want 0", n)
	}

	run.Key = srv.runner.RunKey(cfg, spec)
	if res, err := srv.fabric.execute(run); err != nil || res.Cycles == 0 {
		t.Fatalf("true key: %+v, %v; want a simulated result", res, err)
	}
	if n := srv.disk.Stats().Entries; n != 1 {
		t.Fatalf("disk cache has %d entries after one good shard, want 1", n)
	}
}
