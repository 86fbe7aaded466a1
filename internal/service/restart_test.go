package service

import (
	"context"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// waitJobTerminal polls a job over HTTP until it leaves the queue,
// tolerating transient transport errors (the restart tests poll across
// a coordinator death).
func waitJobTerminal(t *testing.T, cl *Client, id string, timeout time.Duration) JobStatus {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		st, err := cl.Job(id)
		if err == nil && st.State != JobQueued && st.State != JobRunning {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s still unfinished after %s (last status %+v, err %v)", id, timeout, st, err)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestCoordinatorRestartMidSweep is the durability acceptance test: a
// coordinator is kill -9'd while a worker holds every shard of an
// in-flight sweep, a replacement coordinator on the same state
// directory replays the journal, the worker transparently re-registers
// (410 path) and resumes, and the sweep completes with
//
//   - the same job ID the client was given before the crash,
//   - output byte-identical to an undisturbed standalone run,
//   - every simulation executed exactly once, all of them on the
//     worker (zero local-simulation failover on either coordinator).
func TestCoordinatorRestartMidSweep(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := Config{
		Options:    fabricOpts(),
		CacheDir:   cacheDir,
		Workers:    2,
		LeaseTTL:   2 * time.Second,
		FabricPoll: 10 * time.Millisecond,
	}

	// Baseline: an undisturbed worker-less daemon on a separate cache.
	base, err := New(Config{Options: fabricOpts(), Workers: 2})
	if err != nil {
		t.Fatalf("baseline New: %v", err)
	}
	bts := httptest.NewServer(base)
	want := sweepBytes(t, NewClient(bts.URL))
	bts.Close()
	base.Close()

	// First coordinator on a plain listener so the address survives it.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	url := "http://" + addr
	srv1, err := New(cfg)
	if err != nil {
		t.Fatalf("srv1 New: %v", err)
	}
	hs1 := &http.Server{Handler: srv1}
	go hs1.Serve(ln)

	// One worker whose runs block on a gate: it leases every shard but
	// cannot finish any until the gate opens — after the restart.
	gate := make(chan struct{})
	w := NewWorker(WorkerConfig{CoordinatorURL: url, Name: "survivor", Window: 4, Poll: 10 * time.Millisecond})
	w.beforeRun = func(string) { <-gate }
	wctx, wcancel := context.WithCancel(context.Background())
	werrc := make(chan error, 1)
	go func() { werrc <- w.Run(wctx) }()
	defer wcancel()
	awaitWorkers(t, srv1, 1)

	// Submit the sweep and wait until the worker holds all 4 shards
	// (each lease grant is journaled before it goes on the wire).
	cl := NewClient(url)
	jb, err := cl.SubmitSweep(SweepRequest{Preset: "base", Sockets: 2})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for w.Inflight() < 4 {
		if time.Now().After(deadline) {
			t.Fatalf("worker leased %d shards, want 4", w.Inflight())
		}
		time.Sleep(2 * time.Millisecond)
	}

	// kill -9: the listener dies and the process state freezes with the
	// journal un-compacted. NOTE: srv1.Close() must never run — its
	// drain would block forever on the frozen fabric.
	hs1.Close()
	srv1.kill()

	// The replacement coordinator replays the journal. Before the
	// worker re-registers it is live but not ready.
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("srv2 New (replay): %v", err)
	}
	if !srv2.fabric.recovering() {
		t.Fatal("replayed coordinator not in recovery grace")
	}
	rec := httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/ready", nil))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), "replaying") {
		t.Fatalf("readiness during replay = %d %q, want 503 replaying", rec.Code, rec.Body.String())
	}
	rec = httptest.NewRecorder()
	srv2.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz/live", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("liveness during replay = %d, want 200", rec.Code)
	}

	// Rebind the same address (SO_REUSEADDR) and let the worker find it.
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: srv2}
	go hs2.Serve(ln2)
	defer hs2.Close()
	awaitWorkers(t, srv2, 1)

	// Open the gate: the worker finishes its resumed shards and ships
	// them to the new coordinator, completing the pre-crash job ID.
	close(gate)
	st := waitJobTerminal(t, cl, jb.ID, 30*time.Second)
	if st.State != JobDone {
		t.Fatalf("replayed job %s = %s (%s), want done", jb.ID, st.State, st.Error)
	}
	got, err := cl.Result(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("post-restart sweep diverged from baseline:\n got %d bytes\nwant %d bytes", len(got), len(want))
	}

	// Exactly-once, and exactly where it should be: 4 simulations on
	// the worker, zero on either coordinator (no local failover).
	if n := w.Stats().Simulations; n != 4 {
		t.Fatalf("worker ran %d simulations, want exactly 4", n)
	}
	if n := srv1.RunnerStats().Simulations; n != 0 {
		t.Fatalf("killed coordinator ran %d local simulations, want 0", n)
	}
	if n := srv2.RunnerStats().Simulations; n != 0 {
		t.Fatalf("replayed coordinator ran %d local simulations, want 0", n)
	}

	// The recovery is observable: resumed-shard count and replay count.
	snap := srv2.fabric.snapshot()
	if snap.Resumed == 0 {
		t.Fatal("no shards recorded as resumed")
	}
	metrics, err := NewClient(url).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for _, line := range []string{
		"numagpud_journal_replays_total 1",
		"numagpud_fabric_shards_resumed_total",
	} {
		if !strings.Contains(metrics, line) {
			t.Fatalf("metrics missing %q:\n%s", line, metrics)
		}
	}

	// Shut the worker down cleanly, then the replacement coordinator.
	wcancel()
	select {
	case <-werrc:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never drained after restart")
	}
	hs2.Close()
	srv2.Close()
}

// TestStandaloneRestartReplaysQueuedJobs covers durability without any
// fabric fleet: a coordinator with queued work is killed, and the
// replacement finishes the jobs by itself once the recovery grace
// window lapses (no workers ever existed, so local simulation is the
// correct owner).
func TestStandaloneRestartReplaysQueuedJobs(t *testing.T) {
	cacheDir := t.TempDir()
	cfg := Config{
		Options:  tinyServiceOpts(),
		CacheDir: cacheDir,
		Workers:  1,
		LeaseTTL: 200 * time.Millisecond, // short grace so failover is quick
	}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	cl1 := NewClient(ts1.URL)

	// A blocked fabric worker wedges the queue worker so both jobs are
	// still unfinished at the kill.
	reg, err := srv1.fabric.register("wedge", "wedge-proc", 1)
	if err != nil {
		t.Fatal(err)
	}
	_ = reg
	j1, err := cl1.SubmitSweep(SweepRequest{Preset: "base", Sockets: 2, Workloads: []string{"Other-Stream-Triad"}})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := cl1.SubmitExperiment("fig2")
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.kill()

	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("replay New: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	cl2 := NewClient(ts2.URL)

	// Both pre-crash job IDs exist and finish. The sweep waits out the
	// grace window (leaseTTL) before failing over to local simulation —
	// on a coordinator that never had workers that is the only delay.
	for _, id := range []string{j1.ID, j2.ID} {
		st := waitJobTerminal(t, cl2, id, 30*time.Second)
		if st.State != JobDone {
			t.Fatalf("replayed job %s = %s (%s), want done", id, st.State, st.Error)
		}
	}
	if _, err := cl2.Result(j1.ID); err != nil {
		t.Fatalf("replayed sweep result: %v", err)
	}
}

// TestExperimentScaleSurvivesRestart: an experiment submitted with a
// harness scale is journaled with it, so a kill -9 replay resumes the
// job at the client's scale, not the daemon's. table1 needs no
// simulation; it prints the divisor in its header.
func TestExperimentScaleSurvivesRestart(t *testing.T) {
	opts := tinyServiceOpts()
	opts.Divisor = 8
	cfg := Config{Options: opts, CacheDir: t.TempDir(), Workers: 1, LeaseTTL: time.Minute}
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts1 := httptest.NewServer(srv1)
	cl1 := NewClient(ts1.URL)

	// A registered fabric worker that never polls wedges the only queue
	// worker on the sweep, so the experiment is still queued at the kill.
	if _, err := srv1.fabric.register("wedge", "wedge-proc", 1); err != nil {
		t.Fatal(err)
	}
	if _, err := submitTinySweep(cl1); err != nil {
		t.Fatal(err)
	}
	jb, err := cl1.SubmitExperiment("table1", ExperimentRequest{Divisor: 16})
	if err != nil {
		t.Fatal(err)
	}
	ts1.Close()
	srv1.kill()

	cfg.LeaseTTL = 200 * time.Millisecond // short grace: the wedged sweep fails over locally
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("replay New: %v", err)
	}
	ts2 := httptest.NewServer(srv2)
	defer func() {
		ts2.Close()
		srv2.Close()
	}()
	cl2 := NewClient(ts2.URL)
	if st := waitJobTerminal(t, cl2, jb.ID, 30*time.Second); st.State != JobDone {
		t.Fatalf("replayed job %s = %s (%s), want done", jb.ID, st.State, st.Error)
	}
	nr, err := cl2.ExperimentResult(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	if out := nr.Table.String(); !strings.Contains(out, "1/16 scale") {
		t.Fatalf("replayed table1 lost the client's divisor:\n%s", out)
	}
}
