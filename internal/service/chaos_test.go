package service

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/exp"
)

// TestFaultTransportDeterministicSchedule pins the repro contract: two
// transports with the same seed and profile sample the identical fault
// schedule, so a failing chaos seed replays.
func TestFaultTransportDeterministicSchedule(t *testing.T) {
	mk := func() *faultTransport {
		ft := newFaultTransport(nil, 42)
		ft.set(0.2, 0.2, 0.2, 0.3, 10*time.Millisecond)
		return ft
	}
	a, b := mk(), mk()
	for i := 0; i < 200; i++ {
		pa, pb := a.plan(), b.plan()
		if pa != pb {
			t.Fatalf("schedule diverged at step %d: %+v vs %+v", i, pa, pb)
		}
	}
	ar1, ar2, ad, adl, _ := a.counts()
	if ar1+ar2+ad+adl == 0 {
		t.Fatal("profile injected nothing in 200 samples")
	}
}

// TestFaultTransportSemantics drives each fault mode against a counting
// server: a request drop never reaches it, a response drop reaches it
// exactly once, and a duplicated delivery reaches it twice while the
// caller still gets a good reply.
func TestFaultTransportSemantics(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		w.Write([]byte(`{"ok":true}`))
	}))
	defer ts.Close()

	post := func(ft *faultTransport) error {
		cl := &Client{BaseURL: ts.URL, HTTPClient: &http.Client{Transport: ft}}
		return cl.do("POST", "/", map[string]string{"x": "y"}, nil)
	}

	ft := newFaultTransport(nil, 1)
	ft.set(1, 0, 0, 0, 0) // drop every request
	if err := post(ft); !errors.Is(err, errInjected) {
		t.Fatalf("dropped request err = %v, want injected", err)
	}
	if hits.Load() != 0 {
		t.Fatalf("dropped request reached the server %d times", hits.Load())
	}

	ft.set(0, 1, 0, 0, 0) // drop every response
	if err := post(ft); !errors.Is(err, errInjected) {
		t.Fatalf("dropped response err = %v, want injected", err)
	}
	if hits.Load() != 1 {
		t.Fatalf("response drop: server saw %d requests, want exactly 1 (it DID process it)", hits.Load())
	}

	ft.set(0, 0, 1, 0, 0) // duplicate every delivery
	if err := post(ft); err != nil {
		t.Fatalf("duplicated delivery should still succeed: %v", err)
	}
	if hits.Load() != 3 {
		t.Fatalf("duplicate delivery: server saw %d total requests, want 3 (1 + 2)", hits.Load())
	}

	ft.partition(true)
	if err := post(ft); !errors.Is(err, errInjected) {
		t.Fatalf("partitioned err = %v, want injected", err)
	}
	if hits.Load() != 3 {
		t.Fatal("partitioned request reached the server")
	}
	ft.partition(false)
	if err := post(ft); err != nil {
		t.Fatalf("healed partition: %v", err)
	}
}

// TestWorkerReadinessProbe: a worker's readiness flips to 503 once it
// starts draining, while liveness stays 200.
func TestWorkerReadinessProbe(t *testing.T) {
	srv, ts, _ := clusterServerShort(t)
	w, cancel, errc := startTestWorker(t, ts.URL, "probe-w", 1)
	awaitWorkers(t, srv, 1)

	h := httptest.NewServer(w.Handler())
	defer h.Close()
	get := func(path string) int {
		resp, err := http.Get(h.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	if code := get("/healthz/ready"); code != http.StatusOK {
		t.Fatalf("ready = %d, want 200", code)
	}
	cancel()
	select {
	case <-errc:
	case <-time.After(10 * time.Second):
		t.Fatal("worker never drained")
	}
	if code := get("/healthz/ready"); code != http.StatusServiceUnavailable {
		t.Fatalf("ready after drain = %d, want 503", code)
	}
	if code := get("/healthz/live"); code != http.StatusOK {
		t.Fatalf("live after drain = %d, want 200", code)
	}
}

// clusterServerShort is clusterServer without the simulation-heavy
// options dependency — safe for the -short tier.
func clusterServerShort(t *testing.T) (*Server, *httptest.Server, *Client) {
	t.Helper()
	srv, err := New(Config{
		Options:    tinyServiceOpts(),
		Workers:    2,
		LeaseTTL:   time.Minute,
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

// --- randomized chaos acceptance test ---

var (
	chaosSeed    = flag.Int64("chaos.seed", 0, "chaos fault-schedule seed (0 = derive from the clock)")
	chaosSoak    = flag.Bool("chaos.soak", false, "run the long multi-seed chaos soak")
	chaosSoakFor = flag.Duration("chaos.soakfor", 5*time.Minute, "chaos soak duration")
)

// TestChaosFig3 runs the paper's fig3 experiment on a 2-worker fabric
// while the chaos harness drops, delays, duplicates, and partitions
// traffic, one worker is killed mid-sweep, and the coordinator itself
// is kill -9'd and restarted from its journal. The experiment must
// still produce output byte-identical to the committed golden, with
// every simulation executed exactly once and none of them falling back
// to coordinator-local execution.
func TestChaosFig3(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	seed := *chaosSeed
	if seed == 0 {
		seed = time.Now().UnixNano()
	}
	runChaosFig3(t, seed)
}

// TestChaosSoak replays the chaos scenario under fresh seeds until the
// soak budget is spent. Off by default; the nightly CI job enables it:
//
//	go test ./internal/service -run TestChaosSoak -chaos.soak -timeout 20m
func TestChaosSoak(t *testing.T) {
	if !*chaosSoak {
		t.Skip("enable with -chaos.soak")
	}
	base := *chaosSeed
	if base == 0 {
		base = time.Now().UnixNano()
	}
	start := time.Now()
	for i := 0; time.Since(start) < *chaosSoakFor; i++ {
		seed := base + int64(i)
		if !t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) { runChaosFig3(t, seed) }) {
			return
		}
	}
}

// runChaosFig3 is one full chaos scenario under one seed. On any
// failure the logged seed reproduces the exact fault schedule.
func runChaosFig3(t *testing.T, seed int64) {
	t.Logf("chaos seed %d (rerun: go test ./internal/service -run TestChaosFig3 -chaos.seed=%d)", seed, seed)
	want, err := os.ReadFile(filepath.Join("..", "exp", "testdata", "golden", "fig3.golden"))
	if err != nil {
		t.Fatalf("golden: %v", err)
	}

	opts := exp.QuickOptions()
	opts.Parallelism = 8
	cfg := Config{
		Options:    opts,
		CacheDir:   t.TempDir(),
		Workers:    2,
		LeaseTTL:   time.Second,
		FabricPoll: 10 * time.Millisecond,
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	url := "http://" + addr
	srv1, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs1 := &http.Server{Handler: srv1}
	go hs1.Serve(ln)

	// Two workers behind independently seeded fault injectors. Worker 1
	// is the designated victim: after 8 simulations every further run
	// wedges before executing (the in-process stand-in for "the process
	// died with leases held"), and once it is fully wedged it is killed.
	const victimSims = 8
	profile := func(ft *faultTransport) { ft.set(0.05, 0.05, 0.05, 0.2, 20*time.Millisecond) }
	ft1 := newFaultTransport(nil, seed+1)
	ft2 := newFaultTransport(nil, seed+2)
	profile(ft1)
	profile(ft2)

	var started, wedged atomic.Int64
	w1 := NewWorker(WorkerConfig{
		CoordinatorURL: url, Name: "victim", Window: 4, Poll: 10 * time.Millisecond,
		HTTPClient: &http.Client{Transport: ft1},
	})
	w1.beforeRun = func(string) {
		if started.Add(1) > victimSims {
			wedged.Add(1)
			select {} // never returns; the worker is about to be killed
		}
	}
	w2 := NewWorker(WorkerConfig{
		CoordinatorURL: url, Name: "survivor", Window: 4, Poll: 10 * time.Millisecond,
		HTTPClient: &http.Client{Transport: ft2},
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	w1errc := make(chan error, 1)
	w2errc := make(chan error, 1)
	go func() { w1errc <- w1.Run(ctx) }()
	go func() { w2errc <- w2.Run(ctx) }()

	// Chaos driver: short partitions of the surviving worker, always
	// shorter than the lease TTL so a partition alone never kills it.
	stopChaos := make(chan struct{})
	chaosDone := make(chan struct{})
	go func() {
		defer close(chaosDone)
		rng := rand.New(rand.NewSource(seed + 3))
		for {
			select {
			case <-stopChaos:
				return
			case <-time.After(time.Duration(rng.Int63n(int64(400 * time.Millisecond)))):
			}
			ft2.partition(true)
			select {
			case <-stopChaos:
			case <-time.After(time.Duration(rng.Int63n(int64(250 * time.Millisecond)))):
			}
			ft2.partition(false)
		}
	}()
	defer func() { close(stopChaos); <-chaosDone }()

	// Both workers must be registered before the job is submitted —
	// otherwise the first execute calls legitimately fall back to local
	// simulation (the no-workers path) and the no-failover assertion
	// below would be meaningless. >= 2 because a dropped registration
	// response can leave a ghost registration behind.
	waitCond(t, 30*time.Second, "both workers registered", func() bool {
		return srv1.fabric.snapshot().WorkersLive >= 2
	})

	cl := NewClient(url)
	jb, err := cl.SubmitExperiment("fig3")
	if err != nil {
		t.Fatal(err)
	}

	// Phase 1 — kill the victim worker once it is quiescent: all its
	// non-wedged simulations finished AND shipped (outbox empty), so the
	// kill models a crash that loses leases but no completed results.
	waitCond(t, 60*time.Second, "victim wedged and drained", func() bool {
		if wedged.Load() == 0 {
			return false
		}
		w1.mu.Lock()
		outbox := len(w1.results)
		inflight := w1.inflight
		w1.mu.Unlock()
		return int64(inflight) == wedged.Load() && outbox == 0
	})
	w1.kill()
	<-w1errc
	t.Logf("victim killed after %d simulations (%d shards wedged)", w1.Stats().Simulations, wedged.Load())

	// Phase 2 — kill -9 the coordinator mid-sweep and restart it from
	// the journal on the same address.
	waitCond(t, 120*time.Second, "enough shards completed before coordinator kill", func() bool {
		return srv1.fabric.snapshot().Completed >= 15
	})
	hs1.Close()
	srv1.kill()
	srv2, err := New(cfg)
	if err != nil {
		t.Fatalf("coordinator restart: %v", err)
	}
	ln2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	hs2 := &http.Server{Handler: srv2}
	go hs2.Serve(ln2)
	defer func() {
		hs2.Close()
		srv2.Close()
	}()

	// Phase 3 — the surviving worker re-registers through its faulty
	// transport and the sweep runs to completion.
	st := waitJobTerminal(t, cl, jb.ID, 5*time.Minute)
	if st.State != JobDone {
		t.Fatalf("chaos job %s = %s (%s), want done", jb.ID, st.State, st.Error)
	}
	nr, err := cl.ExperimentResult(jb.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := exp.RenderGolden(exp.Result{Table: nr.Table, Summary: nr.Summary})
	if !bytes.Equal(got, want) {
		t.Fatalf("fig3 under chaos diverged from golden (%d bytes vs %d)", len(got), len(want))
	}

	// Exactly-once: every simulation ran on exactly one worker — the
	// unique-RunKey count is the content-addressed cache entry count —
	// and neither coordinator fell back to local simulation.
	if n := srv1.RunnerStats().Simulations + srv2.RunnerStats().Simulations; n != 0 {
		t.Fatalf("coordinators ran %d local simulations, want 0 (no failover)", n)
	}
	workerSims := w1.Stats().Simulations + w2.Stats().Simulations
	entries := uint64(srv2.disk.Stats().Entries)
	if workerSims != entries {
		t.Fatalf("worker simulations = %d, unique run keys = %d: duplicates or losses under chaos", workerSims, entries)
	}
	metrics, err := cl.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(metrics, "numagpud_journal_replays_total 1") {
		t.Fatal("metrics missing journal replay count after restart")
	}

	dr1, dp1, du1, dl1, _ := ft1.counts()
	dr2, dp2, du2, dl2, cut2 := ft2.counts()
	t.Logf("chaos injected: victim %d/%d/%d/%d (dropReq/dropResp/dup/delay), survivor %d/%d/%d/%d + %d partition rejections",
		dr1, dp1, du1, dl1, dr2, dp2, du2, dl2, cut2)
	if dr1+dp1+du1+dl1+dr2+dp2+du2+dl2 == 0 {
		t.Fatal("chaos harness injected no faults — the test proved nothing")
	}

	cancel()
	select {
	case <-w2errc:
	case <-time.After(30 * time.Second):
		t.Fatal("surviving worker never drained")
	}
}

// waitCond polls cond until true or the deadline passes.
func waitCond(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
