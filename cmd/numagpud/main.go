// Command numagpud is the long-running simulation service: it serves
// the paper's experiments and arbitrary (config, workload) sweeps over
// an HTTP/JSON API, shares one concurrent singleflight harness across
// all requests, and persists every simulation result in a
// content-addressed disk cache so warm results survive restarts.
//
// Every daemon is also a sweep-fabric coordinator: other numagpud
// processes started with -worker register with it, lease shards of its
// sweeps, and ship results back, scaling a sweep out across machines
// while the coordinator's disk cache stays the single source of truth.
//
// Usage:
//
//	numagpud [flags]
//
// Flags:
//
//	-addr host:port     listen address (default 127.0.0.1:8377)
//	-cache dir          persistent result cache directory (default
//	                    "numagpud-cache" under the current directory);
//	                    empty disables persistence
//	-state-dir dir      durable coordinator state (job + lease journal;
//	                    default "state" under -cache). A restarted
//	                    coordinator replays it and resumes in-flight
//	                    sweeps; empty with no -cache disables durability
//	-max-queue n        bound on queued-but-not-running jobs (default 64);
//	                    beyond it submissions get 429 + Retry-After
//	-tenant-quota f     per-tenant admission quota in jobs/minute, keyed
//	                    by the X-Tenant header (0 = unlimited)
//	-iterscale f        scale workload iteration counts (default 1.0)
//	-divisor n          architecture scale divisor vs the paper machine (default 8)
//	-maxctas n          cap grid sizes (0 = uncapped)
//	-quick              shorthand for -iterscale 0.25
//	-j n                simulations to run in parallel per job (default
//	                    GOMAXPROCS); this also bounds the in-flight runs
//	                    of a numagpu -remote experiment
//	-workers n          concurrent jobs (default 2)
//	-lease-ttl d        declare a fabric worker dead after this long
//	                    without a poll (default 15s)
//	-v                  mirror per-run progress to stderr
//
// Worker mode:
//
//	-worker             join a coordinator as a fabric worker instead of
//	                    serving the full API (requires -coordinator-url);
//	                    -addr then serves only /healthz and /metrics, and
//	                    -cache is ignored (the coordinator owns the cache)
//	-coordinator-url u  coordinator base URL, e.g. http://host:8377
//	-window n           max in-flight simulations to lease (default GOMAXPROCS)
//	-worker-name s      worker display name (default host-pid)
//
// A quick session:
//
//	numagpud -cache /var/cache/numagpud -j 8 &
//	numagpud -addr 127.0.0.1:8378 -worker -coordinator-url http://127.0.0.1:8377 &
//	numagpud -addr 127.0.0.1:8379 -worker -coordinator-url http://127.0.0.1:8377 &
//	numagpu -quick -remote http://127.0.0.1:8377 -follow fig3
//	curl localhost:8377/v1/fabric
//
// numagpu -remote submits each experiment to POST /v1/experiments/{name}
// with its own harness scale (divisor, iteration scale, topology) as
// the body; the daemon runs it at that scale, not at its own -divisor,
// -iterscale and -maxctas, so the client's output is byte-identical to
// a local run.
//
// Sweeps submitted to POST /v1/sweeps may set an "obs" field (see
// arch.ObsSpec and docs/OBSERVABILITY.md) to sample per-socket and
// per-link time series — and optionally a Chrome trace — during each
// run; the series ride back in the job result JSON alongside the
// results. Observed runs simulate locally on the coordinator so the
// probes execute (the fabric and warm cache reads are bypassed);
// results are byte-identical either way.
//
// On SIGINT/SIGTERM a coordinator drains its queued jobs and a worker
// drains its leased shards (finishing and shipping in-flight results,
// then deregistering) before exiting.
//
// See the internal/service package documentation for the full API and
// README.md ("Running the service", "Cluster quickstart") for a
// walkthrough.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/exp"
	"repro/internal/service"
)

func main() {
	addr := flag.String("addr", "127.0.0.1:8377", "listen address")
	cacheDir := flag.String("cache", "numagpud-cache", "persistent result cache directory (empty disables)")
	stateDir := flag.String("state-dir", "", "durable coordinator state directory (default: \"state\" under -cache)")
	maxQueue := flag.Int("max-queue", 64, "max queued jobs before submissions are shed with 429")
	tenantQuota := flag.Float64("tenant-quota", 0, "per-tenant admission quota in jobs/minute, keyed by X-Tenant (0 = unlimited)")
	iterScale := flag.Float64("iterscale", 1.0, "workload iteration scale")
	divisor := flag.Int("divisor", 8, "architecture scale divisor")
	maxCTAs := flag.Int("maxctas", 0, "cap grid sizes (0 = uncapped)")
	quick := flag.Bool("quick", false, "quick mode (iterscale 0.25)")
	parallel := flag.Int("j", runtime.GOMAXPROCS(0), "simulations to run in parallel per sweep")
	workers := flag.Int("workers", 2, "jobs executing concurrently")
	leaseTTL := flag.Duration("lease-ttl", 15*time.Second, "declare a fabric worker dead after this long without a poll")
	worker := flag.Bool("worker", false, "run as a fabric worker for -coordinator-url")
	coordURL := flag.String("coordinator-url", "", "coordinator base URL (worker mode)")
	window := flag.Int("window", runtime.GOMAXPROCS(0), "worker max in-flight simulations")
	workerName := flag.String("worker-name", "", "worker display name (default host-pid)")
	verbose := flag.Bool("v", false, "mirror per-run progress to stderr")
	flag.Parse()
	if flag.NArg() != 0 {
		fmt.Fprintf(os.Stderr, "usage: numagpud [flags]\n\nflags:\n")
		flag.PrintDefaults()
		os.Exit(2)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *worker {
		if *coordURL == "" {
			log.Fatalf("numagpud: -worker requires -coordinator-url")
		}
		wcfg := service.WorkerConfig{
			CoordinatorURL: *coordURL,
			Name:           *workerName,
			Window:         *window,
		}
		if *verbose {
			wcfg.Mirror = os.Stderr
		}
		w := service.NewWorker(wcfg)
		hs := &http.Server{Addr: *addr, Handler: w.Handler()}
		go func() {
			if err := hs.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
				log.Fatalf("numagpud: %v", err)
			}
		}()
		log.Printf("numagpud: worker %q joining coordinator %s (window %d, status on http://%s)",
			w.Name(), *coordURL, *window, *addr)
		err := w.Run(ctx) // drains leased shards and deregisters on SIGINT/SIGTERM
		hs.Shutdown(context.Background())
		if err != nil {
			log.Fatalf("numagpud: worker: %v", err)
		}
		log.Printf("numagpud: worker %q drained and deregistered", w.Name())
		return
	}

	opts := exp.Options{
		Divisor:     *divisor,
		IterScale:   *iterScale,
		MaxCTAs:     *maxCTAs,
		Parallelism: *parallel,
	}
	if *quick {
		opts.IterScale = 0.25
	}
	cfg := service.Config{
		Options:     opts,
		CacheDir:    *cacheDir,
		StateDir:    *stateDir,
		TenantQuota: *tenantQuota,
		Workers:     *workers,
		QueueDepth:  *maxQueue,
		LeaseTTL:    *leaseTTL,
	}
	if *verbose {
		cfg.Mirror = os.Stderr
	}
	srv, err := service.New(cfg)
	if err != nil {
		log.Fatalf("numagpud: %v", err)
	}

	if *cacheDir != "" {
		log.Printf("numagpud: result cache at %s", *cacheDir)
	} else {
		log.Printf("numagpud: persistent cache disabled")
	}
	log.Printf("numagpud: listening on http://%s (divisor %d, iterscale %g, %d workers × %d-way sweeps, fabric lease TTL %s)",
		*addr, *divisor, opts.IterScale, *workers, *parallel, *leaseTTL)
	hs := &http.Server{Addr: *addr, Handler: srv}
	go func() {
		<-ctx.Done()
		hs.Shutdown(context.Background())
	}()
	err = hs.ListenAndServe()
	if errors.Is(err, http.ErrServerClosed) {
		log.Printf("numagpud: shutdown signal received, draining jobs")
		srv.Close() // waits for queued and running jobs
		return
	}
	log.Fatalf("numagpud: %v", err)
}
