// Package service implements numagpud: a long-running HTTP/JSON daemon
// that serves the paper's experiments and arbitrary (config, workload)
// sweeps as API resources, on top of the concurrent exp.Runner harness.
//
// The layering, bottom to top:
//
//   - one shared exp.Runner holds the in-memory singleflight memo, so
//     any number of concurrent jobs asking for the same (config,
//     workload) pair share a single simulation;
//   - an optional DiskCache (exp.Cache) sits under the memo, so warm
//     results are served without re-simulating and survive restarts;
//   - a bounded job queue drained by a fixed worker pool runs the
//     requests asynchronously: POST returns a job ID immediately and
//     GET /v1/jobs/{id} polls status and per-run progress.
//
// Endpoints:
//
//	GET  /v1/experiments          list runnable experiments
//	POST /v1/experiments/{name}   enqueue one experiment (optional body:
//	                              the harness scale, ExperimentRequest)
//	POST /v1/sweeps               enqueue a (config, workloads) sweep
//	GET  /v1/jobs                 page through jobs in submission order
//	                              (?limit=&after=, cursor in "next")
//	GET  /v1/jobs/{id}            job status + run progress counters
//	GET  /v1/jobs/{id}/events     typed event stream (SSE; resumable
//	                              via Last-Event-ID)
//	GET  /v1/jobs/{id}/result     deterministic result JSON (done jobs)
//	GET  /v1/cache                cache + run-count statistics
//	GET  /metrics                 Prometheus text format
//	GET  /healthz                 liveness probe (alias: /healthz/live)
//	GET  /healthz/ready           readiness probe (503 while draining
//	                              or replaying the state journal)
//
// Every endpoint reports failures with one JSON envelope,
// {"error": {"code", "message", "retry_after_ms"}}; see errors.go for
// the stable code strings.
//
// Sweep-fabric endpoints (see fabric.go; the daemon is always a
// capable coordinator, and numagpud -worker joins one as a worker):
//
//	GET    /v1/fabric              fleet + shard accounting
//	POST   /v1/fabric/workers      worker registration
//	DELETE /v1/fabric/workers/{id} graceful worker departure
//	POST   /v1/fabric/poll         worker heartbeat/lease/result round trip
//
// Result payloads are deterministic: the same request against the same
// simulator version yields byte-identical /result bodies, whether the
// runs were simulated, memoized, or replayed from the disk cache.
package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/obs"
	"repro/internal/topo"
	"repro/internal/workload"
)

// Config sizes a Server.
type Config struct {
	// Options configures the underlying exp.Runner (divisor, iteration
	// scale, workload set, parallelism within one job). An experiment
	// job that names its own harness scale (ExperimentRequest) replaces
	// the divisor, iteration scale, grid cap, workload set and topology.
	// The Cache and Progress fields are owned by the Server and
	// overwritten.
	Options exp.Options
	// CacheDir, when non-empty, enables the persistent result cache
	// rooted at that directory.
	CacheDir string
	// StateDir roots the coordinator's durable state (job/lease journal
	// + snapshots; see journal.go and docs/ROBUSTNESS.md). Empty
	// defaults to "state" under CacheDir; with no CacheDir either,
	// durability is off and a restart loses queued jobs (the pre-journal
	// behaviour).
	StateDir string
	// TenantQuota, when > 0, is the per-tenant admission quota in jobs
	// per minute (burst: one minute's worth), keyed by the X-Tenant
	// request header; submissions beyond it get 429 + Retry-After.
	TenantQuota float64
	// Workers is the number of queue workers executing jobs
	// concurrently (default 2). Total simulation concurrency is
	// bounded by Workers × Options.Parallelism.
	Workers int
	// QueueDepth bounds the number of queued-but-not-running jobs
	// (default 64, numagpud -max-queue); submissions beyond it are shed
	// with 429 + a Retry-After derived from queue depth × observed
	// per-job latency. In-flight jobs are never shed.
	QueueDepth int
	// Mirror, when non-nil, additionally receives every per-run
	// progress line (numagpud -v wires this to stderr).
	Mirror io.Writer
	// JobRetention bounds how many finished (done or failed) jobs are
	// kept for status/result queries; the oldest finished jobs are
	// evicted beyond it (default 256). Queued and running jobs are
	// never evicted.
	JobRetention int
	// LeaseTTL is how long a registered fabric worker may go without
	// polling before it is declared dead and its leased shards are
	// re-queued (default 15s).
	LeaseTTL time.Duration
	// FabricPoll is the poll/heartbeat interval advertised to fabric
	// workers (default 250ms).
	FabricPoll time.Duration
}

// JobState is the lifecycle of a job: queued → running → done|failed.
type JobState string

const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// job is the server-side record of one submitted request. All mutable
// fields are guarded by Server.mu.
type job struct {
	id       string
	kind     string // "experiment" or "sweep"
	name     string
	scale    *ExperimentRequest // experiment jobs: the client's harness scale
	sweep    *SweepRequest
	tenant   string
	deadline time.Time // zero: none
	state    JobState
	result   []byte
	err      string

	// events is the append-only typed event log served by
	// GET /v1/jobs/{id}/events (see events.go). Not journaled.
	events []JobEvent
	// runsTotal/runsDone/runsCached are the run progress counters:
	// total is known upfront for sweeps (0 for experiments, which
	// discover their runs as they go), done counts this job's unique
	// completed runs, cached the subset resolved without new work.
	runsTotal  int
	runsDone   int
	runsCached int
}

// JobStatus is the wire form of a job returned by the status
// endpoints.
type JobStatus struct {
	ID         string   `json:"id"`
	Kind       string   `json:"kind"`
	Name       string   `json:"name"`
	State      JobState `json:"state"`
	RunsTotal  int      `json:"runs_total,omitempty"`
	RunsDone   int      `json:"runs_done,omitempty"`
	RunsCached int      `json:"runs_cached,omitempty"`
	Error      string   `json:"error,omitempty"`
}

// JobsPage is one page of GET /v1/jobs: jobs in submission order plus
// the cursor to pass as ?after= for the next page (empty on the last
// page). The cursor is a job ID; because IDs are dense and ordered, an
// evicted cursor still resumes at the right place.
type JobsPage struct {
	Jobs []JobStatus `json:"jobs"`
	Next string      `json:"next,omitempty"`
}

// ExperimentInfo describes one runnable experiment.
type ExperimentInfo struct {
	Name string `json:"name"`
	Desc string `json:"desc"`
}

// CacheStatus is the /v1/cache payload: disk footprint plus the
// runner's run accounting.
type CacheStatus struct {
	Enabled     bool   `json:"enabled"`
	Dir         string `json:"dir,omitempty"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Simulations uint64 `json:"simulations"`
}

// Server is the numagpud daemon: an http.Handler plus the worker pool
// behind it. Create with New, release with Close.
type Server struct {
	cfg       Config
	runner    *exp.Runner // the job queue's runner (the configured options)
	runners   *runnerSet  // every runner, by harness scale; shares cache+fabric
	disk      *DiskCache
	fabric    *fabric
	jnl       *journal // nil when durability is off
	admission *admission
	mux       *http.ServeMux
	start     time.Time

	// deadlineJobsCancelled counts jobs failed at dequeue because their
	// deadline had already passed (guarded by mu).
	deadlineJobsCancelled uint64

	mu      sync.Mutex
	closing bool
	jobs    map[string]*job
	order   []string // job IDs in submission order
	active  map[*job]bool
	nextID  int
	queued  int
	// eventCond (on mu) wakes SSE streams when any job gains an event
	// or changes state; see events.go.
	eventCond *sync.Cond

	queue     chan *job
	wg        sync.WaitGroup
	closeOnce sync.Once
}

// New builds a Server, opening the disk cache (if configured) and
// starting the worker pool.
func New(cfg Config) (*Server, error) {
	if cfg.Workers < 1 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth < 1 {
		cfg.QueueDepth = 64
	}
	if cfg.JobRetention < 1 {
		cfg.JobRetention = 256
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 15 * time.Second
	}
	if cfg.FabricPoll <= 0 {
		cfg.FabricPoll = 250 * time.Millisecond
	}
	s := &Server{
		cfg:    cfg,
		start:  time.Now(),
		jobs:   make(map[string]*job),
		active: make(map[*job]bool),
		queue:  make(chan *job, cfg.QueueDepth),
	}
	s.eventCond = sync.NewCond(&s.mu)
	s.admission = newAdmission(cfg.TenantQuota)
	opts := cfg.Options
	opts.Cache = nil // owned by the Server: only the configured DiskCache is wired in
	if cfg.CacheDir != "" {
		disk, err := OpenDiskCache(cfg.CacheDir)
		if err != nil {
			return nil, fmt.Errorf("service: open cache: %w", err)
		}
		s.disk = disk
		opts.Cache = disk
	}
	// Per-run attribution rides the typed event log (each job's
	// Session reports its own completions); the legacy progress writer
	// only feeds the operator mirror now.
	opts.Progress = cfg.Mirror

	// Durable coordinator state: replay the journal (job submissions +
	// shard grants not yet resolved) so a restarted coordinator resumes
	// its in-flight sweeps instead of losing them.
	stateDir := cfg.StateDir
	if stateDir == "" && cfg.CacheDir != "" {
		stateDir = filepath.Join(cfg.CacheDir, "state")
	}
	state := &journalState{Version: 1}
	if stateDir != "" {
		jnl, st, err := openJournal(stateDir)
		if err != nil {
			return nil, fmt.Errorf("service: open state journal: %w", err)
		}
		s.jnl, state = jnl, st
		s.nextID = state.NextJobID
	}

	// Every simulation this server runs is offered to the sweep fabric
	// first; with no registered workers the backend reports unavailable
	// and the runner simulates locally, so a worker-less coordinator
	// behaves exactly like a standalone daemon. Grants recovered from the
	// journal become resumed shards reserved for their pre-restart
	// owners (completed ones dedupe against the disk cache), and any
	// recovery arms the grace window that holds off the local-simulation
	// fallback until the fleet has had a lease TTL to re-register.
	s.fabric = newFabricState(cfg.LeaseTTL, cfg.FabricPoll, s.disk, s.jnl, state.Grants)
	s.fabric.deadlineFn = s.activeDeadline
	if state.recovered() {
		s.fabric.armGrace()
	}
	opts.Backend = fabricBackend{s.fabric}
	s.runners = newRunnerSet(opts)
	s.runner = s.runners.runner(opts)

	// Re-enqueue the journaled jobs that never finished, preserving
	// their IDs so clients polling across the restart reconnect to the
	// same job. Their completed simulations are already in the disk
	// cache, so re-execution costs only the unfinished tail.
	for i := range state.Jobs {
		jr := &state.Jobs[i]
		j := &job{id: jr.ID, kind: jr.Kind, name: jr.Name, scale: jr.Scale, tenant: jr.Tenant, state: JobQueued}
		if jr.DeadlineMs > 0 {
			j.deadline = time.UnixMilli(jr.DeadlineMs)
		}
		if len(jr.Sweep) > 0 {
			var sw SweepRequest
			if json.Unmarshal(jr.Sweep, &sw) == nil {
				j.sweep = &sw
			}
		}
		j.events = []JobEvent{{ID: 1, Type: EventState, State: JobQueued}}
		s.jobs[j.id] = j
		s.order = append(s.order, j.id)
		if err := s.enqueue(j); err != nil {
			// Shrunk queue across the restart: shed the tail explicitly
			// rather than silently losing it.
			j.state = JobFailed
			j.err = "lost across restart: job queue full on replay"
			j.events = append(j.events,
				JobEvent{ID: 2, Type: EventError, Message: j.err},
				JobEvent{ID: 3, Type: EventState, State: JobFailed})
			s.jnl.append(journalRecord{T: "fail", ID: j.id})
			continue
		}
		s.queued++
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/experiments", s.handleListExperiments)
	mux.HandleFunc("POST /v1/experiments/{name}", s.handleSubmitExperiment)
	mux.HandleFunc("POST /v1/sweeps", s.handleSubmitSweep)
	mux.HandleFunc("GET /v1/jobs", s.handleListJobs)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/events", s.handleJobEvents)
	mux.HandleFunc("GET /v1/jobs/{id}/result", s.handleJobResult)
	mux.HandleFunc("GET /v1/cache", s.handleCache)
	mux.HandleFunc("GET /v1/fabric", s.handleFabricStatus)
	mux.HandleFunc("POST /v1/fabric/workers", s.handleFabricRegister)
	mux.HandleFunc("DELETE /v1/fabric/workers/{id}", s.handleFabricDeregister)
	mux.HandleFunc("POST /v1/fabric/poll", s.handleFabricPoll)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	mux.HandleFunc("GET /healthz/live", s.handleHealth)
	mux.HandleFunc("GET /healthz/ready", s.handleReady)
	s.mux = mux

	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.worker()
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Close stops accepting new submissions, shuts the sweep fabric down
// (in-flight leased shards fail over to local simulation so the drain
// cannot hang on a dead fleet), waits for every already-queued job to
// finish, then compacts and closes the state journal so the next start
// replays a clean snapshot. Submissions after Close fail with 503.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		s.mu.Lock()
		s.closing = true
		s.eventCond.Broadcast() // release SSE streams so the drain cannot hang on them
		s.mu.Unlock()
		s.fabric.close()
		close(s.queue)
	})
	s.wg.Wait()
	if s.jnl != nil {
		s.jnl.compact(s.journalSnapshot())
		s.jnl.close()
	}
}

// kill simulates kill -9 for the restart and chaos tests: admission
// stops, the fabric freezes without resolving anything, and the journal
// file handle is dropped without compaction — exactly the state an
// abrupt process death leaves on disk. Queued and running jobs are
// abandoned mid-flight; a replacement Server opened on the same cache
// and state directories recovers them.
func (s *Server) kill() {
	s.mu.Lock()
	s.closing = true
	s.eventCond.Broadcast()
	s.mu.Unlock()
	s.fabric.freeze()
	s.jnl.close()
}

// journalSnapshot captures the durable view of the current state: every
// unfinished job in submission order plus the fabric's live grants.
func (s *Server) journalSnapshot() *journalState {
	st := &journalState{Version: 1}
	s.mu.Lock()
	st.NextJobID = s.nextID
	for _, id := range s.order {
		j := s.jobs[id]
		if j.state != JobQueued && j.state != JobRunning {
			continue
		}
		st.Jobs = append(st.Jobs, s.record(j))
	}
	s.mu.Unlock()
	st.Grants = s.fabric.liveGrants()
	if s.jnl != nil {
		st.Replays = s.jnl.replayCount()
	}
	return st
}

// record builds the durable form of one job. Caller holds s.mu.
func (s *Server) record(j *job) jobRecord {
	jr := jobRecord{ID: j.id, Kind: j.kind, Name: j.name, Scale: j.scale, Tenant: j.tenant}
	if !j.deadline.IsZero() {
		jr.DeadlineMs = j.deadline.UnixMilli()
	}
	if j.sweep != nil {
		if b, err := json.Marshal(j.sweep); err == nil {
			jr.Sweep = b
		}
	}
	return jr
}

// RunnerStats exposes the aggregate run accounting across every runner
// the server holds — the job queue's plus one per distinct harness scale
// an experiment job asked for — used by the restart tests and the
// metrics endpoint.
func (s *Server) RunnerStats() exp.Stats { return s.runners.stats() }

// runnerSet lazily builds one exp.Runner per harness scale, all sharing
// the same cache, progress sink, fabric backend and parallelism. The
// coordinator needs this because experiment jobs may carry their
// client's scale (a -quick client against a default-scale daemon), and
// RunKeys embed that scale — each scale gets its own memo keyspace,
// while the DiskCache below remains shared and keyed collision-free.
// Workers key it by workload scaling alone: a shard's config is
// explicit.
type runnerSet struct {
	base exp.Options

	mu      sync.Mutex
	runners map[runnerScale]*exp.Runner
}

type runnerScale struct {
	divisor   int
	iterScale float64
	maxCTAs   int
	topology  string // canonical encoding; "" for the synthesized crossbar
	workloads bool   // a non-default workload set
}

func newRunnerSet(base exp.Options) *runnerSet {
	return &runnerSet{base: base, runners: make(map[runnerScale]*exp.Runner)}
}

// runner returns the shared Runner for the harness scale of o — its
// Divisor, IterScale, MaxCTAs, Topology and Workloads — creating it on
// first use with the set's execution options. Scale normalization
// mirrors exp.Options so 0 and the default never produce two runners
// with one keyspace.
func (rs *runnerSet) runner(o exp.Options) *exp.Runner {
	opts := rs.base
	opts.Divisor, opts.IterScale, opts.MaxCTAs = o.Divisor, o.IterScale, max(o.MaxCTAs, 0)
	opts.Topology, opts.Workloads = o.Topology, o.Workloads
	if opts.Divisor < 1 {
		opts.Divisor = 8
	}
	if opts.IterScale <= 0 {
		opts.IterScale = 1
	}
	key := runnerScale{divisor: opts.Divisor, iterScale: opts.IterScale, maxCTAs: opts.MaxCTAs, workloads: opts.Workloads != nil}
	if opts.Topology != nil {
		key.topology = opts.Topology.Canonical()
	}
	rs.mu.Lock()
	defer rs.mu.Unlock()
	if r, ok := rs.runners[key]; ok {
		return r
	}
	r := exp.NewRunner(opts)
	rs.runners[key] = r
	return r
}

// stats sums the run counters across every runner in the set.
func (rs *runnerSet) stats() exp.Stats {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	var sum exp.Stats
	for _, r := range rs.runners {
		sum = sum.Add(r.Stats())
	}
	return sum
}

// errQueueFull is returned by submit when the queue is at capacity;
// errClosing when the server is shutting down. Admission maps the
// former to 429 + Retry-After (shed, come back later) and handlers map
// the latter to 503 (going away for good).
var (
	errQueueFull = errors.New("service: job queue full")
	errClosing   = errors.New("service: shutting down")
)

// submitJob is the admission pipeline for one submission: resolve the
// tenant (X-Tenant header) and deadline (X-Deadline-Ms, relative),
// charge the tenant's quota bucket, then register and enqueue. The
// shedding order is deliberate — new submissions are the first and only
// thing shed; anything already queued or running is never revoked by
// load (deadlines are the submitter's own choice).
func (s *Server) submitJob(j *job, r *http.Request) error {
	j.tenant = r.Header.Get("X-Tenant")
	if j.tenant == "" {
		j.tenant = defaultTenant
	}
	if ms := r.Header.Get("X-Deadline-Ms"); ms != "" {
		v, err := strconv.ParseInt(ms, 10, 64)
		if err != nil || v <= 0 {
			return fmt.Errorf("service: bad X-Deadline-Ms %q", ms)
		}
		j.deadline = time.Now().Add(time.Duration(v) * time.Millisecond)
	}
	if err := s.admission.admitTenant(j.tenant); err != nil {
		return err
	}
	if err := s.submit(j); err != nil {
		if errors.Is(err, errQueueFull) {
			s.admission.refundTenant(j.tenant)
			s.mu.Lock()
			queued := s.queued
			s.mu.Unlock()
			return s.admission.rejectFull(j.tenant, queued, s.cfg.Workers)
		}
		return err
	}
	return nil
}

// writeSubmitError renders an admission pipeline failure: 429 with a
// Retry-After header for shed load, 503 for shutdown, 400 for a
// malformed deadline.
func writeSubmitError(w http.ResponseWriter, err error) {
	var ae *admissionError
	switch {
	case errors.As(err, &ae):
		// The envelope code is the admission reason ("quota",
		// "queue_full"), matching the reason label on the rejection
		// metric; Retry-After rides both the header and the body.
		writeAPIErrorRetry(w, http.StatusTooManyRequests, ae.reason, ae.retryAfter, "%v", err)
	case errors.Is(err, errClosing):
		writeAPIError(w, http.StatusServiceUnavailable, codeDraining, "%v", err)
	default:
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
	}
}

func (s *Server) submit(j *job) error {
	// Registration and the non-blocking enqueue happen under one
	// critical section, so a failed enqueue never has to unwind state
	// a concurrent submit may have built on. Workers also take s.mu
	// before touching a dequeued job, so they cannot observe it before
	// registration completes.
	s.mu.Lock()
	if s.closing {
		s.mu.Unlock()
		return errClosing
	}
	s.nextID++
	j.id = fmt.Sprintf("job-%d", s.nextID)
	j.state = JobQueued
	s.appendEventLocked(j, JobEvent{Type: EventState, State: JobQueued})
	if err := s.enqueue(j); err != nil {
		s.mu.Unlock()
		return err
	}
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	s.queued++
	rec := s.record(j)
	s.mu.Unlock()
	s.jnl.append(journalRecord{T: "submit", Job: &rec})
	return nil
}

// enqueue pushes without blocking, converting both a full queue and a
// closed queue (send on closed channel panics) into errQueueFull.
func (s *Server) enqueue(j *job) (err error) {
	defer func() {
		if recover() != nil {
			err = errQueueFull
		}
	}()
	select {
	case s.queue <- j:
		return nil
	default:
		return errQueueFull
	}
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		// A job whose deadline passed while it waited is cancelled at
		// dequeue — it never started, so nothing in flight is shed.
		s.mu.Lock()
		if !j.deadline.IsZero() && time.Now().After(j.deadline) {
			j.state = JobFailed
			j.err = "deadline exceeded before start"
			s.appendEventLocked(j, JobEvent{Type: EventError, Message: j.err})
			s.appendEventLocked(j, JobEvent{Type: EventState, State: JobFailed})
			s.queued--
			s.deadlineJobsCancelled++
			s.evictLocked()
			s.mu.Unlock()
			s.jnl.append(journalRecord{T: "fail", ID: j.id})
			continue
		}
		j.state = JobRunning
		s.appendEventLocked(j, JobEvent{Type: EventState, State: JobRunning})
		s.queued--
		s.active[j] = true
		s.mu.Unlock()

		start := time.Now()
		payload, err := s.execute(j)
		s.admission.observe(time.Since(start))

		// The terminal state event is appended in the same critical
		// section as the state flip, so a streaming reader never sees a
		// terminal state without its closing event (or vice versa).
		s.mu.Lock()
		delete(s.active, j)
		rec := journalRecord{T: "done", ID: j.id}
		if err != nil {
			j.state = JobFailed
			j.err = err.Error()
			s.appendEventLocked(j, JobEvent{Type: EventError, Message: j.err})
			s.appendEventLocked(j, JobEvent{Type: EventState, State: JobFailed})
			rec.T = "fail"
		} else {
			j.state = JobDone
			j.result = payload
			s.appendEventLocked(j, JobEvent{Type: EventState, State: JobDone})
		}
		s.evictLocked()
		s.mu.Unlock()
		s.jnl.append(rec)
	}
}

// activeDeadline is the job-level deadline the fabric stamps on new
// shards. Shards cannot be attributed to a single job (concurrent jobs
// share shards through the memo), so the answer is conservative: the
// latest deadline across running jobs, and no deadline at all if any
// running job has none.
func (s *Server) activeDeadline() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	var max time.Time
	for j := range s.active {
		if j.deadline.IsZero() {
			return time.Time{}
		}
		if j.deadline.After(max) {
			max = j.deadline
		}
	}
	return max
}

// evictLocked drops the oldest finished jobs beyond Config.JobRetention
// so a long-running daemon's job table (and the result payloads it
// pins) stays bounded. Caller holds s.mu.
func (s *Server) evictLocked() {
	finished := 0
	for _, id := range s.order {
		if st := s.jobs[id].state; st == JobDone || st == JobFailed {
			finished++
		}
	}
	if finished <= s.cfg.JobRetention {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		st := s.jobs[id].state
		if (st == JobDone || st == JobFailed) && finished > s.cfg.JobRetention {
			delete(s.jobs, id)
			finished--
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

// execute runs one job to completion, converting simulation panics
// (e.g. an invalid configuration reaching core.MustSystem) into job
// failures instead of killing the worker.
func (s *Server) execute(j *job) (payload []byte, err error) {
	defer func() {
		if p := recover(); p != nil {
			err = fmt.Errorf("simulation panic: %v", p)
		}
	}()
	switch j.kind {
	case "experiment":
		e, ok := exp.ExperimentByName(j.name)
		if !ok { // submit validated; registry changed underneath?
			return nil, fmt.Errorf("unknown experiment %q", j.name)
		}
		runner := s.runner
		if j.scale != nil {
			runner = s.runners.runner(exp.Options{Divisor: j.scale.Divisor, IterScale: j.scale.IterScale, Topology: j.scale.Topology})
		}
		// Experiments discover their runs as they go, so the total is
		// unknown upfront: the job streams run_done events with no
		// Total and reports runs_done only.
		res := e.Run(runner.Session(s.runCallback(j, 0)))
		return json.Marshal(e.Named(res))
	case "sweep":
		cfg, specs, err := s.sweepPlan(j.sweep)
		if err != nil {
			return nil, err
		}
		reqs := make([]exp.RunRequest, len(specs))
		for i, spec := range specs {
			reqs[i] = exp.RunRequest{Cfg: cfg, Spec: spec}
		}
		s.mu.Lock()
		j.runsTotal = len(reqs)
		s.mu.Unlock()
		if j.sweep.Obs != nil && j.sweep.Obs.Enabled() {
			return s.executeObservedSweep(j, reqs)
		}
		// Delta planning: resolve every key against the memo and the
		// disk cache before dispatch, so only the uncovered delta
		// reaches the fabric backend or the local pool. Cache hits are
		// promoted into the memo here; the session below then reports
		// them as cached completions without any new work.
		plan := s.runner.Plan(reqs)
		s.appendEvent(j, JobEvent{Type: EventProgress, Message: fmt.Sprintf(
			"planned %d runs: %d cached, %d in flight, %d to execute",
			len(reqs), len(plan.Cached), len(plan.Inflight), len(plan.Todo))})
		results := s.runner.Session(s.runCallback(j, len(reqs))).RunAll(reqs)
		return json.Marshal(struct {
			Results []core.Result `json:"results"`
		}{results})
	}
	return nil, fmt.Errorf("unknown job kind %q", j.kind)
}

// runCallback builds the exp.Session callback attributing one job's run
// completions: it advances the job's progress counters and appends a
// run_done event referencing the run's content address. total is 0 when
// unknown (experiments).
func (s *Server) runCallback(j *job, total int) func(string, core.Result, exp.RunSource) {
	return func(key string, res core.Result, src exp.RunSource) {
		s.mu.Lock()
		j.runsDone++
		if src == exp.SourceCached {
			j.runsCached++
		}
		s.appendEventLocked(j, JobEvent{Type: EventRunDone, Run: &RunDone{
			Run:      runID(key),
			Workload: res.Name,
			Source:   src,
			Cycles:   res.Cycles,
			Done:     j.runsDone,
			Total:    total,
		}})
		s.mu.Unlock()
	}
}

// executeObservedSweep runs a sweep whose request asked for
// observability series. Observed runs always simulate locally (the
// runner skips both the disk-cache read path and the fabric backend so
// the probes actually execute), so they get a dedicated one-off Runner:
// its Obs options must not leak into the shared runner's memo, while the
// disk cache underneath stays shared — observation does not change
// results, so the Put-side bytes are identical and warm later unobserved
// sweeps. The payload gains an "obs" array aligned index-for-index with
// "results".
func (s *Server) executeObservedSweep(j *job, reqs []exp.RunRequest) ([]byte, error) {
	req := j.sweep
	opts := s.runner.Options()
	opts.Obs = *req.Obs
	var obsMu sync.Mutex
	byKey := make(map[string]*SweepObs)
	opts.ObsSink = func(key string, spec workload.Spec, col *obs.Collector) {
		entry := &SweepObs{Workload: spec.Name, Series: col.SeriesDocument()}
		if t := col.Trace(); t != nil {
			var buf bytes.Buffer
			if err := col.WriteTrace(&buf); err == nil {
				entry.Trace = json.RawMessage(bytes.TrimSpace(buf.Bytes()))
			}
		}
		obsMu.Lock()
		byKey[key] = entry
		obsMu.Unlock()
	}
	runner := exp.NewRunner(opts)
	results := runner.Session(s.runCallback(j, len(reqs))).RunAll(reqs)
	obsOut := make([]*SweepObs, len(reqs))
	for i, rr := range reqs {
		obsOut[i] = byKey[runner.RunKey(rr.Cfg, rr.Spec)]
	}
	return json.Marshal(struct {
		Results []core.Result `json:"results"`
		Obs     []*SweepObs   `json:"obs"`
	}{results, obsOut})
}

// SweepObs is one run's observability record in an observed sweep's
// result payload: the sampled series document plus, when tracing was
// requested, the complete Chrome-trace JSON object.
type SweepObs struct {
	Workload string          `json:"workload"`
	Series   obs.SeriesDoc   `json:"series"`
	Trace    json.RawMessage `json:"trace,omitempty"`
}

// ExperimentRequest is the optional POST /v1/experiments/{name} body:
// the harness scale to run the experiment at, exactly the numagpu
// flags -divisor, -iterscale (or -quick) and -topology. A job with a
// body runs on the runner for that scale — built like numagpu's, with
// the default workload set and no grid cap, plus the daemon's
// parallelism, disk cache and fabric — so its result is byte-identical
// to the same experiment run locally by numagpu. Without a body the
// daemon's own options apply. Zero values take numagpu's defaults
// (divisor 8, iteration scale 1, the synthesized crossbar).
type ExperimentRequest struct {
	Divisor   int            `json:"divisor,omitempty"`
	IterScale float64        `json:"iter_scale,omitempty"`
	Topology  *topo.Topology `json:"topology,omitempty"`
}

// SweepRequest is the POST /v1/sweeps body: a named configuration
// preset plus overrides, applied to a list of workloads. The response
// job's result is {"results":[core.Result...]} in workload order, plus
// a parallel "obs" array when the request enables observability.
type SweepRequest struct {
	// Preset selects the starting configuration: "base" (locality-
	// optimized software runtime, the default), "traditional"
	// (fine-grain single-GPU policies), "numa-aware" (the paper's full
	// proposal), or "monolithic" (the hypothetical Sockets× larger
	// single GPU).
	Preset string `json:"preset,omitempty"`
	// Sockets is the socket count (default 4); for "monolithic" it is
	// the size factor of the single GPU.
	Sockets int `json:"sockets,omitempty"`
	// Workloads lists Table 2 workload names; empty means the server's
	// full configured workload set.
	Workloads []string `json:"workloads,omitempty"`
	// Topology, when present, replaces the synthesized symmetric
	// crossbar with an explicit link graph (see docs/TOPOLOGY.md). Its
	// socket count must match Sockets; invalid topologies are rejected
	// with 400. Ignored for the "monolithic" preset, which has no
	// inter-socket fabric.
	Topology *topo.Topology `json:"topology,omitempty"`

	// Optional overrides applied on top of the preset.
	CacheMode      string `json:"cache_mode,omitempty"` // mem-side-local | static-partition | shared-coherent | numa-aware
	LinkMode       string `json:"link_mode,omitempty"`  // static | dynamic
	LinkSampleTime int    `json:"link_sample_time,omitempty"`
	LaneSwitchTime int    `json:"lane_switch_time,omitempty"`
	L2WriteThrough bool   `json:"l2_write_through,omitempty"`

	// Obs, when present and enabled, samples per-socket and per-link
	// time series (and optionally a Chrome trace) during every run of
	// the sweep; the job result then carries an "obs" array aligned
	// with "results". Observed runs always simulate locally on the
	// serving daemon — the fabric and warm disk-cache entries are
	// bypassed so the probes execute — making observed sweeps slower
	// than plain ones. Results themselves are unchanged: observation is
	// excluded from cache keys and enforced byte-inert.
	Obs *arch.ObsSpec `json:"obs,omitempty"`
}

var cacheModes = map[string]arch.CacheMode{
	"mem-side-local":   arch.CacheMemSideLocal,
	"static-partition": arch.CacheStaticPartition,
	"shared-coherent":  arch.CacheSharedCoherent,
	"numa-aware":       arch.CacheNUMAAware,
}

var linkModes = map[string]arch.LinkMode{
	"static":  arch.LinkStatic,
	"dynamic": arch.LinkDynamic,
}

// sweepPlan resolves a SweepRequest into a validated configuration and
// workload list. Errors are client errors (HTTP 400).
func (s *Server) sweepPlan(req *SweepRequest) (arch.Config, []workload.Spec, error) {
	sockets := req.Sockets
	if sockets == 0 {
		sockets = 4
	}
	var cfg arch.Config
	switch req.Preset {
	case "", "base":
		cfg = s.runner.Base(sockets)
	case "traditional":
		cfg = s.runner.Traditional(sockets)
	case "numa-aware":
		cfg = s.runner.NUMAAware(sockets)
	case "monolithic":
		cfg = s.runner.Monolithic(sockets)
	default:
		return arch.Config{}, nil, fmt.Errorf("unknown preset %q (want base, traditional, numa-aware or monolithic)", req.Preset)
	}
	if req.CacheMode != "" {
		m, ok := cacheModes[req.CacheMode]
		if !ok {
			return arch.Config{}, nil, fmt.Errorf("unknown cache_mode %q", req.CacheMode)
		}
		cfg.CacheMode = m
	}
	if req.LinkMode != "" {
		m, ok := linkModes[req.LinkMode]
		if !ok {
			return arch.Config{}, nil, fmt.Errorf("unknown link_mode %q", req.LinkMode)
		}
		cfg.LinkMode = m
	}
	if req.LinkSampleTime > 0 {
		cfg.LinkSampleTime = req.LinkSampleTime
	}
	if req.LaneSwitchTime > 0 {
		cfg.LaneSwitchTime = req.LaneSwitchTime
	}
	if req.L2WriteThrough {
		cfg.L2WriteThrough = true
	}
	if req.Topology != nil && req.Preset != "monolithic" {
		cfg.Topology = req.Topology
	}
	if req.Obs != nil {
		// Validate the spec against the resolved config exactly as a
		// local run would (the runner applies it after key computation,
		// so it is absent from cfg here).
		probe := cfg
		probe.Obs = *req.Obs
		if err := probe.Validate(); err != nil {
			return arch.Config{}, nil, err
		}
	}
	if err := cfg.Validate(); err != nil {
		return arch.Config{}, nil, err
	}

	var specs []workload.Spec
	if len(req.Workloads) == 0 {
		specs = s.runner.Options().Workloads
	} else {
		for _, name := range req.Workloads {
			spec, ok := workload.ByName(name)
			if !ok {
				return arch.Config{}, nil, fmt.Errorf("unknown workload %q", name)
			}
			specs = append(specs, spec)
		}
	}
	return cfg, specs, nil
}

// --- HTTP handlers ---

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func (s *Server) handleListExperiments(w http.ResponseWriter, r *http.Request) {
	var infos []ExperimentInfo
	for _, e := range exp.Experiments() {
		infos = append(infos, ExperimentInfo{Name: e.Name, Desc: e.Desc})
	}
	writeJSON(w, http.StatusOK, infos)
}

func (s *Server) handleSubmitExperiment(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("name")
	if _, ok := exp.ExperimentByName(name); !ok {
		writeAPIError(w, http.StatusNotFound, codeNotFound, "unknown experiment %q", name)
		return
	}
	j := &job{kind: "experiment", name: name}
	var req ExperimentRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != io.EOF { // io.EOF: no body, the daemon's own options
		if err == nil && req.Topology != nil {
			err = req.Topology.Validate()
		}
		if err != nil {
			writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad experiment request: %v", err)
			return
		}
		j.scale = &req
	}
	if err := s.submitJob(j, r); err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(j))
}

func (s *Server) handleSubmitSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad sweep request: %v", err)
		return
	}
	// Validate now so the client gets a 400 instead of a failed job.
	if _, _, err := s.sweepPlan(&req); err != nil {
		writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "%v", err)
		return
	}
	name := req.Preset
	if name == "" {
		name = "base"
	}
	j := &job{kind: "sweep", name: name, sweep: &req}
	if err := s.submitJob(j, r); err != nil {
		writeSubmitError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, s.status(j))
}

// status snapshots a job's wire form; callers must not hold s.mu.
func (s *Server) status(j *job) JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.statusLocked(j)
}

// statusLocked builds the wire form of one job. Caller holds s.mu.
func (s *Server) statusLocked(j *job) JobStatus {
	return JobStatus{
		ID: j.id, Kind: j.kind, Name: j.name, State: j.state,
		RunsTotal: j.runsTotal, RunsDone: j.runsDone, RunsCached: j.runsCached,
		Error: j.err,
	}
}

// defaultJobsPageLimit caps one GET /v1/jobs page when the client sends
// no ?limit= (and bounds what it may ask for).
const (
	defaultJobsPageLimit = 100
	maxJobsPageLimit     = 1000
)

// jobNumber extracts the ordinal from a "job-N" ID. Cursors compare by
// this number, so a cursor whose job has been evicted (or that was
// itself the last of a page later evicted) still resumes exactly where
// the previous page ended instead of failing.
func jobNumber(id string) (int, bool) {
	num, ok := strings.CutPrefix(id, "job-")
	if !ok {
		return 0, false
	}
	n, err := strconv.Atoi(num)
	if err != nil || n < 0 {
		return 0, false
	}
	return n, true
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	limit := defaultJobsPageLimit
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad limit %q (want a positive integer)", v)
			return
		}
		limit = min(n, maxJobsPageLimit)
	}
	after := -1
	if v := q.Get("after"); v != "" {
		n, ok := jobNumber(v)
		if !ok {
			writeAPIError(w, http.StatusBadRequest, codeInvalidArgument, "bad cursor %q (want a job ID)", v)
			return
		}
		after = n
	}
	s.mu.Lock()
	page := JobsPage{Jobs: []JobStatus{}}
	for _, id := range s.order {
		if n, ok := jobNumber(id); ok && n <= after {
			continue
		}
		if len(page.Jobs) == limit {
			// More jobs remain beyond this page: hand back the last
			// included ID as the cursor.
			page.Next = page.Jobs[len(page.Jobs)-1].ID
			break
		}
		page.Jobs = append(page.Jobs, s.statusLocked(s.jobs[id]))
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, page)
}

func (s *Server) lookup(id string) (*job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeAPIError(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.status(j))
}

func (s *Server) handleJobResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		writeAPIError(w, http.StatusNotFound, codeNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	s.mu.Lock()
	state, result, errMsg := j.state, j.result, j.err
	s.mu.Unlock()
	switch state {
	case JobDone:
		// The stored bytes are served verbatim: byte-identical replies
		// for identical requests, across restarts.
		w.Header().Set("Content-Type", "application/json")
		w.Write(result)
	case JobFailed:
		writeAPIError(w, http.StatusInternalServerError, codeJobFailed, "job failed: %s", errMsg)
	default:
		writeAPIError(w, http.StatusConflict, codeNotReady, "job %s is %s", j.id, state)
	}
}

func (s *Server) handleCache(w http.ResponseWriter, r *http.Request) {
	rs := s.runner.Stats()
	st := CacheStatus{
		Enabled:     s.disk != nil,
		Hits:        rs.CacheHits,
		Misses:      rs.CacheMisses,
		Simulations: rs.Simulations,
	}
	if s.disk != nil {
		ds := s.disk.Stats()
		st.Dir, st.Entries, st.Bytes = s.disk.Dir(), ds.Entries, ds.Bytes
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReady is the readiness half of the health split: the process is
// alive (handleHealth) the moment it serves HTTP, but not ready while
// it is shutting down or while a freshly-restarted coordinator is still
// inside its recovery grace window waiting for the fleet to
// re-register. Load balancers should route on this one.
func (s *Server) handleReady(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	switch {
	case closing:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.fabric.recovering():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "replaying"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}
