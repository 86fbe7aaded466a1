package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/service"
	"repro/internal/stats"
	"repro/internal/workload"
)

// sweepConfig is the configuration part of a POST /v1/sweeps request.
type sweepConfig struct {
	preset     string
	sockets    int
	linkSample int // 0: the preset's own
}

func (c sweepConfig) id() string { return fmt.Sprintf("%s/%d/%d", c.preset, c.sockets, c.linkSample) }

// arch resolves the configuration the way the daemon does for a sweep
// request, so the benchmark can compute the same RunKeys.
func (c sweepConfig) arch(r *exp.Runner) arch.Config {
	var cfg arch.Config
	if c.preset == "numa-aware" {
		cfg = r.NUMAAware(c.sockets)
	} else {
		cfg = r.Base(c.sockets)
	}
	if c.linkSample > 0 {
		cfg.LinkSampleTime = c.linkSample
	}
	return cfg
}

// warmConfigs are the configurations set-up simulates for every
// workload: Figure 11's one GPU and NUMA-aware 2/4/8 sockets, so the
// served results also give the paper's headline speedups.
var warmConfigs = []sweepConfig{
	{preset: "base", sockets: 1},
	{preset: "numa-aware", sockets: 2},
	{preset: "numa-aware", sockets: 4},
	{preset: "numa-aware", sockets: 8},
}

type serveParams struct {
	mixed     bool
	opts      exp.Options // the daemon's harness size
	workloads []workload.Spec
	sizeMin   int // workloads per warm job
	sizeMax   int
	freshSize int     // workloads per fresh job
	shapes    int     // job shapes per class that the stream repeats
	tailQ     float64 // fixed tail quantile, ≥10 samples beyond it at the default run length
	setups    int     // daemon starts timed for setup_s
	warmup    time.Duration
	corrupt   func([]byte) // see checker.corrupt
}

func defaultServe(mixed bool) serveParams {
	p := serveParams{
		mixed:     mixed,
		opts:      exp.QuickOptions(),
		workloads: workload.Table(),
		sizeMin:   4,
		sizeMax:   12,
		freshSize: 5,
		shapes:    8,
		tailQ:     0.99,
		setups:    15,
		// The first seconds of load run slower (the memo fills, the heap
		// and connection pools grow); they are checked but not timed.
		warmup: 3 * time.Second,
	}
	if mixed {
		p.tailQ = 0.9
	}
	return p
}

// jobSpec is one sweep a client submits.
type jobSpec struct {
	cfg   sweepConfig
	names []string
	fresh bool   // a configuration no earlier job used
	shape int    // which of its class's shapes the job repeats
	key   string // identical requests share it
}

func (j jobSpec) request() service.SweepRequest {
	return service.SweepRequest{Preset: j.cfg.preset, Sockets: j.cfg.sockets, Workloads: j.names, LinkSampleTime: j.cfg.linkSample}
}

// generator is the seeded job stream both clients draw from. It deals a
// fixed set of job shapes up front and then repeats them in turn, so
// that every shape recurs across the run and can be timed at its best
// repeat, as fig11-cold times each run. A warm shape is a warm
// configuration and a workload subset, and its repeats are identical
// requests. A fresh shape is a workload subset; each repeat goes to a
// configuration no job used before, so it is new work every time.
// Sizes, workloads and warm configurations are dealt from reshuffled
// decks rather than drawn independently, and fresh and warm shapes have
// workload decks of their own, so every seed does close to the same
// amount of work. In serve-mixed each fresh configuration is queued
// twice, for the two clients back to back, and followed by one warm
// read.
type generator struct {
	mu      sync.Mutex
	p       *serveParams
	shapes  [2][]jobSpec // indexed by jobSpec.fresh; fresh ones lack cfg
	issued  [2]int
	pending []jobSpec
	step    int
	lsBase  int
}

// deck deals 0..n-1 from reshuffled permutations, so that over any
// stretch of a run every value comes up about equally often.
type deck struct {
	n     int
	cards []int
}

func (d *deck) deal(rng *rand.Rand) int {
	if len(d.cards) == 0 {
		d.cards = rng.Perm(d.n)
	}
	c := d.cards[0]
	d.cards = d.cards[1:]
	return c
}

func newGenerator(seed int64, p *serveParams) *generator {
	rng := rand.New(rand.NewSource(seed))
	g := &generator{p: p}
	cfgs, sizes := deck{n: len(warmConfigs)}, deck{n: p.sizeMax - p.sizeMin + 1}
	for class := range g.shapes {
		// Fresh shapes are the same for every seed: the median job of
		// serve-mixed is a fresh one, and regrouping the workloads would
		// move it with the seed. The seed still picks the warm shapes,
		// the fresh configurations and where the cycle starts.
		names, pick := deck{n: len(p.workloads)}, rng
		if class == 1 {
			pick = rand.New(rand.NewSource(1))
		}
		for i := 0; i < p.shapes; i++ {
			n, cfg := p.freshSize, sweepConfig{}
			if class == 0 {
				n, cfg = p.sizeMin+sizes.deal(rng), warmConfigs[cfgs.deal(rng)]
			}
			n = min(n, len(p.workloads))
			seen := map[int]bool{}
			var picked []string
			for len(picked) < n {
				if w := names.deal(pick); !seen[w] {
					seen[w] = true
					picked = append(picked, p.workloads[w].Name)
				}
			}
			g.shapes[class] = append(g.shapes[class], jobSpec{cfg: cfg, names: picked, fresh: class == 1, shape: i})
		}
	}
	// Fresh link sample times start above the scaled default (500), so
	// none collides with a warm configuration, and never repeat.
	g.lsBase = 501 + rng.Intn(500)
	g.issued = [2]int{rng.Intn(p.shapes), rng.Intn(p.shapes)}
	return g
}

func (g *generator) next() jobSpec {
	g.mu.Lock()
	defer g.mu.Unlock()
	if len(g.pending) > 0 {
		j := g.pending[0]
		g.pending = g.pending[1:]
		return j
	}
	g.step++
	class := 0
	if g.p.mixed && g.step%2 == 1 {
		class = 1
	}
	j := g.shapes[class][g.issued[class]%len(g.shapes[class])]
	if j.fresh {
		j.cfg = sweepConfig{preset: "numa-aware", sockets: 4, linkSample: g.lsBase + g.issued[class]}
	}
	j.key = j.cfg.id() + "|" + strings.Join(j.names, ",")
	if j.fresh {
		g.pending = append(g.pending, j)
	}
	g.issued[class]++
	return j
}

// checker holds the reference bytes every served result must match.
type checker struct {
	// corrupt, when set, alters the first body checked; the self-test
	// uses it to prove that a wrong byte counts as a failure.
	corrupt func([]byte)

	mu     sync.Mutex
	runs   map[string][]byte   // config id|workload → the run's result JSON
	bodies map[string][32]byte // jobSpec.key → digest of the first body
	fresh  map[string]bool     // config id|workload of every fresh run requested
}

func newChecker() *checker {
	return &checker{runs: map[string][]byte{}, bodies: map[string][32]byte{}, fresh: map[string]bool{}}
}

// check reports whether body is a well-formed result for spec whose
// bytes equal the first response to the same request and whose every
// run equals the reference for that run: the set-up simulation for a
// warm configuration, the first served copy for a fresh one.
func (c *checker) check(spec jobSpec, body []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.corrupt != nil {
		body = append([]byte(nil), body...)
		c.corrupt(body)
		c.corrupt = nil
	}
	var doc struct {
		Results []json.RawMessage `json:"results"`
	}
	if json.Unmarshal(body, &doc) != nil || len(doc.Results) != len(spec.names) {
		return false
	}
	sum := sha256.Sum256(body)
	if first, ok := c.bodies[spec.key]; ok && first != sum {
		return false
	}
	c.bodies[spec.key] = sum
	for i, raw := range doc.Results {
		k := spec.cfg.id() + "|" + spec.names[i]
		want, ok := c.runs[k]
		if !ok {
			c.runs[k] = append([]byte(nil), raw...)
			continue
		}
		if !bytes.Equal(want, raw) {
			return false
		}
	}
	return true
}

func (c *checker) noteFresh(spec jobSpec) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range spec.names {
		c.fresh[spec.cfg.id()+"|"+n] = true
	}
}

// daemon is an in-process numagpud behind a loopback HTTP server, plus,
// in serve-mixed, one in-process fabric worker.
type daemon struct {
	srv    *service.Server
	hs     *http.Server
	url    string
	worker *service.Worker
	stopW  context.CancelFunc
	doneW  chan error
	probe  *http.Client
}

func startDaemon(p *serveParams, par int, cacheDir string) (*daemon, error) {
	srv, err := service.New(service.Config{Options: p.opts, CacheDir: cacheDir})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: srv}, url: "http://" + ln.Addr().String(), probe: &http.Client{Timeout: 10 * time.Second}}
	go d.hs.Serve(ln)
	if err := d.await(func() bool {
		resp, err := d.probe.Get(d.url + "/healthz/ready")
		if err != nil {
			return false
		}
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}); err != nil {
		d.stop()
		return nil, err
	}
	if p.mixed {
		d.worker = service.NewWorker(service.WorkerConfig{CoordinatorURL: d.url, Name: "perfbench", Window: par, HTTPClient: &http.Client{}})
		ctx, cancel := context.WithCancel(context.Background())
		d.stopW, d.doneW = cancel, make(chan error, 1)
		go func() { d.doneW <- d.worker.Run(ctx) }()
		if err := d.await(func() bool {
			m, err := d.metrics()
			return err == nil && m["numagpud_fabric_workers"] == 1
		}); err != nil {
			d.stop()
			return nil, err
		}
	}
	return d, nil
}

// await polls cond for up to ten seconds.
func (d *daemon) await(cond func() bool) error {
	for t0 := time.Now(); time.Since(t0) < 10*time.Second; time.Sleep(100 * time.Microsecond) {
		if cond() {
			return nil
		}
	}
	return errors.New("daemon did not become ready")
}

// stop drains the worker, the HTTP server and the daemon, in that
// order, and returns once all of them have ended.
func (d *daemon) stop() error {
	var err error
	if d.worker != nil {
		d.stopW()
		err = <-d.doneW
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if e := d.hs.Shutdown(ctx); e != nil && err == nil {
		err = e
	}
	d.srv.Close()
	d.probe.CloseIdleConnections()
	return err
}

// metrics scrapes /metrics, summing each metric over its labels.
func (d *daemon) metrics() (map[string]float64, error) {
	resp, err := d.probe.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	var b bytes.Buffer
	if _, err := b.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(b.String(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		name := line[:i]
		if j := strings.IndexByte(name, '{'); j >= 0 {
			name = name[:j]
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[name] += v
		}
	}
	return out, nil
}

// jobRecord is what a client saw of one job, times from submission.
type jobRecord struct {
	spec                 jobSpec
	ok, rejected         bool
	submit, queue, exec  time.Duration
	result, total, first time.Duration
	firstRemote          time.Duration // running to first remote run_done; 0: none
	events               int
}

// loadClient is one closed-loop client: it submits a sweep, follows its
// event stream to the end, fetches the result, and only then submits
// the next. Each has its own single connection.
type loadClient struct {
	id   int
	cl   *service.Client
	tr   *http.Transport
	warm bool // serve-warm: every run must come from the cache
}

// cycle runs one job and returns what the client saw and the result
// bytes it received.
func (c *loadClient) cycle(spec jobSpec, chk *checker, tr *tracer) (jobRecord, []byte) {
	var traceStart time.Duration
	if tr != nil {
		traceStart = tr.now()
	}
	rec := jobRecord{spec: spec}
	t0 := time.Now()
	st, err := c.cl.SubmitSweep(spec.request())
	tSub := time.Now()
	if err != nil {
		var ae *service.Error
		rec.rejected = errors.As(err, &ae) && ae.Status == http.StatusTooManyRequests
		return rec, nil
	}
	if spec.fresh {
		chk.noteFresh(spec)
	}
	var tRun, tDone, tFirst, tRemote time.Time
	var final service.JobState
	cachedOnly := true
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = c.cl.StreamJob(ctx, st.ID, func(ev service.JobEvent) error {
		now := time.Now()
		rec.events++
		switch ev.Type {
		case service.EventState:
			switch ev.State {
			case service.JobRunning:
				tRun = now
			case service.JobDone, service.JobFailed:
				tDone, final = now, ev.State
			}
		case service.EventRunDone:
			if tFirst.IsZero() {
				tFirst = now
			}
			if ev.Run.Source == exp.SourceRemote && tRemote.IsZero() {
				tRemote = now
			}
			if ev.Run.Source != exp.SourceCached && ev.Run.Source != exp.SourceCoalesced {
				cachedOnly = false
			}
		}
		return nil
	})
	tRes := time.Now()
	var body []byte
	if err == nil {
		body, err = c.cl.Result(st.ID)
	}
	tEnd := time.Now()
	if err != nil || final != service.JobDone || tRun.IsZero() {
		return rec, nil
	}
	rec.ok = chk.check(spec, body) && (!c.warm || cachedOnly)
	rec.submit, rec.queue, rec.exec = tSub.Sub(t0), tRun.Sub(tSub), tDone.Sub(tRun)
	rec.result, rec.total = tEnd.Sub(tRes), tEnd.Sub(t0)
	if !tFirst.IsZero() {
		rec.first = tFirst.Sub(t0)
	}
	if !tRemote.IsZero() {
		rec.firstRemote = tRemote.Sub(tRun)
	}
	if tr != nil {
		lane := c.id + 1
		root := tr.reserve()
		at := func(t time.Time) time.Duration { return traceStart + t.Sub(t0) }
		tr.add("service.submit", at(t0), at(tSub), root, st.ID, lane)
		tr.add("service.queue", at(tSub), at(tRun), root, st.ID, lane)
		tr.add("service.exec", at(tRun), at(tDone), root, st.ID, lane)
		tr.add("service.result", at(tRes), at(tEnd), root, st.ID, lane)
		tr.fill(root, "bench.job", at(t0), at(tEnd), 0, st.ID, lane)
	}
	return rec, body
}

// loadPhase runs the clients closed-loop; each starts new jobs until d
// has elapsed and then finishes the one it holds. wall ends when the
// last client stops.
func loadPhase(clients []*loadClient, gen *generator, chk *checker, d time.Duration, tr *tracer) ([]jobRecord, time.Duration) {
	var mu sync.Mutex
	var recs []jobRecord
	var wg sync.WaitGroup
	t0 := time.Now()
	for _, c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				rec, _ := c.cycle(gen.next(), chk, tr)
				mu.Lock()
				recs = append(recs, rec)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return recs, time.Since(t0)
}

// serve is serve-warm or serve-mixed: an in-process numagpud over a
// disk cache that set-up warmed by simulating the warm configurations
// for every workload.
func serve(e env, p serveParams) (outcome, error) {
	p.opts.Parallelism = e.par
	p.opts.Workloads = p.workloads
	dir, err := os.MkdirTemp(e.work, "serve-")
	if err != nil {
		return outcome{}, err
	}
	defer os.RemoveAll(dir)
	cacheDir := dir + "/cache"

	// Warm the disk cache: these results are also the reference every
	// served run is checked against.
	disk, err := service.OpenDiskCache(cacheDir)
	if err != nil {
		return outcome{}, err
	}
	wopts := p.opts
	wopts.Cache = disk
	warm := exp.NewRunner(wopts)
	var reqs []exp.RunRequest
	for _, c := range warmConfigs {
		for _, s := range p.workloads {
			reqs = append(reqs, exp.RunRequest{Cfg: c.arch(warm), Spec: s})
		}
	}
	chk := newChecker()
	chk.corrupt = p.corrupt
	for i, res := range warm.RunAll(reqs) {
		b, err := json.Marshal(res)
		if err != nil {
			return outcome{}, err
		}
		chk.runs[warmConfigs[i/len(p.workloads)].id()+"|"+reqs[i].Spec.Name] = b
	}

	// Set-up proper: start the daemon (and worker) over the warm
	// directory, as a restarted numagpud would; timed several times.
	var setups []time.Duration
	var d *daemon
	for i := 0; i < p.setups; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return outcome{}, err
			}
		}
		t0 := time.Now()
		if d, err = startDaemon(&p, e.par, cacheDir); err != nil {
			return outcome{}, err
		}
		setups = append(setups, time.Since(t0))
	}
	stopped := false
	defer func() {
		if !stopped {
			d.stop()
		}
	}()
	settle()

	var clients []*loadClient
	for i := 0; i < e.par; i++ {
		tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		clients = append(clients, &loadClient{id: i, tr: tr, warm: !p.mixed,
			cl: &service.Client{BaseURL: d.url, HTTPClient: &http.Client{Transport: tr, Timeout: time.Minute}}})
	}
	gen := newGenerator(e.seed, &p)

	o := outcome{correct: true, e2e: map[string]float64{}, layer: map[string]float64{}}
	var all []jobRecord
	tally := func(recs []jobRecord) {
		for _, r := range recs {
			o.attempted++
			if !r.ok {
				o.failed++
			}
		}
		all = append(all, recs...)
	}

	warmRecs, _ := loadPhase(clients, gen, chk, p.warmup, nil)
	tally(warmRecs)

	var plain, traced []jobRecord
	var plainWall, tracedWall time.Duration
	var peak, journalBytes float64
	if !e.traced {
		rss := startRSS()
		plain, plainWall = loadPhase(clients, gen, chk, e.dur, nil)
		peak = rss.finish()
		tally(plain)
	} else {
		// Untraced and traced quarters alternate, so the tracing
		// overhead is measured over the same stretch of host time.
		for i := 0; i < 2; i++ {
			recs, wall := loadPhase(clients, gen, chk, e.dur/4, nil)
			tally(recs)
			plain, plainWall = append(plain, recs...), plainWall+wall
			before, err := d.metrics()
			if err != nil {
				return outcome{}, err
			}
			recs, wall = loadPhase(clients, gen, chk, e.dur/4, e.tr)
			tally(recs)
			traced, tracedWall = append(traced, recs...), tracedWall+wall
			after, err := d.metrics()
			if err != nil {
				return outcome{}, err
			}
			journalBytes += after["numagpud_journal_bytes"] - before["numagpud_journal_bytes"]
		}
	}
	for _, c := range clients {
		c.tr.CloseIdleConnections()
	}

	// Verification, untimed: the full warm configurations through the
	// service give Figure 11's NUMA speedups, checked run by run.
	vc := &loadClient{id: len(clients), cl: &service.Client{BaseURL: d.url, HTTPClient: &http.Client{Timeout: time.Minute}}, warm: !p.mixed}
	served := map[string][]core.Result{}
	for _, c := range warmConfigs {
		var names []string
		for _, s := range p.workloads {
			names = append(names, s.Name)
		}
		spec := jobSpec{cfg: c, names: names, key: c.id() + "|all"}
		rec, body := vc.cycle(spec, chk, nil)
		o.attempted++
		var doc struct {
			Results []core.Result `json:"results"`
		}
		if !rec.ok || json.Unmarshal(body, &doc) != nil {
			o.failed++
			fmt.Fprintf(e.log, "serve: verification sweep %s failed\n", c.id())
			continue
		}
		served[c.id()] = doc.Results
	}
	numa := map[int]float64{}
	if single := served[warmConfigs[0].id()]; single != nil {
		for _, c := range warmConfigs[1:] {
			var sp []float64
			for i, r := range served[c.id()] {
				sp = append(sp, r.SpeedupOver(single[i]))
			}
			numa[c.sockets] = stats.GeoMean(sp)
		}
	}

	m, err := d.metrics()
	if err != nil {
		return outcome{}, err
	}
	var workerSims float64
	if d.worker != nil {
		workerSims = float64(d.worker.Stats().Simulations)
	}
	stopped = true
	if err := d.stop(); err != nil {
		return outcome{}, err
	}

	// Whole-run invariants.
	sims := m["numagpud_simulations_total"]
	if !p.mixed && (sims != 0 || m["numagpud_remote_runs_total"] != 0) {
		o.correct = false
		fmt.Fprintf(e.log, "serve-warm: %v local and %v remote simulations, want none\n", sims, m["numagpud_remote_runs_total"])
	}
	if p.mixed {
		want := float64(len(chk.fresh))
		if workerSims != want || m["numagpud_fabric_worker_simulations_total"] != want || sims != 0 {
			o.correct = false
			fmt.Fprintf(e.log, "serve-mixed: worker simulated %v (reported %v), coordinator %v, for %v new runs\n",
				workerSims, m["numagpud_fabric_worker_simulations_total"], sims, want)
		}
	}
	rejected := 0
	for _, r := range all {
		if r.rejected {
			rejected++
		}
	}
	fmt.Fprintf(e.log, "serve: %d jobs, %d failed, %d rejected, %v worker simulations\n", o.attempted, o.failed, rejected, workerSims)

	if !e.traced {
		fmt.Fprintf(e.log, "serve: measured phase %.3f s\n", plainWall.Seconds())
		o.e2e = map[string]float64{
			"setup_s":          median(setups).Seconds(),
			"fidelity_err_pct": fidelityErrPct(numa),
			"peak_rss_mb":      peak,
		}
		for k, v := range bestShapes(e.log, plain, len(clients), p.tailQ) {
			o.e2e[k] = v
		}
		return o, nil
	}

	ok := okRecords(traced)
	var sub, que, exe, res, remote []time.Duration
	events := 0
	for _, r := range ok {
		sub, que, exe, res = append(sub, r.submit), append(que, r.queue), append(exe, r.exec), append(res, r.result)
		if r.firstRemote > 0 {
			remote = append(remote, r.firstRemote)
		}
		events += r.events
	}
	planned := 0
	for _, r := range all {
		planned += len(r.spec.names)
	}
	L := o.layer
	L["service.submit_ms"] = ms(median(sub))
	L["service.queue_ms"] = ms(median(que))
	L["service.exec_ms"] = ms(median(exe))
	L["service.result_ms"] = ms(median(res))
	L["service.events_per_job"] = float64(events) / float64(max(len(ok), 1))
	L["service.journal_bytes_per_job"] = journalBytes / float64(max(len(traced), 1))
	L["service.rejected"] = m["numagpud_admission_rejected_total"]
	L["exp.delta_hits"] = m["numagpud_delta_hits_total"]
	L["exp.coalesced_keys"] = m["numagpud_coalesced_keys_total"]
	L["exp.cache_hits"] = m["numagpud_cache_hits_total"]
	L["exp.simulations"] = sims + m["numagpud_remote_runs_total"]
	L["exp.new_key_frac"] = L["exp.simulations"] / float64(max(planned, 1))
	L["fabric.first_remote_ms"] = ms(median(remote))
	L["fabric.shards"] = m["numagpud_fabric_shards_total"]
	L["fabric.worker_simulations"] = m["numagpud_fabric_worker_simulations_total"]
	L["fabric.requeued"] = m["numagpud_fabric_shards_requeued_total"]
	L["fabric.stale_results"] = m["numagpud_fabric_results_stale_total"]
	L["trace.overhead_pct"] = (float64(len(okRecords(plain)))/plainWall.Seconds()/(float64(len(ok))/tracedWall.Seconds()) - 1) * 100
	L["sim.engine_ns_per_event"] = engineNsPerEvent()
	for layer, d := range e.tr.selfTimes() {
		L[layer+".self_s"] = d.Seconds()
	}
	if err := layerProbes(L, &p, dir, cacheDir, all); err != nil {
		return outcome{}, err
	}
	return o, nil
}

// bestShapes times every job at the best repeat of its shape in the
// measured phase: on a shared host, neighbours only ever slow a job
// down, and the best of several repeats measures the code, not them.
// The rates are what the closed-loop clients reach when every job takes
// that time: clients over the mean job latency.
func bestShapes(log io.Writer, recs []jobRecord, clients int, tailQ float64) map[string]float64 {
	type shape struct {
		fresh bool
		i     int
	}
	bestTotal, bestFirst := map[shape]time.Duration{}, map[shape]time.Duration{}
	ok := okRecords(recs)
	for _, r := range ok {
		k := shape{r.spec.fresh, r.spec.shape}
		if b, seen := bestTotal[k]; !seen || r.total < b {
			bestTotal[k] = r.total
		}
		if b, seen := bestFirst[k]; !seen || r.first < b {
			bestFirst[k] = r.first
		}
	}
	var lat, first, raw []time.Duration
	var busy time.Duration
	runs := 0
	for _, r := range ok {
		k := shape{r.spec.fresh, r.spec.shape}
		lat, first = append(lat, bestTotal[k]), append(first, bestFirst[k])
		raw = append(raw, r.total)
		busy += bestTotal[k]
		runs += len(r.spec.names)
	}
	fmt.Fprintf(log, "serve: %d jobs of %d shapes, raw median latency %.3f ms\n", len(ok), len(bestTotal), ms(median(raw)))
	return map[string]float64{
		"job_p50_ms":       ms(median(lat)),
		"job_tail_ms":      ms(tail(log, "best job latency", lat, tailQ)),
		"first_run_p50_ms": ms(median(first)),
		"jobs_per_s":       float64(clients*len(ok)) / busy.Seconds(),
		"sweep_runs_per_s": float64(clients*runs) / busy.Seconds(),
	}
}

func okRecords(recs []jobRecord) []jobRecord {
	var out []jobRecord
	for _, r := range recs {
		if r.ok {
			out = append(out, r)
		}
	}
	return out
}

// layerProbes times exp.Runner.Plan and DiskCache.Get/Put standalone,
// outside the daemon, on the keys the run requested.
func layerProbes(L map[string]float64, p *serveParams, dir, cacheDir string, recs []jobRecord) error {
	disk, err := service.OpenDiskCache(cacheDir)
	if err != nil {
		return err
	}
	opts := p.opts
	opts.Cache = disk
	var plans []time.Duration
	type keyed struct {
		key string
		res core.Result
	}
	var keys []keyed
	seen := map[string]bool{}
	for i, r := range recs {
		if i >= 50 {
			break
		}
		runner := exp.NewRunner(opts)
		cfg := r.spec.cfg.arch(runner)
		var reqs []exp.RunRequest
		for _, n := range r.spec.names {
			s, _ := workload.ByName(n)
			reqs = append(reqs, exp.RunRequest{Cfg: cfg, Spec: s})
			if k := runner.RunKey(cfg, s); !seen[k] {
				seen[k] = true
				keys = append(keys, keyed{key: k})
			}
		}
		t0 := time.Now()
		runner.Plan(reqs)
		plans = append(plans, time.Since(t0))
	}
	L["exp.plan_ms"] = ms(median(plans))

	var gets, puts []time.Duration
	for i := range keys {
		t0 := time.Now()
		res, ok := disk.Get(keys[i].key)
		gets = append(gets, time.Since(t0))
		if !ok {
			return fmt.Errorf("disk cache lost run %s", keys[i].key)
		}
		keys[i].res = res
	}
	fresh, err := service.OpenDiskCache(dir + "/put-probe")
	if err != nil {
		return err
	}
	for _, k := range keys {
		t0 := time.Now()
		fresh.Put(k.key, k.res)
		puts = append(puts, time.Since(t0))
	}
	L["service.diskcache_get_us"] = float64(median(gets).Nanoseconds()) / 1e3
	L["service.diskcache_put_us"] = float64(median(puts).Nanoseconds()) / 1e3
	return nil
}
