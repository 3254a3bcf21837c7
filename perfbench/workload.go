package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"strings"
	"sync"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/cmdclass"
	"zcover/internal/controller"
	"zcover/internal/coord"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/oracle"
	"zcover/internal/report"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

const (
	// defaultSeed reproduces the paper's job seeds: Table V's campaign
	// seeds are 40 plus the device digit. Seed 7 is held out: the runs
	// that set the bounds used other seeds, and its outputs are committed
	// next to this seed's.
	defaultSeed = 40

	// chaosInjectorSeed seeds the chaos workload's fault streams for every
	// run seed; the run seed moves only the job seeds. It is the chaos
	// experiment's default. Shifted with the run seed, 5 of the injector
	// seeds for run seeds 0–99 drop all four liveness probes of one job's
	// scan, and the job fails.
	chaosInjectorSeed = 1

	// chaosBudget is the simulated budget of one chaos job. A quarter of
	// the paper's 24 h keeps an iteration near three seconds, so a run
	// takes a median over about ten of them.
	chaosBudget = 6 * time.Hour

	// coordCycles is how often the coord workload cycles through the
	// D1–D7 × {ZCover, VFuzz, coverage-guided} jobs.
	coordCycles = 4
	// coordBudget is the simulated budget of one coord job: short, so
	// per-job fixed costs dominate.
	coordBudget = 2 * time.Minute
	// coordCovBudget is the budget of the first cycle's coverage-guided
	// jobs: long enough for the engine to leave its quick pass and run
	// corpus rounds, which it never does within coordBudget.
	coordCovBudget = 45 * time.Minute
	// coordHeartbeat is the workers' lease keep-alive interval, short
	// enough that the long coverage-guided jobs heartbeat.
	coordHeartbeat = 10 * time.Millisecond
)

// workload is one named set of inputs the benchmark runs.
type workload struct {
	name string
	// jobs builds the workload's job list from the seed.
	jobs func(seed int64) []fleet.Job
	// run executes one iteration: every job, through to verified output.
	run func(e *env, jobs []fleet.Job) (iterResult, error)
	// setup is the work done before the first job starts. run repeats
	// it per iteration; the setup probe times it cold.
	setup func(e *env, jobs []fleet.Job) (func(), error)
}

var workloads = map[string]*workload{
	"table5": {name: "table5", jobs: table5Jobs, run: runTable5, setup: fleetSetup},
	"chaos":  {name: "chaos", jobs: chaosJobs, run: runChaos, setup: fleetSetup},
	"coord":  {name: "coord", jobs: coordJobs, run: runCoordWorkload, setup: coordSetupProbe},
}

// env is what one benchmark run hands each iteration.
type env struct {
	seed int64
	// tmp is a scratch directory inside the checkout.
	tmp string
	// tr records spans; nil when untraced.
	tr *tracer
	// root is the span the iteration's job spans hang under.
	root int
	// delay is added to every coordinator request (self-test only).
	delay time.Duration
}

// iterResult is one iteration's measurements and outputs.
type iterResult struct {
	makespan time.Duration
	cpu      time.Duration
	sim      time.Duration
	// peakRSS is the iteration's resident-memory high-water mark, MiB.
	peakRSS float64
	// output is the verified output: the Table V bytes or the chaos
	// per-job grades, each followed by the digest of the encoded
	// outcomes, or the coord records' digest.
	output []byte
	// jobs counts jobs; attempts counts job attempts; failed counts
	// failed or retried attempts plus rejected or expired uploads.
	jobs, attempts, failed int

	outs   []harness.FleetOutcome
	labels []string
	walls  []time.Duration
	// timelines are the fleet worker timelines (traced runs only) and
	// lanes the number of workers they cover.
	timelines []*obs.Timeline
	lanes     int
	ctrl      controller.Stats
	coord     *coordIter
}

// coordIter is what a coord iteration adds.
type coordIter struct {
	records    []checkpoint.JobRecord
	reqs       *requestLog
	workerWall time.Duration
	runnerWall time.Duration
	status     coord.Status
	retries    int
}

// shiftSeed moves a paper job seed to the benchmark seed.
func shiftSeed(paper, seed int64) int64 { return paper - defaultSeed + seed }

// table5Jobs is Table V's sweep at 24 h, seeds shifted by the run seed.
func table5Jobs(seed int64) []fleet.Job {
	jobs, err := harness.CampaignJobs("table5", 24*time.Hour)
	if err != nil {
		panic(err) // a built-in campaign name
	}
	for i := range jobs {
		jobs[i].Seed = shiftSeed(jobs[i].Seed, seed)
	}
	return jobs
}

// chaosJobs is D1–D5 × {burst, lossy}, ZCover full.
func chaosJobs(seed int64) []fleet.Job {
	var jobs []fleet.Job
	for _, dev := range []string{"D1", "D2", "D3", "D4", "D5"} {
		for _, profile := range []string{"burst", "lossy"} {
			jobs = append(jobs, fleet.Job{
				Name: "chaos/" + dev + "/" + profile, Device: dev,
				Strategy: fuzz.StrategyFull, Seed: shiftSeed(40+int64(dev[1]-'0'), seed),
				Budget: chaosBudget, ChaosProfile: profile, ChaosSeed: chaosInjectorSeed,
			})
		}
	}
	return jobs
}

// coordJobs cycles D1–D7 × {ZCover, VFuzz, coverage-guided} with a short
// simulated budget each, except the first cycle's coverage-guided jobs.
func coordJobs(seed int64) []fleet.Job {
	var jobs []fleet.Job
	for c := 0; c < coordCycles; c++ {
		for d := 1; d <= 7; d++ {
			dev := fmt.Sprintf("D%d", d)
			s := shiftSeed(40+int64(d)+10*int64(c), seed)
			prefix := fmt.Sprintf("coord/%d/%s/", c, dev)
			covBudget := coordBudget
			if c == 0 {
				covBudget = coordCovBudget
			}
			jobs = append(jobs,
				fleet.Job{Name: prefix + "zcover", Device: dev, Strategy: fuzz.StrategyFull, Seed: s, Budget: coordBudget},
				fleet.Job{Name: prefix + "vfuzz", Device: dev, Baseline: true, Seed: s, Budget: coordBudget},
				fleet.Job{Name: prefix + "covfuzz", Device: dev, Strategy: fuzz.StrategyFull,
					FuzzMode: fleet.ModeCoverage, Seed: s, Budget: covBudget})
		}
	}
	return jobs
}

// fleetSetup is the in-process fleet workloads' set-up: the spec
// database load. The job list is built by the caller.
func fleetSetup(*env, []fleet.Job) (func(), error) {
	if _, err := cmdclass.Load(); err != nil {
		return nil, err
	}
	return func() {}, nil
}

// fleetIteration runs jobs on an in-process fleet and returns the
// outcomes, tracing job and phase spans when e.tr is set.
func fleetIteration(e *env, jobs []fleet.Job, workers int) (iterResult, error) {
	it := iterResult{jobs: len(jobs), lanes: fleet.Config{Workers: workers}.EffectiveWorkers(len(jobs))}
	runner := fleet.Runner[harness.FleetOutcome](harness.RunFleetJob)
	var tl *obs.Timeline
	var spanOf map[string]int
	var mu sync.Mutex
	if e.tr != nil {
		tl = obs.NewTimeline()
		it.timelines = []*obs.Timeline{tl}
		spanOf = make(map[string]int)
		runner = func(tb *testbed.Testbed, job fleet.Job, ob *fleet.Observer) (harness.FleetOutcome, error) {
			start := time.Now()
			out, err := harness.RunFleetJob(tb, job, ob)
			id := e.tr.add(e.root, job.Label(), "fleet", "job", start, time.Now(), 0)
			mu.Lock()
			spanOf[job.Label()] = id
			st := tb.Controller.Stats()
			it.ctrl.AppFrames += st.AppFrames
			it.ctrl.DroppedBusy += st.DroppedBusy
			it.ctrl.Replies += st.Replies
			it.ctrl.SecureFrames += st.SecureFrames
			mu.Unlock()
			return out, err
		}
	}
	results := fleet.Run(jobs, runner, fleet.Config{Workers: workers, Timeline: tl})
	for _, r := range results {
		it.attempts += max(r.Attempts, 1)
		it.failed += len(r.AttemptErrors)
		it.walls = append(it.walls, r.Wall)
		it.labels = append(it.labels, r.Job.Label())
		it.outs = append(it.outs, r.Value)
	}
	if err := fleet.FirstError(results); err != nil {
		return it, err
	}
	for _, o := range it.outs {
		if res := o.Fuzz(); res != nil {
			it.sim += res.Elapsed
		}
	}
	if tl != nil {
		phaseSpans(e.tr, tl, spanOf)
	}
	return it, nil
}

// phaseSpans turns the fleet timeline into phase spans under each job
// span, stretching the job span over the build that precedes the runner.
func phaseSpans(tr *tracer, tl *obs.Timeline, spanOf map[string]int) {
	for _, iv := range tl.Snapshot().Intervals {
		id, ok := spanOf[iv.Job]
		if !ok || iv.Phase == obs.PhaseIdle {
			continue
		}
		tr.setStart(id, iv.Start)
		tr.add(id, iv.Job, phaseLayer(iv.Phase), iv.Phase, iv.Start, iv.End, 0)
	}
}

// phaseLayer names the module a timeline phase belongs to.
func phaseLayer(phase string) string {
	switch phase {
	case obs.PhaseBuild:
		return "testbed"
	case obs.PhaseFuzz:
		return "fuzz"
	case obs.PhasePersist:
		return "checkpoint"
	}
	return "harness"
}

// stopwatch measures an iteration's wall and CPU time.
type stopwatch struct {
	wall time.Time
	cpu  time.Duration
}

func startWatch() stopwatch { return stopwatch{time.Now(), cpuTime()} }

// stop stamps the time since start on the iteration.
func (s stopwatch) stop(it *iterResult) {
	it.makespan, it.cpu = time.Since(s.wall), cpuTime()-s.cpu
}

func runTable5(e *env, jobs []fleet.Job) (iterResult, error) {
	watch := startWatch()
	it, err := fleetIteration(e, jobs, 2)
	if err == nil {
		var tbl *report.Table
		if tbl, err = harness.RenderCampaign("table5", it.outs); err == nil {
			it.output = []byte(tbl.String())
		}
	}
	watch.stop(&it)
	if err == nil {
		err = appendOutcomesDigest(&it)
	}
	return it, err
}

func runChaos(e *env, jobs []fleet.Job) (iterResult, error) {
	watch := startWatch()
	it, err := fleetIteration(e, jobs, 1)
	if err == nil {
		it.output = chaosGrades(it.labels, it.outs)
	}
	watch.stop(&it)
	if err == nil {
		err = appendOutcomesDigest(&it)
	}
	return it, err
}

// appendOutcomesDigest adds the SHA-256 of the iteration's outcomes, each
// encoded as a checkpoint would journal it, in job order, to its output.
// The rendered counts saturate at long budgets; the digest also covers
// the packets sent, duplicates, findings and their order. It is computed
// after the stopwatch stops: it checks the work, it is not part of it.
func appendOutcomesDigest(it *iterResult) error {
	h := sha256.New()
	for i, o := range it.outs {
		raw, err := harness.EncodeOutcome(o)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%d %s\n", i, it.labels[i])
		h.Write(raw)
		h.Write([]byte{'\n'})
	}
	it.output = fmt.Appendf(it.output, "outcomes sha256 %s\n", hex.EncodeToString(h.Sum(nil)))
	return nil
}

// chaosGrades renders each chaos job's confirmed and suspect finding
// counts, one job per line.
func chaosGrades(labels []string, outs []harness.FleetOutcome) []byte {
	var b strings.Builder
	for i, o := range outs {
		confirmed, suspect := 0, 0
		for _, f := range o.Fuzz().Findings {
			if f.Event.Confidence == oracle.ConfidenceSuspect {
				suspect++
			} else {
				confirmed++
			}
		}
		fmt.Fprintf(&b, "%s confirmed=%d suspect=%d\n", labels[i], confirmed, suspect)
	}
	return []byte(b.String())
}

// coordRig is a coordinator serving one iteration's campaign on a
// loopback listener.
type coordRig struct {
	c      *coord.Coordinator
	srv    *http.Server
	served chan struct{} // closed when Serve has returned
	url    string
	dir    string
	base   *http.Transport
}

func (r *coordRig) close() {
	r.srv.Close()
	<-r.served
	r.base.CloseIdleConnections()
	r.c.Close()
	os.RemoveAll(r.dir)
}

// newCoordRig is the coord set-up: spec hash, coordinator with its
// journal in a fresh directory, and a loopback listener.
func newCoordRig(e *env, jobs []fleet.Job) (*coordRig, error) {
	hash, err := harness.CampaignSpecHash("bench-coord", jobs)
	if err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(e.tmp, "coord-")
	if err != nil {
		return nil, err
	}
	c, err := coord.New(coord.Config{
		Campaign: "bench-coord", Jobs: jobs, SpecHash: hash, Dir: dir,
		RetryAfter: 10 * time.Millisecond,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		c.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	rig := &coordRig{
		c: c, srv: &http.Server{Handler: c.Handler()}, served: make(chan struct{}),
		url: "http://" + ln.Addr().String(), dir: dir,
		base: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2},
	}
	go func() {
		defer close(rig.served)
		_ = rig.srv.Serve(ln) // always ErrServerClosed, from close
	}()
	return rig, nil
}

// coordSetupProbe is the coord set-up as the probe times it: spec
// database, coordinator, journal, listener and one manifest handshake.
func coordSetupProbe(e *env, jobs []fleet.Job) (func(), error) {
	if _, err := cmdclass.Load(); err != nil {
		return nil, err
	}
	rig, err := newCoordRig(e, jobs)
	if err != nil {
		return nil, err
	}
	client := &http.Client{Transport: rig.base, Timeout: 30 * time.Second}
	resp, err := client.Post(rig.url+"/manifest", "application/json", strings.NewReader(`{"worker":"probe"}`))
	if err != nil {
		rig.close()
		return nil, err
	}
	var m coord.ManifestReply
	err = json.NewDecoder(resp.Body).Decode(&m)
	resp.Body.Close()
	if err == nil && m.TotalJobs != len(jobs) {
		err = fmt.Errorf("manifest reports %d jobs, want %d", m.TotalJobs, len(jobs))
	}
	if err != nil {
		rig.close()
		return nil, err
	}
	return rig.close, nil
}

// coordWorker is one RunWorker goroutine's side of the coordinator
// boundary: it wraps the lease runner to time jobs and, when traced,
// keeps the spans the worker's requests nest under.
type coordWorker struct {
	id    string
	e     *env
	lease coord.Runner
	// onJob receives each job's label, span and runner time.
	onJob func(label string, span int, d time.Duration)

	mu    sync.Mutex
	span  int    // the worker's own span
	job   int    // span of the job the worker last leased
	trace string // that job's label
}

// parent is the span a request to path nests under: the current job for
// heartbeats and results, the worker for manifest and lease requests.
func (w *coordWorker) parent(path string) (int, string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if path == "/lease" || path == "/manifest" || w.job == 0 {
		return w.span, w.id
	}
	return w.job, w.trace
}

// run is the coord.Runner the worker executes leases with.
func (w *coordWorker) run(job fleet.Job) (json.RawMessage, int, error) {
	start := time.Now()
	// Open the job span first so heartbeat and result requests nest
	// under it.
	id := w.e.tr.add(w.span, job.Label(), "coord", "lease-runner", start, start, 0)
	w.mu.Lock()
	w.job, w.trace = id, job.Label()
	w.mu.Unlock()
	raw, attempts, err := w.lease(job)
	end := time.Now()
	w.e.tr.finish(id, end)
	w.onJob(job.Label(), id, end.Sub(start))
	return raw, attempts, err
}

// runCoordWorkload runs one coordinated campaign: a fresh coordinator,
// two RunWorker goroutines executing harness.LeaseRunner over at most two
// keep-alive connections, and the journaled records verified by digest.
func runCoordWorkload(e *env, jobs []fleet.Job) (iterResult, error) {
	rig, err := newCoordRig(e, jobs)
	if err != nil {
		return iterResult{}, err
	}
	defer rig.close()

	const workers = 2
	ci := &coordIter{reqs: &requestLog{}}
	it := iterResult{jobs: len(jobs), lanes: workers, coord: ci}
	var mu sync.Mutex
	spanOf := make(map[string]int)
	onJob := func(label string, span int, d time.Duration) {
		mu.Lock()
		defer mu.Unlock()
		spanOf[label] = span
		ci.runnerWall += d
		it.walls = append(it.walls, d)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	errs := make([]error, workers)
	stats := make([]coord.WorkerStats, workers)
	watch := startWatch()
	for i := 0; i < workers; i++ {
		cfg := fleet.Config{Workers: 1}
		if e.tr != nil {
			cfg.Timeline = obs.NewTimeline()
			it.timelines = append(it.timelines, cfg.Timeline)
		}
		w := &coordWorker{id: fmt.Sprintf("w%d", i), e: e, lease: harness.LeaseRunner(cfg), onJob: onJob}
		var rt http.RoundTripper = rig.base
		if e.tr != nil || e.delay > 0 {
			rt = &workerTransport{base: rig.base, delay: e.delay, tr: e.tr, log: ci.reqs, parent: w.parent}
		}
		wcfg := coord.WorkerConfig{
			Coordinator: rig.url, ID: w.id, Runner: w.run, Heartbeat: coordHeartbeat,
			Client: &http.Client{Transport: rt, Timeout: 30 * time.Second},
		}
		start := time.Now()
		w.span = e.tr.add(e.root, w.id, "coord", "worker", start, start, 0)
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			stats[i], errs[i] = coord.RunWorker(ctx, wcfg)
			end := time.Now()
			e.tr.finish(w.span, end)
			mu.Lock()
			ci.workerWall += end.Sub(start)
			mu.Unlock()
		}(i)
	}
	// Stop waiting for the campaign if every worker has given up on it.
	waitCtx, giveUp := context.WithCancel(ctx)
	go func() { wg.Wait(); giveUp() }()
	err = verifyCoord(waitCtx, rig, &it)
	watch.stop(&it)
	// The workers hear "done" on their next lease poll; wait for them
	// outside the timed section.
	wg.Wait()
	for i := range errs {
		if errs[i] != nil {
			return it, fmt.Errorf("worker w%d: %w", i, errs[i])
		}
		ci.retries += stats[i].Retries
	}
	if err != nil {
		return it, err
	}
	for _, tl := range it.timelines {
		phaseSpans(e.tr, tl, spanOf)
	}
	ci.status = rig.c.Status()
	for i, rec := range ci.records {
		it.attempts += max(rec.Attempts, 1)
		it.failed += max(rec.Attempts, 1) - 1
		it.labels = append(it.labels, rec.Label)
		if res := it.outs[i].Fuzz(); res != nil {
			it.sim += res.Elapsed
		}
	}
	it.failed += int(ci.status.Rejected + ci.status.Expired)
	return it, nil
}

// verifyCoord waits for the campaign and verifies its journaled records
// into the iteration's outputs.
func verifyCoord(ctx context.Context, rig *coordRig, it *iterResult) error {
	if err := rig.c.Wait(ctx); err != nil {
		return err
	}
	recs, err := rig.c.Records()
	if err != nil {
		return err
	}
	if it.outs, err = harness.DecodeRecords(recs, it.jobs); err != nil {
		return err
	}
	it.coord.records = recs
	it.output = recordsDigest(recs)
	return nil
}

// recordsDigest is the SHA-256 of the journaled records in job order.
func recordsDigest(recs []checkpoint.JobRecord) []byte {
	h := sha256.New()
	for _, r := range recs {
		fmt.Fprintf(h, "%d %s %d\n", r.Index, r.Label, r.Attempts)
		h.Write(r.Body)
		h.Write([]byte{'\n'})
	}
	return []byte(hex.EncodeToString(h.Sum(nil)) + "\n")
}
