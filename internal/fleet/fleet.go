// Package fleet schedules many independent fuzzing campaigns across a
// bounded worker pool.
//
// The paper's evaluation is dozens of self-contained 24-hour campaigns
// (7 controllers × 3 strategies × multi-trial repeats); each one runs on
// its own testbed.Testbed with a private simulated clock and radio medium,
// so nothing stops them from running concurrently. The fleet is the
// orchestration layer that exploits that: it accepts a slice of Job specs,
// executes them across Config.Workers goroutines, and returns results in
// deterministic job order regardless of completion order.
//
// Isolation is the core invariant. The fleet — not the caller — constructs
// a fresh testbed for every attempt, so campaigns share no mutable state
// and a retry never observes residue (oracle events, controller memory,
// radio sniffer buffers) from a failed predecessor. A campaign that panics
// is recovered and recorded, not propagated: one bad campaign cannot abort
// a table. Failed attempts are retried with fresh testbed state up to
// Config.MaxAttempts before the job is reported failed in its Result.
//
// Observability: Progress returns an atomic snapshot of the pool (jobs
// queued/running/done/failed, live finding and packet counts, simulated
// versus wall-clock throughput), and Config.OnProgress delivers the same
// snapshot to a callback on every state change — cmd/experiments renders
// it as a live ticker.
//
// # Concurrency and pooling
//
// Run is safe to call from multiple goroutines on distinct Fleet values;
// one Fleet runs one job slice at a time. Worker goroutines share nothing
// campaign-visible: each attempt gets a fresh testbed, private SimClock,
// medium (with its frame freelist and telemetry lane), and oracle bus, and
// only the worker's goroutine drives it. What workers do share are the
// security package's cipher-context cache and crypto scratch pool — safe
// for concurrent use and invisible to results, which is why tables render
// byte-identically for any worker count. Progress counters are atomic telemetry gauges;
// OnProgress callbacks run on worker goroutines and must be fast and
// thread-safe.
package fleet

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/obs"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
)

// DefaultMaxAttempts is how many times a job runs (first try plus retries)
// before the fleet reports it failed.
const DefaultMaxAttempts = 2

// Job is one self-contained campaign spec: which controller to build a
// testbed around and how to fuzz it. The zero strategy with Baseline set
// runs the VFuzz comparison engine instead of the ZCover pipeline.
type Job struct {
	// Name labels the job in results and progress ("table5/D3/zcover").
	// Optional; a label is derived from the other fields when empty.
	Name string
	// Device is the testbed index ("D1".."D7").
	Device string
	// Patched selects the §V-B updated-specification firmware.
	Patched bool
	// Strategy is the ZCover configuration (ignored for Baseline jobs).
	Strategy fuzz.Strategy
	// Baseline runs the VFuzz baseline instead of the ZCover pipeline.
	Baseline bool
	// FuzzMode selects the engine for ZCover jobs: "" is the generational
	// Algorithm 1 engine, ModeCoverage the coverage-guided one.
	FuzzMode string
	// Frames, when positive, caps the campaign's injected test frames —
	// the equal-frame-budget knob for engine comparisons.
	Frames int
	// Seed drives both the testbed assembly (S2 pairing entropy) and the
	// campaign's mutation stream, exactly as the sequential drivers did.
	Seed int64
	// Budget is the fuzzing duration (simulated time).
	Budget time.Duration
	// ChaosProfile, when non-empty, installs a fault injector on the job's
	// testbed (chaos.ParseProfile syntax, e.g. "burst" or
	// "lossy:corrupt=0.1"). Empty or "none" keeps the channel clean and the
	// campaign byte-identical to pre-chaos builds.
	ChaosProfile string
	// ChaosSeed seeds the injector's fault streams, independent of Seed so
	// the same campaign can be replayed under different impairment draws.
	ChaosSeed int64
}

// ModeCoverage selects the coverage-guided engine for a job.
const ModeCoverage = "coverage"

// Label returns Name, or a derived "device/strategy" label.
func (j Job) Label() string {
	if j.Name != "" {
		return j.Name
	}
	label := j.Device + "/" + string(j.Strategy)
	if j.Baseline {
		label = j.Device + "/vfuzz"
	}
	if j.FuzzMode == ModeCoverage {
		label = j.Device + "/covfuzz"
	}
	if j.ChaosProfile != "" {
		label += "+" + j.ChaosProfile
	}
	return label
}

// build assembles the job's private testbed. Every attempt gets a fresh
// one, so campaigns share nothing and retries start clean — including the
// fault injector, whose burst/partition state is rebuilt from ChaosSeed.
func (j Job) build() (*testbed.Testbed, error) {
	var tb *testbed.Testbed
	var err error
	if j.Patched {
		tb, err = testbed.NewPatched(j.Device, j.Seed)
	} else {
		tb, err = testbed.New(j.Device, j.Seed)
	}
	if err != nil {
		return nil, err
	}
	if j.ChaosProfile != "" {
		p, perr := chaos.ParseProfile(j.ChaosProfile)
		if perr != nil {
			return nil, fmt.Errorf("fleet: job %s: %w", j.Label(), perr)
		}
		tb.ApplyChaos(p, j.ChaosSeed)
	}
	return tb, nil
}

// Runner executes one job attempt against a freshly built testbed and
// returns the campaign outcome. The runner must confine itself to the
// given testbed; obs reports live metrics into the pool. harness.RunFleetJob
// is the canonical runner for the experiment drivers.
type Runner[T any] func(tb *testbed.Testbed, job Job, obs *Observer) (T, error)

// Config tunes the pool.
type Config struct {
	// Workers bounds campaign concurrency. Zero or negative means
	// GOMAXPROCS. Workers=1 is the sequential fallback: byte-identical to
	// running the jobs in a plain loop.
	//
	// Campaigns are CPU-bound (the simulation never blocks on real I/O
	// apart from the serialized checkpoint append), so worker goroutines
	// beyond GOMAXPROCS cannot add throughput — they only add scheduler
	// churn and cache interleaving (a 1→8 worker sweep measured that tax at
	// ~7% sim-rate on a 1-P host), so Run caps the pool at GOMAXPROCS.
	// Results are byte-identical either way.
	Workers int
	// MaxAttempts is how many times a failing job is run (each attempt on
	// a fresh testbed) before it is reported failed. Zero or negative
	// means DefaultMaxAttempts.
	MaxAttempts int
	// OnProgress, if set, receives a Progress snapshot after every state
	// change (job start/finish, retry, each new finding). Calls are
	// serialized by the fleet; the callback must not block for long.
	OnProgress func(Progress)
	// Telemetry is the metrics registry the fleet publishes its live state
	// to (the fleet_* gauges). Nil gives the fleet a private registry;
	// pass telemetry.Default() to fold fleet state into the process-wide
	// export. Progress snapshots stay exact either way — each fleet tracks
	// deltas from the registry values it observed at construction.
	Telemetry *telemetry.Registry
	// Checkpoint, if set, asks the campaign layer to journal completed
	// jobs crash-safely and to resume across runs. The fleet carries the
	// spec but does not interpret it (see CheckpointSpec); callers
	// install the journal through WithResume.
	Checkpoint *CheckpointSpec
	// Timeline, if set, records per-worker phase intervals (build, the
	// pipeline phases, persist, idle) on the wall clock and, for the
	// phases that run on the job's testbed, on its simulated clock — the
	// source of the /timeline endpoint and -trace-out.
	// Nil disables recording at zero cost; attaching one never changes
	// campaign results.
	Timeline *obs.Timeline
}

// CheckpointSpec asks the campaign layer to journal completed jobs
// crash-safely and to resume from an existing journal. The fleet itself
// treats the spec as data — internal/harness interprets it around the
// fleet via internal/checkpoint (the fleet cannot, because only the
// caller knows how to serialise its result type T).
type CheckpointSpec struct {
	// Dir is the checkpoint directory holding one journal per campaign.
	// Empty disables checkpointing.
	Dir string
	// Resume permits continuing an existing journal; without it an
	// existing journal is an error (refusing to double-run a campaign
	// by accident).
	Resume bool
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = DefaultMaxAttempts
	}
	return c
}

// Result is one job's outcome. Results are returned in job order.
type Result[T any] struct {
	// Job echoes the spec.
	Job Job
	// Value is the runner's return value (zero when Err is non-nil).
	Value T
	// Err is nil on success; otherwise the final attempt's error. A
	// recovered panic surfaces as a *PanicError in the chain.
	Err error
	// Attempts is how many times the job ran (1 = first try succeeded).
	Attempts int
	// Cached marks a job whose Value was served from a checkpoint
	// journal instead of being executed (Attempts is 0 for such jobs).
	Cached bool
	// AttemptErrors records each failed attempt's error text, in order.
	AttemptErrors []string
	// Wall is the real time the job spent executing (all attempts).
	Wall time.Duration
}

// PanicError wraps a panic recovered from a campaign so one bad run cannot
// abort the whole table.
type PanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack string
}

// Error implements error. The stack is kept out of the message so error
// strings stay comparable across runs; read Stack for forensics.
func (e *PanicError) Error() string {
	return fmt.Sprintf("campaign panicked: %v", e.Value)
}

// Fleet executes a fixed job list across a worker pool. Construct with
// New, start with Run, and poll Progress from any goroutine while running.
type Fleet[T any] struct {
	jobs   []Job
	runner Runner[T]
	cfg    Config

	c counters

	// progressMu serializes OnProgress callbacks.
	progressMu sync.Mutex

	// cached/persist are the checkpoint-resume hooks (WithResume):
	// cached short-circuits a job whose outcome is already journaled;
	// persist makes a freshly completed outcome durable. persistMu
	// serializes persist so journal appends never interleave.
	cached    func(i int, job Job) (T, bool)
	persist   func(i int, job Job, res Result[T]) error
	persistMu sync.Mutex
}

// New builds a fleet over the given jobs. Run executes it.
func New[T any](jobs []Job, runner Runner[T], cfg Config) *Fleet[T] {
	if runner == nil {
		panic("fleet: nil runner")
	}
	f := &Fleet[T]{jobs: jobs, runner: runner, cfg: cfg.withDefaults()}
	f.c.bind(f.cfg.Telemetry, len(jobs))
	return f
}

// Run executes every job and returns one Result per job, index-aligned
// with the input slice regardless of completion order. Run blocks until
// the whole fleet drains; call it once.
func Run[T any](jobs []Job, runner Runner[T], cfg Config) []Result[T] {
	return New(jobs, runner, cfg).Run()
}

// WithResume installs checkpoint-resume hooks and returns f. cached is
// consulted before a job executes: a hit yields a Result with Cached set
// and zero attempts, without building a testbed. persist is invoked once
// per successfully executed (non-cached) job, serialized across workers;
// a persist error fails the job — a checkpointed campaign whose journal
// cannot be written must not pretend its work is durable.
func (f *Fleet[T]) WithResume(cached func(i int, job Job) (T, bool), persist func(i int, job Job, res Result[T]) error) *Fleet[T] {
	f.cached = cached
	f.persist = persist
	return f
}

// EffectiveWorkers returns the worker-goroutine count Run will actually
// use for a fleet of `jobs` jobs: Workers clamped to the job count and to
// GOMAXPROCS, since extra goroutines on a CPU-bound pool cost sim-rate
// instead of adding it.
func (c Config) EffectiveWorkers(jobs int) int {
	workers := c.Workers
	if p := runtime.GOMAXPROCS(0); workers <= 0 || workers > p {
		workers = p
	}
	if workers > jobs {
		workers = jobs
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// Run executes the fleet. See the package-level Run.
func (f *Fleet[T]) Run() []Result[T] {
	f.c.start(time.Now())
	results := make([]Result[T], len(f.jobs))
	workers := f.cfg.EffectiveWorkers(len(f.jobs))

	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f.cfg.Timeline.StartWorker(w)
			defer f.cfg.Timeline.StopWorker(w)
			// Each results slot is written by exactly one worker, so the
			// slice needs no lock; wg.Wait orders the writes before reads.
			for i := range idx {
				results[i] = f.execute(w, i, f.jobs[i])
				f.cfg.Timeline.Phase(w, "", obs.PhaseIdle, time.Time{})
			}
		}(w)
	}
	for i := range f.jobs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	f.notify()
	return results
}

// Progress returns an atomic snapshot of the pool. Safe to call from any
// goroutine, including concurrently with Run.
func (f *Fleet[T]) Progress() Progress {
	return f.c.snapshot()
}

// notify delivers a snapshot to the OnProgress callback, serialized.
func (f *Fleet[T]) notify() {
	if f.cfg.OnProgress == nil {
		return
	}
	f.progressMu.Lock()
	defer f.progressMu.Unlock()
	f.cfg.OnProgress(f.c.snapshot())
}

// execute runs one job to completion: up to MaxAttempts attempts, each on
// a fresh testbed, with panics recovered and live metrics rolled back for
// attempts that fail. A job whose outcome is already journaled (the
// WithResume cached hook) is served from the checkpoint without running.
// w is the worker lane for timeline attribution.
func (f *Fleet[T]) execute(w, i int, job Job) Result[T] {
	if f.cached != nil {
		if val, ok := f.cached(i, job); ok {
			f.c.queued.Add(-1)
			f.c.done.Add(1)
			f.notify()
			return Result[T]{Job: job, Value: val, Cached: true}
		}
	}
	f.c.queued.Add(-1)
	f.c.running.Add(1)
	f.notify()

	res := Result[T]{Job: job}
	wallStart := time.Now()
	for attempt := 1; attempt <= f.cfg.MaxAttempts; attempt++ {
		res.Attempts = attempt
		ob := &Observer{c: &f.c, onChange: f.notify,
			timeline: f.cfg.Timeline, worker: w, job: job.Label()}
		val, err := f.attempt(w, job, ob)
		if err == nil {
			res.Value, res.Err = val, nil
			break
		}
		// Undo the failed attempt's live contributions so the ticker
		// reflects only completed or in-flight work, then retry clean.
		ob.rollback()
		res.AttemptErrors = append(res.AttemptErrors, err.Error())
		res.Err = fmt.Errorf("fleet: job %s: attempt %d/%d: %w",
			job.Label(), attempt, f.cfg.MaxAttempts, err)
		if attempt < f.cfg.MaxAttempts {
			f.c.retried.Add(1)
			f.notify()
		}
	}
	res.Wall = time.Since(wallStart)

	if res.Err == nil && f.persist != nil {
		// Persist is serialized across workers, so with a deep queue this
		// section shows up on the timeline as contention — phase-attribute
		// the wait plus the fsync'd append together.
		f.cfg.Timeline.Phase(w, job.Label(), obs.PhasePersist, time.Time{})
		f.persistMu.Lock()
		err := f.persist(i, job, res)
		f.persistMu.Unlock()
		if err != nil {
			res.Err = fmt.Errorf("fleet: job %s: checkpointing result: %w", job.Label(), err)
		}
	}

	f.c.running.Add(-1)
	if res.Err != nil {
		f.c.failed.Add(1)
	} else {
		f.c.done.Add(1)
	}
	f.notify()
	return res
}

// attempt builds a fresh testbed and runs the job once, converting a
// panic anywhere in the campaign stack into a *PanicError.
func (f *Fleet[T]) attempt(w int, job Job, ob *Observer) (val T, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Value: r, Stack: string(debug.Stack())}
		}
	}()
	f.cfg.Timeline.Phase(w, job.Label(), obs.PhaseBuild, time.Time{})
	tb, err := job.build()
	if err != nil {
		return val, err
	}
	// Runners that report pipeline phases (Observer.Phase) refine this;
	// anything else is attributed to the catch-all run phase.
	ob.clock = tb.Clock
	f.cfg.Timeline.Phase(w, job.Label(), obs.PhaseRun, tb.Clock.Now())
	val, err = f.runner(tb, job, ob)
	// The last phase ends on the sim clock where the runner left the
	// testbed; its wall time runs on until the worker's next transition.
	f.cfg.Timeline.SimEnd(w, tb.Clock.Now())
	return val, err
}

// FirstError returns the first failed job's error in job order, or nil if
// every job succeeded. Drivers that want all-or-nothing semantics (every
// table needs every row) use it to fail deterministically.
func FirstError[T any](results []Result[T]) error {
	for i := range results {
		if results[i].Err != nil {
			return results[i].Err
		}
	}
	return nil
}
