// Command zbench is the repository's benchmark: it runs one named
// workload of fuzzing campaigns for a fixed time, checks the campaigns'
// outputs, and prints its metrics as one JSON line.
//
//	bash perfbench/run.sh --workload table5 --seed 40 --seconds 30 --trace 0
//
// With --trace 0 it prints the end-to-end metrics; with --trace 1 it runs
// the workload traced and prints the per-layer metrics. See README.md.
package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/zcover/fuzz"
)

//go:embed golden
var golden embed.FS

// options are the command-line settings of one run.
type options struct {
	workload  string
	seed      int64
	seconds   float64
	trace     int
	out       string
	gitSHA    string
	probe     bool
	selftest  bool
	writeGold bool
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	var o options
	fs := flag.NewFlagSet("zbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload to run: table5, chaos or coord")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "input seed; 40 reproduces the paper's job seeds")
	fs.Float64Var(&o.seconds, "seconds", 30, "how long to measure")
	fs.IntVar(&o.trace, "trace", 0, "0 prints the end-to-end metrics, 1 runs traced and prints the per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build/perfbench", "directory for scratch files and trace output")
	fs.StringVar(&o.gitSHA, "git-sha", "unknown", "commit the binary was built from, for the host stamp")
	fs.BoolVar(&o.probe, "setup-probe", false, "time one cold set-up of the workload and print it (internal)")
	fs.BoolVar(&o.selftest, "selftest", false, "check that an injected coordinator delay moves the right metrics")
	fs.BoolVar(&o.writeGold, "write-golden", false, "write this seed's verified output to the golden directory")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if err := os.MkdirAll(filepath.Join(o.out, "tmp"), 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	tmp, err := os.MkdirTemp(filepath.Join(o.out, "tmp"), "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		return 1
	}
	defer os.RemoveAll(tmp)

	if o.selftest {
		return selftest(o, tmp)
	}
	w, ok := workloads[o.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "zbench: unknown workload %q (want table5, chaos or coord)\n", o.workload)
		return 2
	}
	if o.probe {
		d, err := setupOnce(w, &env{seed: o.seed, tmp: tmp})
		if err != nil {
			fmt.Fprintln(os.Stderr, "zbench: setup probe:", err)
			return 1
		}
		fmt.Println(strconv.FormatFloat(d.Seconds(), 'g', -1, 64))
		return 0
	}

	host := stampHost(o.gitSHA)
	stamp, _ := json.Marshal(map[string]any{"host": host, "workload": w.name, "seed": o.seed, "trace": o.trace})
	fmt.Println(string(stamp))

	var res result
	if o.trace == 1 {
		res, err = tracedRun(w, o, host, tmp)
	} else {
		res, err = measuredRun(w, o, tmp)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench:", err)
		res.Correct, res.Metrics = false, map[string]metric{}
	}
	line, _ := json.Marshal(res)
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// setupOnce times the workload's set-up: job list and everything before
// the first job starts.
func setupOnce(w *workload, e *env) (time.Duration, error) {
	start := time.Now()
	jobs := w.jobs(e.seed)
	cleanup, err := w.setup(e, jobs)
	d := time.Since(start)
	if err != nil {
		return 0, err
	}
	cleanup()
	return d, nil
}

// setupProbes is how many cold set-ups a run times; setup_s is the
// fastest. A probe takes about 10 ms. Single probes fall into a fast and a
// slow mode whose mix follows the host's load over minutes, so their median
// moved by half from run to run. Load on the host only ever slows a
// set-up, and the fastest of many stays within a tenth.
const setupProbes = 64

// probeSetups times n cold set-ups, each in a fresh process of this
// binary, so every sample pays the spec database load a user pays.
func probeSetups(o options, n int) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "-setup-probe", "-workload", o.workload,
			"-seed", strconv.FormatInt(o.seed, 10), "-out", o.out)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("setup probe: %w", err)
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(string(b)), 64)
		if err != nil {
			return nil, fmt.Errorf("setup probe printed %q: %w", b, err)
		}
		out = append(out, v)
	}
	return out, nil
}

// warmUp runs two short campaigns so lazy process-wide state (spec
// database, buffer pools, cipher contexts) is in place before timing.
func warmUp() error {
	jobs := []fleet.Job{
		{Name: "warmup/zcover", Device: "D1", Strategy: fuzz.StrategyFull, Seed: 1, Budget: 2 * time.Minute},
		{Name: "warmup/vfuzz", Device: "D2", Baseline: true, Seed: 1, Budget: 2 * time.Minute},
	}
	return fleet.FirstError(fleet.Run(jobs, harness.RunFleetJob, fleet.Config{Workers: 1}))
}

// iterate calls run until the next call would overrun budget, and at
// least minIters times.
func iterate(budget time.Duration, minIters int, run func() (iterResult, error)) ([]iterResult, error) {
	start := time.Now()
	var its []iterResult
	for {
		runtime.GC()
		resetPeakRSS()
		it, err := run()
		it.peakRSS = peakRSSMiB()
		its = append(its, it)
		if err != nil || len(its) >= minIters && time.Since(start)+it.makespan > budget {
			return its, err
		}
	}
}

// slim drops an iteration's outcomes once they are verified into its
// output, so peak memory does not grow with the iteration count.
func slim(it iterResult) iterResult {
	it.outs, it.timelines, it.coord = nil, nil, nil
	return it
}

// checkOutputs verifies every iteration produced the same output, that
// output matches the committed one when the seed has one, and no job
// failed.
func checkOutputs(name string, seed int64, its []iterResult) error {
	for i, it := range its {
		if it.failed > 0 {
			return fmt.Errorf("iteration %d: %d failed or retried job attempts", i, it.failed)
		}
		if !bytes.Equal(it.output, its[0].output) {
			return fmt.Errorf("iteration %d output differs from iteration 0:\n%s\nvs\n%s", i, it.output, its[0].output)
		}
	}
	want, err := golden.ReadFile(goldenPath(name, seed))
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(its[0].output, want) {
		return fmt.Errorf("%s output for seed %d differs from %s:\n%s\nwant\n%s",
			name, seed, goldenPath(name, seed), its[0].output, want)
	}
	return nil
}

func goldenPath(name string, seed int64) string {
	return fmt.Sprintf("golden/%s-seed%d.txt", name, seed)
}

// tally fills the attempted and failed job counts.
func tally(its []iterResult) (attempted, failed int) {
	for _, it := range its {
		attempted += it.attempts
		failed += it.failed
	}
	return attempted, failed
}

// measuredRun is the untraced run: it gives the end-to-end metrics.
func measuredRun(w *workload, o options, tmp string) (result, error) {
	var res result
	setups, err := probeSetups(o, setupProbes)
	if err != nil {
		return res, err
	}
	e := &env{seed: o.seed, tmp: tmp}
	jobs := w.jobs(o.seed)
	if err := warmUp(); err != nil {
		return res, err
	}
	its, err := iterate(secondsDur(o.seconds), 2, func() (iterResult, error) {
		it, err := w.run(e, jobs)
		return slim(it), err
	})
	res.Attempted, res.Failed = tally(its)
	if err != nil {
		return res, err
	}
	if err := checkOutputs(w.name, o.seed, its); err != nil {
		return res, err
	}
	if o.writeGold {
		if err := writeGolden(w.name, o.seed, its[0].output); err != nil {
			return res, err
		}
	}
	var makespan, simRate, cpu, rss []float64
	for _, it := range its {
		makespan = append(makespan, it.makespan.Seconds())
		simRate = append(simRate, it.sim.Seconds()/it.makespan.Seconds())
		cpu = append(cpu, it.cpu.Seconds())
		rss = append(rss, it.peakRSS)
	}
	fmt.Fprintf(os.Stderr, "zbench: %s seed %d: %d iterations, makespan min %.4f median %.4f max %.4f s\n",
		w.name, o.seed, len(its), quantile(makespan, 0), median(makespan), quantile(makespan, 1))
	res.Correct = true
	res.Metrics = map[string]metric{
		"makespan_s":   {median(makespan), "s"},
		"sim_rate":     {median(simRate), "sim-s/s"},
		"cpu_s":        {median(cpu), "s"},
		"setup_s":      {quantile(setups, 0), "s"},
		"peak_rss_mb":  {median(rss), "MiB"},
		"job_ok_ratio": {1 - ratio(float64(res.Failed), float64(res.Attempted)), "ratio"},
	}
	return res, nil
}

func secondsDur(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// writeGolden records a verified output for the seed in the source tree.
func writeGolden(name string, seed int64, out []byte) error {
	return os.WriteFile(filepath.Join("perfbench", goldenPath(name, seed)), out, 0o644)
}

// tracedRun measures the workload untraced and traced in turn, then
// replays the layers on the workload's frames, and reports the per-layer
// metrics with the tracing overhead.
func tracedRun(w *workload, o options, host hostStamp, tmp string) (result, error) {
	var res result
	jobs := w.jobs(o.seed)
	if err := warmUp(); err != nil {
		return res, err
	}
	// Untraced and traced iterations alternate, so drift in the host's
	// speed reaches both halves alike and the overhead ratio compares
	// like with like.
	tr := newTracer()
	plainEnv, e := &env{seed: o.seed, tmp: tmp}, &env{seed: o.seed, tmp: tmp, tr: tr}
	var plainMs, tracedMs []float64
	var traced []tracedIter
	var last iterResult
	all, err := iterate(secondsDur(o.seconds), 4, func() (iterResult, error) {
		if len(plainMs) == len(tracedMs) {
			it, err := w.run(plainEnv, jobs)
			plainMs = append(plainMs, it.makespan.Seconds())
			return slim(it), err
		}
		start := time.Now()
		e.root = tr.add(0, w.name, "workload", w.name, start, start, 0)
		c0, r0 := counters(), sampleRuntime()
		it, err := w.run(e, jobs)
		cnt, rt := countDelta(c0, counters()), r0.delta(sampleRuntime())
		tr.finish(e.root, time.Now())
		traced = append(traced, observe(it, cnt, rt))
		tracedMs, last = append(tracedMs, it.makespan.Seconds()), it
		return slim(it), err
	})
	res.Attempted, res.Failed = tally(all)
	if err != nil {
		return res, err
	}
	if err := checkOutputs(w.name, o.seed, all); err != nil {
		return res, err
	}

	inexact := inexactCounts(traced)
	for _, name := range inexact {
		fmt.Fprintf(os.Stderr, "zbench: count %s differs between traced runs of seed %d; it cannot back a count claim\n", name, o.seed)
	}

	m := make(map[string]float64)
	perIter := make(map[string][]float64)
	for _, t := range traced {
		for k, v := range t.layers {
			perIter[k] = append(perIter[k], v)
		}
	}
	for k, vs := range perIter {
		m[k] = median(vs)
	}
	coordLatencies(traced, m)

	r := &replayer{tr: tr, tmp: tmp, ns: map[string]float64{}, ops: map[string]float64{}}
	start := time.Now()
	replayRoot := tr.add(0, "replay", "replay", "replay", start, start, 0)
	for _, job := range captureJobs(jobs) {
		if err := r.replayDevice(replayRoot, job); err != nil {
			return res, err
		}
	}
	outBytes, err := r.replayOutcomes(replayRoot, w.name, last)
	if err != nil {
		return res, err
	}
	tr.finish(replayRoot, time.Now())
	for metricName, op := range map[string]string{
		"mutate.next_ns": "mutate.next", "protocol.decode_ns": "protocol.decode",
		"protocol.encode_ns": "protocol.encode", "radio.transmit_ns": "radio.transmit",
		"chaos.intercept_ns": "chaos.intercept", "security.s2_roundtrip_ns": "security.s2_roundtrip",
		"vtime.schedule_ns": "vtime.schedule", "vtime.advance_ns": "vtime.advance",
	} {
		m[metricName] = r.perOp(op)
	}
	m["cycle.exchange_us"] = r.perOp("cycle.exchange") / 1e3
	m["cycle.other_us"] = r.otherUS()
	m["harness.outcome_bytes"] = outBytes
	m["harness.encode_us"] = r.perOp("harness.encode") / 1e3
	m["harness.decode_us"] = r.perOp("harness.decode") / 1e3
	m["checkpoint.append_ms"] = r.perOp("checkpoint.append") / 1e6
	m["counts.inexact"] = float64(len(inexact))

	fmt.Fprintf(os.Stderr, "zbench: %s seed %d: untraced makespan median %.4f s over %d iterations, traced %.4f s over %d\n",
		w.name, o.seed, median(plainMs), len(plainMs), median(tracedMs), len(tracedMs))
	m["trace.makespan_s"] = median(tracedMs)
	m["trace.overhead_ratio"] = median(tracedMs)/median(plainMs) - 1

	path := filepath.Join(o.out, fmt.Sprintf("trace-%s-seed%d.json", w.name, o.seed))
	if err := tr.write(path, traceFile{Host: host, Workload: w.name, Seed: o.seed, InexactCounts: inexact}); err != nil {
		return res, err
	}
	fmt.Fprintln(os.Stderr, "zbench: trace written to", path)

	res.Correct = true
	res.Metrics = make(map[string]metric, len(perLayer))
	for _, d := range perLayer {
		res.Metrics[d.name] = metric{m[d.name], d.unit}
	}
	return res, nil
}
