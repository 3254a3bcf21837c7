// Command experiments regenerates every table and figure of the paper's
// evaluation section against the simulated testbed.
//
// Usage:
//
//	experiments                 # everything, paper budgets
//	experiments -run table5     # one experiment
//	experiments -fuzz 2h        # shrink the 24 h campaigns (faster)
//	experiments -workers 8      # parallel campaigns (0 = GOMAXPROCS)
//	experiments -progress       # live fleet ticker on stderr
//	experiments -metrics-out metrics.json -trace-out trace.json
//	experiments -flight-recorder 16 -obs-addr localhost:6060
//
// Campaign experiments (table3/4/5/6, fig12, trials, remediation) are
// scheduled across the internal/fleet worker pool: each campaign runs on
// its own simulated testbed, so results are byte-identical for any
// -workers value, including the sequential -workers=1 fallback.
//
// Figure data series are printed as CSV after the corresponding summary.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"zcover"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/obs"
	"zcover/internal/report"
	"zcover/internal/telemetry"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

// ticker renders fleet progress as a single self-overwriting stderr line.
type ticker struct {
	mu   sync.Mutex
	last time.Time
	live bool // a progress line is on screen
}

// update is the fleet.Config OnProgress callback.
func (t *ticker) update(p fleet.Progress) {
	t.mu.Lock()
	defer t.mu.Unlock()
	// Throttle redraws; always render terminal states so the final counts
	// are never stale.
	if !p.Finished() && time.Since(t.last) < 100*time.Millisecond {
		return
	}
	t.last = time.Now()
	fmt.Fprintf(os.Stderr, "\r\033[Kfleet: %s", p)
	t.live = true
	if p.Finished() {
		fmt.Fprintln(os.Stderr)
		t.live = false
	}
}

// clear ends a dangling progress line before normal output resumes.
func (t *ticker) clear() {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.live {
		fmt.Fprintln(os.Stderr)
		t.live = false
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	which := fs.String("run", "all", "experiment to run: all, fig1, fig5, figs8-11, table2, table3, table4, table5, table6, covfuzz, fig12, trials, remediation, chaos")
	fuzzBudget := fs.Duration("fuzz", 24*time.Hour, "fuzzing budget for the campaign experiments (paper: 24h)")
	ablation := fs.Duration("ablation", time.Hour, "budget for the ablation study (paper: 1h)")
	window := fs.Duration("window", 800*time.Second, "figure 12 plot window (paper: ~800s)")
	outDir := fs.String("out", "", "also write figure CSV series into this directory")
	workers := fs.Int("workers", 0, "parallel campaign workers; 1 = sequential, 0 = GOMAXPROCS")
	attempts := fs.Int("attempts", 0, "attempts per campaign before it is reported failed (0 = fleet default)")
	progress := fs.Bool("progress", false, "render a live fleet progress ticker on stderr")
	metricsOut := fs.String("metrics-out", "", "write final metrics to this file (.json = JSON document, else Prometheus text)")
	traceOut := fs.String("trace-out", "", "write the final worker timeline (per-job phase intervals on the wall and sim clocks) to this file as one JSON document")
	flightDepth := fs.Int("flight-recorder", 0, "attach a packet flight recorder of this depth to every campaign testbed (0 = off)")
	chaosProfiles := fs.String("chaos-profiles", "", "comma-separated impairment profiles for -run chaos (empty = burst,noise,jitter)")
	chaosSeed := fs.Int64("chaos-seed", 1, "deterministic seed for the chaos campaign's fault injectors")
	obsAddr := fs.String("obs-addr", "", "serve the observability endpoints (/debug/pprof, /metrics, /healthz, /timeline) on this address, e.g. localhost:6060")
	profileDir := fs.String("profile-dir", "", "enable mutex/block contention profiling and write pprof-format snapshots into this directory at run end")
	ckptDir := fs.String("checkpoint-dir", "", "journal completed campaign jobs into this directory (crash-safe; resume with -resume)")
	resume := fs.Bool("resume", false, "continue existing journals in -checkpoint-dir instead of refusing to overwrite them")
	buglogOut := fs.String("buglog-out", "", "write every completed campaign's findings to this file as bug-log JSON lines")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *resume && *ckptDir == "" {
		return fmt.Errorf("-resume needs -checkpoint-dir")
	}
	// Fleet counters publish into the process registry; the drivers run one
	// fleet at a time, so per-fleet Progress deltas stay exact while the
	// registry accumulates process totals for -metrics-out. The worker
	// timeline feeds the /timeline endpoint live and -trace-out at exit.
	timeline := obs.NewTimeline()
	fleetCfg := fleet.Config{Workers: *workers, MaxAttempts: *attempts,
		Telemetry: telemetry.Default(), Timeline: timeline}
	if *obsAddr != "" {
		// Binds synchronously: a bad address fails here, before any
		// campaign work, instead of being printed and swallowed mid-run.
		srv, err := obs.NewServer(*obsAddr, telemetry.Default(), timeline)
		if err != nil {
			return err
		}
		defer func() {
			ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
			defer cancel()
			if err := srv.Close(ctx); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: obs server:", err)
			}
		}()
		fmt.Fprintf(os.Stderr, "experiments: observability on http://%s\n", srv.Addr())
	}
	harness.SetFleetRecorderDepth(*flightDepth)
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			return err
		}
		fleetCfg.Checkpoint = &fleet.CheckpointSpec{Dir: *ckptDir, Resume: *resume}
	}
	if *buglogOut != "" {
		bf, err := os.Create(*buglogOut)
		if err != nil {
			return err
		}
		defer bf.Close()
		harness.SetBugLog(bf)
		defer harness.SetBugLog(nil)
	}
	if *traceOut != "" {
		defer func() {
			if err := timeline.Snapshot().WriteFile(*traceOut); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if *metricsOut != "" {
		defer func() {
			if err := telemetry.Default().WriteFile(*metricsOut); err != nil {
				fmt.Fprintln(os.Stderr, "experiments:", err)
			}
		}()
	}
	if *profileDir != "" {
		restore := obs.StartProfiling(obs.ProfileConfig{})
		defer restore()
		// Registered after the -metrics-out defer so the runtime sample
		// (obs_* gauges) lands in the exported metrics file too.
		defer func() {
			obs.SampleRuntimeMetrics(telemetry.Default())
			if err := obs.SnapshotProfiles(*profileDir); err != nil {
				fmt.Fprintln(os.Stderr, "experiments: profile snapshots:", err)
			}
		}()
	}
	tick := &ticker{}
	if *progress {
		fleetCfg.OnProgress = tick.update
	}
	writeCSV := func(name, content string) error {
		if *outDir == "" {
			return nil
		}
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(*outDir, name), []byte(content), 0o644)
	}

	want := func(name string) bool { return *which == "all" || *which == name }
	ran := false

	if want("fig1") {
		ran = true
		fmt.Println(zcover.Fig1().String())
	}
	if want("fig5") {
		ran = true
		tbl, csv, err := zcover.Fig5()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
		fmt.Println("fig5.csv:")
		fmt.Println(csv.String())
		if err := writeCSV("fig5.csv", csv.String()); err != nil {
			return err
		}
	}
	if want("table2") {
		ran = true
		fmt.Println(zcover.Table2().String())
	}
	if want("table3") {
		ran = true
		tbl, _, err := harness.Table3Fleet(*fuzzBudget, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("table4") {
		ran = true
		tbl, _, err := harness.Table4Fleet(fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("table5") {
		ran = true
		tbl, _, err := harness.Table5Fleet(*fuzzBudget, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("covfuzz") {
		ran = true
		tbl, _, err := harness.CovFuzzTable(*fuzzBudget, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("table6") {
		ran = true
		tbl, _, err := harness.Table6Fleet(*ablation, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("figs8-11") {
		ran = true
		views, err := zcover.Figs8to11()
		if err != nil {
			return err
		}
		for _, v := range views {
			fmt.Println(v.String())
		}
	}
	if want("remediation") {
		ran = true
		tbl, _, err := harness.RemediationFleet(nil, *fuzzBudget, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if want("trials") {
		ran = true
		// "We conducted five 24-hour fuzzing trials for each controller."
		for _, idx := range []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"} {
			sum, err := harness.RunTrialsFleet(idx, 5, *fuzzBudget, 300, fleetCfg)
			tick.clear()
			if err != nil {
				return err
			}
			fmt.Printf("%s: per-trial %v, union %d, stable %v\n",
				sum.Device, sum.PerTrial, sum.Union, sum.Stable)
		}
		fmt.Println()
	}
	if want("fig12") {
		ran = true
		csvs, series, err := harness.Fig12Fleet(*fuzzBudget, *window, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		for i, s := range series {
			fmt.Printf("Figure 12(%c): %s — %d unique vulnerabilities, first within %s\n",
				'a'+i, s.Index, len(s.Discoveries), s.Discoveries[0].Elapsed.Round(time.Second))
			chart := report.Chart{
				Title:  fmt.Sprintf("packets over time, %s (first %s)", s.Index, *window),
				XLabel: "time", YLabel: "test packets",
			}
			for _, sample := range s.Samples {
				chart.Points = append(chart.Points, report.Point{X: sample.Elapsed, Y: sample.Packets})
			}
			for _, f := range s.Discoveries {
				if f.Elapsed <= *window {
					chart.Points = append(chart.Points, report.Point{X: f.Elapsed, Y: f.Packets, Mark: true})
				}
			}
			fmt.Println(chart.String())
			name := fmt.Sprintf("fig12_%s.csv", strings.ToLower(s.Index))
			fmt.Printf("%s:\n%s\n", name, csvs[i].String())
			if err := writeCSV(name, csvs[i].String()); err != nil {
				return err
			}
		}
	}
	// The chaos robustness sweep runs only on request: it is not a paper
	// table but the detection-robustness rerun of Table V under impairment.
	if *which == "chaos" {
		ran = true
		var profiles []string
		if *chaosProfiles != "" {
			profiles = strings.Split(*chaosProfiles, ",")
		}
		tbl, _, err := harness.ChaosTable5(*fuzzBudget, profiles, *chaosSeed, fleetCfg)
		tick.clear()
		if err != nil {
			return err
		}
		fmt.Println(tbl.String())
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", *which)
	}
	return nil
}
