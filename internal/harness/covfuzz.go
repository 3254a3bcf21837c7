package harness

import (
	"fmt"
	"strconv"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/corpus"
	"zcover/internal/fleet"
	"zcover/internal/oracle"
	"zcover/internal/report"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/minimize"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// CovFuzzOptions configures the coverage-guided pipeline's corpus side.
// The zero value keeps the corpus in memory only.
type CovFuzzOptions struct {
	// CorpusDir, when set, journals every admitted seed to a crash-safe
	// corpus journal under this directory (corpus.OpenJournal), so a
	// killed campaign keeps its corpus and a resumed one replays it.
	CorpusDir string
	// Resume allows continuing an existing corpus journal; without it an
	// existing journal is refused, mirroring campaign checkpoints.
	Resume bool
	// Minimize reduces finding seeds to their minimal trigger before
	// admission (corpus.Manager.SetMinimizer).
	Minimize bool
}

// covFuzzKey pins a corpus journal to the campaign that wrote it: any
// drift in these inputs changes the SpecHash and refuses the journal.
type covFuzzKey struct {
	Device   string        `json:"device"`
	Duration time.Duration `json:"duration"`
	Frames   int           `json:"frames,omitempty"`
	Seed     int64         `json:"seed"`
}

// RunCovFuzz executes the coverage-guided pipeline against the testbed's
// controller with an in-memory corpus.
func RunCovFuzz(tb *testbed.Testbed, duration time.Duration, seed int64) (*fuzz.CovResult, error) {
	return RunCovFuzzWith(tb, duration, seed, Options{}, CovFuzzOptions{})
}

// RunCovFuzzWith runs the full three-phase pipeline — fingerprinting,
// discovery, then the coverage-guided engine in place of the generational
// one. The engine's behavioral-coverage collector is wired into the
// controller's dispatch path and the oracle bus for the duration of the
// run, and coverage-novel inputs grow a deterministic corpus.
func RunCovFuzzWith(tb *testbed.Testbed, duration time.Duration, seed int64, opts Options, covOpts CovFuzzOptions) (*fuzz.CovResult, error) {
	reg, err := cmdclass.Load()
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	d := dongle.New(tb.Medium, tb.Region)

	var recorder *telemetry.FlightRecorder
	if opts.FlightRecorderDepth > 0 {
		recorder = telemetry.NewFlightRecorder(opts.FlightRecorderDepth)
		tb.Medium.SetFlightRecorder(recorder)
		defer tb.Medium.SetFlightRecorder(nil)
	}
	device := tb.Controller.Profile().Index

	// Phase 1: fingerprinting.
	opts.phase("scan")
	tb.ScheduleTraffic(12, 10*time.Second)
	fp, err := scan.FingerprintTarget(d, PassiveScanWindow, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: fingerprinting: %w", err)
	}

	// Phase 2: discovery — the coverage-guided engine starts from the same
	// prioritised queue as the full generational strategy.
	opts.phase("discover")
	disc, err := discover.Run(d, reg, fp)
	if err != nil {
		return nil, fmt.Errorf("harness: discovery: %w", err)
	}

	// Phase 3: coverage-guided fuzzing.
	mut := mutate.New(mutate.Semantics{Controller: fp.Controller, KnownNodes: fp.Nodes}, seed)
	queue := fuzz.BuildQueue(fuzz.StrategyFull, reg, nil, disc.Prioritized, seed)
	opts.phase("fuzz")
	fcfg := fuzz.Config{
		Duration:    duration,
		OnFinding:   opts.OnFinding,
		Recorder:    recorder,
		FrameBudget: opts.FrameBudget,
	}
	if tb.Chaos != nil {
		fcfg.Impairment = tb.Chaos
		fcfg.PingAttempts = 3
	}
	engine, err := fuzz.NewCov(d, fp, queue, mut, device, seed, fcfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}

	// Wire the behavioral-coverage hooks for the duration of the run.
	cov := engine.Coverage()
	tb.Controller.SetCoverage(cov)
	defer tb.Controller.SetCoverage(nil)
	tb.Bus.SetCoverage(cov)
	defer tb.Bus.SetCoverage(nil)

	if covOpts.Minimize {
		engine.Corpus().SetMinimizer(minimize.New(device, seed))
	}
	if covOpts.CorpusDir != "" {
		key := covFuzzKey{Device: device, Duration: duration, Frames: opts.FrameBudget, Seed: seed}
		j, err := corpus.OpenJournal(covOpts.CorpusDir, "covfuzz-"+device, key, covOpts.Resume)
		if err != nil {
			return nil, err
		}
		defer j.Close()
		engine.Corpus().AttachJournal(j)
	}

	sub := tb.Bus.Subscribe(engine.Observe)
	defer sub.Unsubscribe()
	res, err := engine.Run()
	if err != nil {
		return nil, err
	}
	res.CommandsCovered = len(disc.ConfirmedCommands)
	return res, nil
}

// distinctKinds counts the distinct oracle effect classes among findings
// — hangs, node tampering, database overwrites, ... — the "discovery
// classes" the engine comparison is scored on.
func distinctKinds(findings []fuzz.Finding) int {
	seen := make(map[oracle.Kind]bool, len(findings))
	for _, f := range findings {
		seen[f.Event.Kind] = true
	}
	return len(seen)
}

// framesToFirst reports the frame count at the first finding, 0 if none.
func framesToFirst(findings []fuzz.Finding) int {
	if len(findings) == 0 {
		return 0
	}
	return findings[0].Packets
}

// CovFuzzRow is one device's engine comparison at an equal frame budget.
type CovFuzzRow struct {
	Index        string
	Frames       int
	GenVulns     int
	GenKinds     int
	GenFirst     int
	CovVulns     int
	CovKinds     int
	CovFirst     int
	CovCorpus    int
	CovFeatures  int
	CovDensity   float64
	SeedsMinimal int
}

// covFuzzFramesPerTest is the nominal simulated cost of one test cycle
// (response window + inter-test gap), used to convert a time budget into
// an equal frame budget for both engines.
const covFuzzFramesPerTest = 500 * time.Millisecond

// CovFuzzTable compares the coverage-guided engine against the
// generational engine on D1–D5 at an equal frame budget derived from
// duration. Both engines run the identical discovery pipeline and get the
// same time and frame caps; the table reports unique findings, distinct
// discovery classes, frames to first discovery, and the coverage map's
// final state.
func CovFuzzTable(duration time.Duration, cfg fleet.Config) (*report.Table, []CovFuzzRow, error) {
	if duration <= 0 {
		duration = 24 * time.Hour
	}
	frames := int(duration / covFuzzFramesPerTest)
	out := &report.Table{
		Title: "Coverage-guided vs generational fuzzing at equal frame budget",
		Headers: []string{"ID", "Frames", "Gen #Vul", "Gen Kinds", "Gen 1st",
			"Cov #Vul", "Cov Kinds", "Cov 1st", "Corpus", "Features", "Density"},
		Notes: []string{
			"Both engines run the full discovery pipeline and stop at the same",
			"frame budget; 1st is the frame count of the first discovery (0 = none).",
			"Features/Density describe the behavioral coverage map (dispatch state x",
			"CMDCL x encap depth x security class, Serial API handlers, oracle events).",
		},
	}
	devices := []string{"D1", "D2", "D3", "D4", "D5"}
	var jobs []fleet.Job
	for _, idx := range devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "covfuzz/" + idx + "/gen", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: duration, Frames: frames},
			fleet.Job{Name: "covfuzz/" + idx + "/cov", Device: idx,
				Strategy: fuzz.StrategyFull, FuzzMode: fleet.ModeCoverage,
				Seed: seed, Budget: duration, Frames: frames})
	}
	outs, err := runCampaigns("covfuzz", jobs, cfg)
	if err != nil {
		return nil, nil, err
	}
	var rows []CovFuzzRow
	for i, idx := range devices {
		gen := outs[2*i].Campaign.Fuzz
		cov := outs[2*i+1].CovFuzz
		row := CovFuzzRow{
			Index:    idx,
			Frames:   frames,
			GenVulns: len(gen.Findings), GenKinds: distinctKinds(gen.Findings),
			GenFirst: framesToFirst(gen.Findings),
			CovVulns: len(cov.Findings), CovKinds: distinctKinds(cov.Findings),
			CovFirst:  framesToFirst(cov.Findings),
			CovCorpus: cov.CorpusSize, CovFeatures: cov.Coverage.Features,
			CovDensity:   cov.Coverage.Density,
			SeedsMinimal: cov.SeedsMinimized,
		}
		rows = append(rows, row)
		out.AddRow(idx, strconv.Itoa(row.Frames),
			strconv.Itoa(row.GenVulns), strconv.Itoa(row.GenKinds), strconv.Itoa(row.GenFirst),
			strconv.Itoa(row.CovVulns), strconv.Itoa(row.CovKinds), strconv.Itoa(row.CovFirst),
			strconv.Itoa(row.CovCorpus), strconv.Itoa(row.CovFeatures),
			fmt.Sprintf("%.5f", row.CovDensity))
	}
	return out, rows, nil
}
