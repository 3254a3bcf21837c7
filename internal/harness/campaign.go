// Package harness orchestrates complete experiments: it assembles a
// testbed, runs the three ZCover phases (or a baseline fuzzer) end to end,
// and regenerates every table and figure of the paper's evaluation
// section. Each experiment driver lives in its own file (table3.go,
// fig12.go, ...).
package harness

import (
	"fmt"
	"time"

	"zcover/internal/cmdclass"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/vfuzz"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// PassiveScanWindow is how long campaigns sniff before interrogating the
// target; the testbed schedules periodic slave reports inside it.
const PassiveScanWindow = 2 * time.Minute

// Options attaches optional observability to a campaign run. The zero value
// runs the campaign exactly as before: no callbacks, no recorder.
// Every attachment is a pure observer — enabling them cannot change what the
// campaign finds, only what it records along the way.
type Options struct {
	// OnFinding is invoked live for each unique finding.
	OnFinding func(fuzz.Finding)
	// FlightRecorderDepth, when positive, attaches a packet flight recorder
	// of that depth to the testbed medium for the duration of the run, and
	// each finding carries a snapshot of the last frames on the air at the
	// moment of discovery (Finding.Trace).
	FlightRecorderDepth int
	// OnPhase, when non-nil, is invoked at the start of each pipeline
	// phase ("scan", "discover", "fuzz") on the campaign goroutine. The
	// testbed's owner hooks its obs.Timeline here, stamping each boundary
	// on the wall clock and the testbed's sim clock.
	OnPhase func(phase string)
	// FrameBudget, when positive, caps the campaign's injected test frames
	// (fuzz.Config.FrameBudget) — the equal-budget knob the covfuzz
	// comparison tables use. Unlike the observers above this does change
	// what the campaign finds; it is a budget, not an attachment.
	FrameBudget int
}

// phase fires OnPhase at a pipeline phase boundary.
func (o Options) phase(name string) {
	if o.OnPhase != nil {
		o.OnPhase(name)
	}
}

// Campaign is one complete ZCover run against one testbed.
type Campaign struct {
	// Fingerprint is the phase-1 output.
	Fingerprint scan.Fingerprint
	// Discovery is the phase-2 output (zero value for β/γ, which skip it
	// in whole or in part).
	Discovery discover.Result
	// Fuzz is the phase-3 campaign result.
	Fuzz *fuzz.Result
}

// RunZCover executes the full ZCover pipeline against the testbed's
// controller with the given strategy and fuzzing budget.
func RunZCover(tb *testbed.Testbed, strategy fuzz.Strategy, duration time.Duration, seed int64) (*Campaign, error) {
	return RunZCoverWith(tb, strategy, duration, seed, Options{})
}

// RunZCoverObserved is RunZCover with a live finding callback.
func RunZCoverObserved(tb *testbed.Testbed, strategy fuzz.Strategy, duration time.Duration, seed int64, onFinding func(fuzz.Finding)) (*Campaign, error) {
	return RunZCoverWith(tb, strategy, duration, seed, Options{OnFinding: onFinding})
}

// RunZCoverWith is RunZCover with observability attachments.
func RunZCoverWith(tb *testbed.Testbed, strategy fuzz.Strategy, duration time.Duration, seed int64, opts Options) (*Campaign, error) {
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

	// Phase 1: known-properties fingerprinting over live traffic.
	opts.phase("scan")
	tb.ScheduleTraffic(12, 10*time.Second)
	fp, err := scan.FingerprintTarget(d, PassiveScanWindow, 0)
	if err != nil {
		return nil, fmt.Errorf("harness: fingerprinting: %w", err)
	}
	out := &Campaign{Fingerprint: fp}

	// Phase 2: unknown-properties discovery (full strategy only — the β
	// ablation deliberately ignores unknown classes, γ ignores both).
	var listed, prioritized []*cmdclass.Class
	for _, id := range fp.Listed {
		if cls, ok := reg.Get(id); ok {
			listed = append(listed, cls)
		}
	}
	if strategy == fuzz.StrategyFull {
		opts.phase("discover")
		out.Discovery, err = discover.Run(d, reg, fp)
		if err != nil {
			return nil, fmt.Errorf("harness: discovery: %w", err)
		}
		prioritized = out.Discovery.Prioritized
	}

	// Phase 3: position-sensitive mutation fuzzing.
	var mut *mutate.Mutator
	if strategy == fuzz.StrategyRandom {
		mut = mutate.NewRandom(seed)
	} else {
		mut = mutate.New(mutate.Semantics{Controller: fp.Controller, KnownNodes: fp.Nodes}, seed)
	}
	queue := fuzz.BuildQueue(strategy, reg, listed, prioritized, seed)
	opts.phase("fuzz")
	fcfg := fuzz.Config{
		Duration:    duration,
		OnFinding:   opts.OnFinding,
		Recorder:    recorder,
		FrameBudget: opts.FrameBudget,
	}
	if tb.Chaos != nil {
		// Under chaos the engine grades findings against the injector's
		// fault timeline (Confidence) and re-probes liveness before calling
		// an outage, so impairment-induced silence is not a vulnerability.
		fcfg.Impairment = tb.Chaos
		fcfg.PingAttempts = 3
	}
	engine, err := fuzz.New(d, fp, queue, mut, strategy, tb.Controller.Profile().Index, fcfg)
	if err != nil {
		return nil, fmt.Errorf("harness: %w", err)
	}
	sub := tb.Bus.Subscribe(engine.Observe)
	defer sub.Unsubscribe()
	out.Fuzz = engine.Run()
	if strategy == fuzz.StrategyFull {
		// Only the full strategy runs discovery; for β/γ the engine's own
		// count stands rather than being clobbered by the zero-value
		// Discovery.
		out.Fuzz.CommandsCovered = len(out.Discovery.ConfirmedCommands)
	}
	return out, nil
}

// RunVFuzz executes the VFuzz baseline against the testbed's controller.
// VFuzz fingerprints the network the same way (it, too, scans for home and
// node IDs) and then fuzzes MAC frames for the budget.
func RunVFuzz(tb *testbed.Testbed, duration time.Duration, seed int64) (*fuzz.Result, error) {
	return RunVFuzzObserved(tb, duration, seed, nil)
}

// RunVFuzzObserved is RunVFuzz with a live finding callback.
func RunVFuzzObserved(tb *testbed.Testbed, duration time.Duration, seed int64, onFinding func(fuzz.Finding)) (*fuzz.Result, error) {
	return RunVFuzzWith(tb, duration, seed, Options{OnFinding: onFinding})
}

// RunVFuzzWith is RunVFuzz with observability attachments. The VFuzz
// baseline has no discovery phase, so OnPhase sees only scan and fuzz.
func RunVFuzzWith(tb *testbed.Testbed, duration time.Duration, seed int64, opts Options) (*fuzz.Result, error) {
	d := dongle.New(tb.Medium, tb.Region)
	if opts.FlightRecorderDepth > 0 {
		recorder := telemetry.NewFlightRecorder(opts.FlightRecorderDepth)
		tb.Medium.SetFlightRecorder(recorder)
		defer tb.Medium.SetFlightRecorder(nil)
	}

	opts.phase("scan")
	tb.ScheduleTraffic(12, 10*time.Second)
	nets := scan.Passive(d, PassiveScanWindow)
	if len(nets) == 0 {
		return nil, fmt.Errorf("harness: vfuzz: no traffic observed")
	}

	net := nets[0]
	opts.phase("fuzz")
	engine := vfuzz.New(d, net.Home, net.Controller, vfuzz.Config{
		Duration: duration, Seed: seed, OnFinding: opts.OnFinding,
	})
	sub := tb.Bus.Subscribe(engine.Observe)
	defer sub.Unsubscribe()
	res := engine.Run()
	res.Device = tb.Controller.Profile().Index
	return res, nil
}
