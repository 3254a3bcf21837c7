// Package zcover is a from-scratch Go reproduction of ZCover, the Z-Wave
// controller security-analysis framework of Nkuba et al. (DSN 2025):
// "ZCover: Uncovering Z-Wave Controller Vulnerabilities Through Systematic
// Security Analysis of Application Layer Implementation".
//
// The library bundles two things:
//
//   - A simulated Z-Wave smart home standing in for the paper's hardware
//     testbed: a software-defined sub-GHz air, emulated controllers D1–D7
//     carrying the paper's fifteen Table III vulnerability models, an
//     S2-paired door lock, and a legacy binary switch.
//
//   - The ZCover pipeline itself: passive/active fingerprinting, unknown
//     command-class discovery (spec clustering plus validation testing),
//     and the position-sensitive mutation fuzzer — plus a reimplementation
//     of the VFuzz baseline for comparison.
//
// The quickest way in:
//
//	tb, err := zcover.NewTestbed("D6", 1)
//	if err != nil { ... }
//	campaign, err := zcover.Run(tb, zcover.StrategyFull, time.Hour, 1)
//	for _, f := range campaign.Fuzz.Findings {
//	    fmt.Println(f.Elapsed, f.Signature)
//	}
//
// Every table and figure of the paper's evaluation can be regenerated with
// the experiment drivers (Table3, Table4, Table5, Table6, Fig5, Fig12) or
// the cmd/experiments binary.
package zcover

import (
	"time"

	"zcover/internal/chaos"
	"zcover/internal/coverage"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/oracle"
	"zcover/internal/report"
	"zcover/internal/testbed"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// Version identifies the library release.
const Version = "1.0.0"

// Core workflow types, re-exported from the implementation packages.
type (
	// Testbed is one assembled smart-home system under test.
	Testbed = testbed.Testbed
	// Campaign is a complete ZCover run: fingerprint, discovery, fuzzing.
	Campaign = harness.Campaign
	// Strategy selects the fuzzing configuration.
	Strategy = fuzz.Strategy
	// Result is a fuzzing campaign summary.
	Result = fuzz.Result
	// Finding is one unique vulnerability discovery.
	Finding = fuzz.Finding
	// Fingerprint is the phase-1 output (home ID, node IDs, listed classes).
	Fingerprint = scan.Fingerprint
	// AnomalyEvent is one oracle observation.
	AnomalyEvent = oracle.Event
	// PaperBug is one row of the paper's Table III catalogue.
	PaperBug = harness.PaperBug
	// Table is a rendered experiment table.
	Table = report.Table
	// CSV is a rendered figure series.
	CSV = report.CSV
	// FleetConfig tunes the parallel campaign scheduler (worker count,
	// retry limit, progress callback).
	FleetConfig = fleet.Config
	// FleetProgress is an atomic snapshot of a running campaign fleet.
	FleetProgress = fleet.Progress
	// FleetJob is one self-contained campaign spec for the scheduler.
	FleetJob = fleet.Job
	// Options attaches observability (finding callback, packet flight
	// recorder, phase hook) to a campaign run.
	Options = harness.Options
	// TraceFrame is one serialised flight-recorder frame in a bug log.
	TraceFrame = fuzz.TraceFrame
	// ChaosProfile is one named channel-impairment configuration for the
	// deterministic fault injector (burst loss, corruption, duplication,
	// jitter, partitions).
	ChaosProfile = chaos.Profile
	// ChaosInjector is the seeded fault injector a profile instantiates;
	// Testbed.ApplyChaos installs one on the simulated air.
	ChaosInjector = chaos.Injector
	// ChaosStats counts the faults an injector has applied, per kind.
	ChaosStats = chaos.Stats
	// ChaosRow is one (device, profile) cell of the chaos robustness table.
	ChaosRow = harness.ChaosRow
	// Confidence is the oracle's grade for a finding: confirmed, or suspect
	// when it overlapped an injected channel fault.
	Confidence = oracle.Confidence
	// CampaignKey identifies a single-campaign checkpoint journal: every
	// input that determines the campaign's output.
	CampaignKey = harness.CampaignKey
	// CovResult is a coverage-guided campaign summary: the base Result
	// plus the behavioral coverage map's final state and corpus size.
	CovResult = fuzz.CovResult
	// CoverageStats is a behavioral-coverage map snapshot.
	CoverageStats = coverage.Stats
	// CovFuzzOptions configures the coverage-guided pipeline's corpus
	// side: journal directory, resume, seed minimisation.
	CovFuzzOptions = harness.CovFuzzOptions
	// CovFuzzRow is one device's engine comparison at equal frame budget.
	CovFuzzRow = harness.CovFuzzRow
)

// Oracle confidence grades.
const (
	// ConfidenceConfirmed marks a finding observed on a clean channel.
	ConfidenceConfirmed = oracle.ConfidenceConfirmed
	// ConfidenceSuspect marks a finding that overlapped channel impairment.
	ConfidenceSuspect = oracle.ConfidenceSuspect
)

// ParseChaosProfile resolves a profile spec — a builtin name ("burst",
// "noise", "jitter", "partition", "lossy", "stress", "none") optionally
// followed by overrides ("burst:badloss=0.7,partition=lock@1h/5m").
func ParseChaosProfile(spec string) (ChaosProfile, error) {
	return chaos.ParseProfile(spec)
}

// ChaosProfiles lists the builtin profile names.
func ChaosProfiles() []string { return chaos.Profiles() }

// Fuzzing strategies (the three configurations of the paper's ablation).
const (
	// StrategyFull enables every ZCover feature.
	StrategyFull = fuzz.StrategyFull
	// StrategyKnownOnly is the β ablation: listed command classes only.
	StrategyKnownOnly = fuzz.StrategyKnownOnly
	// StrategyRandom is the γ ablation: random classes, naive mutation.
	StrategyRandom = fuzz.StrategyRandom
)

// NewTestbed assembles the simulated smart home around the controller with
// the given testbed index ("D1".."D7", per Table II). seed drives pairing
// entropy deterministically.
func NewTestbed(index string, seed int64) (*Testbed, error) {
	return testbed.New(index, seed)
}

// NewPatchedTestbed assembles the same smart home around firmware built on
// the updated specification of §V-B: the spec-rooted vulnerabilities are
// closed, implementation bugs remain.
func NewPatchedTestbed(index string, seed int64) (*Testbed, error) {
	return testbed.NewPatched(index, seed)
}

// Run executes the full ZCover pipeline — fingerprinting, discovery, and
// fuzzing for the given budget — against the testbed's controller.
func Run(tb *Testbed, strategy Strategy, duration time.Duration, seed int64) (*Campaign, error) {
	return harness.RunZCover(tb, strategy, duration, seed)
}

// RunObserved is Run with a callback invoked live for each new unique
// finding (interactive progress).
func RunObserved(tb *Testbed, strategy Strategy, duration time.Duration, seed int64, onFinding func(Finding)) (*Campaign, error) {
	return harness.RunZCoverObserved(tb, strategy, duration, seed, onFinding)
}

// RunWith is Run with observability attachments: a live finding callback,
// a packet flight recorder whose snapshots ride on each finding, and a
// hook fired at each pipeline phase boundary. The zero Options value makes
// it identical to Run.
func RunWith(tb *Testbed, strategy Strategy, duration time.Duration, seed int64, opts Options) (*Campaign, error) {
	return harness.RunZCoverWith(tb, strategy, duration, seed, opts)
}

// RunResumable is RunWith behind a crash-safe checkpoint journal in dir: a
// campaign already journaled for the same key is replayed byte-identically
// (resumed=true) instead of re-executing, and a fresh run journals its
// outcome before returning. An existing journal is refused unless resume
// is set, so a campaign is never double-run by accident.
func RunResumable(dir string, resume bool, key CampaignKey, tb *Testbed, opts Options) (*Campaign, bool, error) {
	return harness.RunZCoverResumable(dir, resume, key, tb, opts)
}

// RunCoverage executes the coverage-guided pipeline — fingerprinting,
// discovery, then the behavioral-coverage-guided engine with a
// deterministic corpus — against the testbed's controller.
func RunCoverage(tb *Testbed, duration time.Duration, seed int64) (*CovResult, error) {
	return harness.RunCovFuzz(tb, duration, seed)
}

// RunCoverageWith is RunCoverage with observability attachments plus the
// corpus configuration: crash-safe corpus journaling under a directory
// (resumable) and optional seed minimisation.
func RunCoverageWith(tb *Testbed, duration time.Duration, seed int64, opts Options, covOpts CovFuzzOptions) (*CovResult, error) {
	return harness.RunCovFuzzWith(tb, duration, seed, opts, covOpts)
}

// RunBaseline executes the VFuzz baseline against the testbed's controller
// for the given budget.
func RunBaseline(tb *Testbed, duration time.Duration, seed int64) (*Result, error) {
	return harness.RunVFuzz(tb, duration, seed)
}

// RunBaselineWith is RunBaseline with observability attachments.
func RunBaselineWith(tb *Testbed, duration time.Duration, seed int64, opts Options) (*Result, error) {
	return harness.RunVFuzzWith(tb, duration, seed, opts)
}

// PaperBugs returns the paper's Table III vulnerability catalogue.
func PaperBugs() []PaperBug { return harness.PaperBugs() }

// Experiment drivers, one per table and figure of the evaluation section.
var (
	// Fig1 dissects the Figure 1 example frame.
	Fig1 = harness.Fig1
	// Fig5 regenerates the command-class distribution of Figure 5.
	Fig5 = harness.Fig5
	// Fig12 regenerates the detection timelines of Figure 12.
	Fig12 = harness.Fig12
	// Figs8to11 reproduces the memory-tampering views of Figures 8-11.
	Figs8to11 = harness.Figs8to11
	// Table2 renders the testbed inventory.
	Table2 = harness.Table2
	// Table3 reruns the zero-day discovery campaign.
	Table3 = harness.Table3
	// Table4 reruns fingerprinting and discovery on all controllers.
	Table4 = harness.Table4
	// Table5 reruns the VFuzz comparison.
	Table5 = harness.Table5
	// Table6 reruns the ablation study.
	Table6 = harness.Table6
	// Remediation validates the §V-B specification-update mitigation.
	Remediation = harness.Remediation
)

// Fleet-scheduled experiment drivers: identical output to the plain
// drivers for any worker count (each campaign is independently seeded on
// its own testbed), with the scheduling knobs exposed.
var (
	// Table3Fleet reruns the zero-day discovery campaign across a pool.
	Table3Fleet = harness.Table3Fleet
	// Table4Fleet reruns fingerprinting and discovery across a pool.
	Table4Fleet = harness.Table4Fleet
	// Table5Fleet reruns the VFuzz comparison across a pool.
	Table5Fleet = harness.Table5Fleet
	// Table6Fleet reruns the ablation study across a pool.
	Table6Fleet = harness.Table6Fleet
	// Fig12Fleet regenerates the detection timelines across a pool.
	Fig12Fleet = harness.Fig12Fleet
	// RemediationFleet validates the §V-B mitigation across a pool.
	RemediationFleet = harness.RemediationFleet
	// RunTrialsFleet repeats full campaigns against one device across a pool.
	RunTrialsFleet = harness.RunTrialsFleet
	// ChaosTable5 reruns the Table V ZCover campaigns under impairment
	// profiles and reports detection-robustness deltas.
	ChaosTable5 = harness.ChaosTable5
	// CovFuzzTable compares the coverage-guided engine against the
	// generational engine at an equal frame budget across a pool.
	CovFuzzTable = harness.CovFuzzTable
)
