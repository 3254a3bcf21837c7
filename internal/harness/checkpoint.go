package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sync"
	"time"

	"zcover/internal/checkpoint"
	"zcover/internal/cmdclass"
	"zcover/internal/fleet"
	"zcover/internal/testbed"
	"zcover/internal/zcover/discover"
	"zcover/internal/zcover/fuzz"
	"zcover/internal/zcover/scan"
)

// This file is the checkpoint half of the campaign layer: it serialises
// FleetOutcome values into internal/checkpoint journals and resumes
// campaign execution around the fleet. The coordinator (coord.go) writes
// the same journal format, so a coordinated campaign's journal resumes
// here too.
//
// The determinism contract: every job is fully determined by its spec
// (device, strategy, seed, budget, chaos profile/seed), so an outcome
// replayed from a journal is byte-identical to re-executing the job.
// Tables and bug logs rendered from any mix of cached and fresh
// outcomes therefore match an uninterrupted run exactly — the
// kill-anywhere/resume invariant pinned in checkpoint_test.go.

// discoveryRecord is the serialised form of discover.Result. Classes are
// stored as IDs and resolved back against the embedded specification on
// decode, so journals stay small and survive registry-pointer identity.
type discoveryRecord struct {
	Listed            []cmdclass.ClassID `json:"listed,omitempty"`
	Unlisted          []cmdclass.ClassID `json:"unlisted,omitempty"`
	Hidden            []cmdclass.ClassID `json:"hidden,omitempty"`
	ConfirmedCommands []discover.CmdRef  `json:"confirmed_commands,omitempty"`
	Prioritized       []cmdclass.ClassID `json:"prioritized,omitempty"`
	ProbesSent        int                `json:"probes_sent,omitempty"`
}

// campaignRecord is the serialised form of a ZCover Campaign. The fuzz
// result (findings with oracle events and confidence grades, timeline,
// packet counters, simulated elapsed time) marshals directly — every
// field is exported and JSON-exact (durations as nanoseconds, payloads
// as base64, sim timestamps as RFC 3339).
type campaignRecord struct {
	Fingerprint scan.Fingerprint `json:"fingerprint"`
	Discovery   discoveryRecord  `json:"discovery"`
	Fuzz        *fuzz.Result     `json:"fuzz"`
}

// outcomeRecord is the journal body of one FleetOutcome: exactly one of
// the fields is set, mirroring the in-memory invariant.
type outcomeRecord struct {
	Campaign *campaignRecord `json:"campaign,omitempty"`
	Baseline *fuzz.Result    `json:"baseline,omitempty"`
	CovFuzz  *fuzz.CovResult `json:"covfuzz,omitempty"`
}

// classIDs projects a class list to its IDs.
func classIDs(classes []*cmdclass.Class) []cmdclass.ClassID {
	if len(classes) == 0 {
		return nil
	}
	out := make([]cmdclass.ClassID, len(classes))
	for i, c := range classes {
		out[i] = c.ID
	}
	return out
}

// resolveClasses maps IDs back to specification classes: the registry
// first, then the proprietary (hidden) catalogue, then a synthesised
// minimal definition — the same fallback order the discovery phase uses
// when it meets a responding class with no spec entry.
func resolveClasses(reg *cmdclass.Registry, ids []cmdclass.ClassID) []*cmdclass.Class {
	if len(ids) == 0 {
		return nil
	}
	out := make([]*cmdclass.Class, len(ids))
	for i, id := range ids {
		if cls, ok := reg.Get(id); ok {
			out[i] = cls
		} else if cls, ok := cmdclass.HiddenClass(id); ok {
			out[i] = cls
		} else {
			out[i] = &cmdclass.Class{
				ID: id, Name: fmt.Sprintf("PROPRIETARY_0x%02X", byte(id)),
				Category: cmdclass.CategoryManagement, Scope: cmdclass.ScopeController,
			}
		}
	}
	return out
}

// EncodeOutcome serialises one campaign outcome for journaling.
func EncodeOutcome(o FleetOutcome) (json.RawMessage, error) {
	rec := outcomeRecord{Baseline: o.Baseline, CovFuzz: o.CovFuzz}
	if o.Campaign != nil {
		rec.Campaign = &campaignRecord{
			Fingerprint: o.Campaign.Fingerprint,
			Discovery: discoveryRecord{
				Listed:            classIDs(o.Campaign.Discovery.ListedClasses),
				Unlisted:          classIDs(o.Campaign.Discovery.UnlistedSpec),
				Hidden:            classIDs(o.Campaign.Discovery.HiddenConfirmed),
				ConfirmedCommands: o.Campaign.Discovery.ConfirmedCommands,
				Prioritized:       classIDs(o.Campaign.Discovery.Prioritized),
				ProbesSent:        o.Campaign.Discovery.ProbesSent,
			},
			Fuzz: o.Campaign.Fuzz,
		}
	}
	raw, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("harness: encoding outcome: %w", err)
	}
	return raw, nil
}

// DecodeOutcome is the EncodeOutcome inverse. Bodies arrive from disk and
// from coordinator workers, so it enforces the FleetOutcome invariant:
// exactly one outcome kind, and a campaign carries its fuzz result.
func DecodeOutcome(raw json.RawMessage) (FleetOutcome, error) {
	var rec outcomeRecord
	if err := json.Unmarshal(raw, &rec); err != nil {
		return FleetOutcome{}, fmt.Errorf("harness: decoding outcome: %w", err)
	}
	kinds := 0
	for _, set := range []bool{rec.Campaign != nil, rec.Baseline != nil, rec.CovFuzz != nil} {
		if set {
			kinds++
		}
	}
	if kinds != 1 {
		return FleetOutcome{}, fmt.Errorf("harness: decoding outcome: %d outcome kinds set, want exactly 1", kinds)
	}
	if rec.Campaign != nil && rec.Campaign.Fuzz == nil {
		return FleetOutcome{}, fmt.Errorf("harness: decoding outcome: campaign without a fuzz result")
	}
	out := FleetOutcome{Baseline: rec.Baseline, CovFuzz: rec.CovFuzz}
	if rec.Campaign != nil {
		reg, err := cmdclass.Load()
		if err != nil {
			return FleetOutcome{}, fmt.Errorf("harness: %w", err)
		}
		out.Campaign = &Campaign{
			Fingerprint: rec.Campaign.Fingerprint,
			Discovery: discover.Result{
				ListedClasses:     resolveClasses(reg, rec.Campaign.Discovery.Listed),
				UnlistedSpec:      resolveClasses(reg, rec.Campaign.Discovery.Unlisted),
				HiddenConfirmed:   resolveClasses(reg, rec.Campaign.Discovery.Hidden),
				ConfirmedCommands: rec.Campaign.Discovery.ConfirmedCommands,
				Prioritized:       resolveClasses(reg, rec.Campaign.Discovery.Prioritized),
				ProbesSent:        rec.Campaign.Discovery.ProbesSent,
			},
			Fuzz: rec.Campaign.Fuzz,
		}
	}
	return out, nil
}

// campaignSpec is what SpecHash fingerprints: the experiment name plus
// the complete job list. Any drift — a seed, a budget, a chaos profile,
// job order — changes the hash and refuses stale journals.
type campaignSpec struct {
	Campaign string      `json:"campaign"`
	Jobs     []fleet.Job `json:"jobs"`
}

// bug-log sink (SetBugLog): campaign drivers append every completed
// campaign's findings here as JSON lines, in job order.
var (
	bugLogMu sync.Mutex
	bugLogW  io.Writer
)

// SetBugLog directs every subsequent campaign driver to append its
// outcomes' findings to w as bug-log JSON lines (fuzz.WriteLog format),
// in deterministic job order. Nil disables. Intended for process
// start-up, like SetFleetRecorderDepth.
func SetBugLog(w io.Writer) {
	bugLogMu.Lock()
	defer bugLogMu.Unlock()
	bugLogW = w
}

// writeBugLog appends the outcomes' findings to the configured sink.
func writeBugLog(outs []FleetOutcome) error {
	bugLogMu.Lock()
	defer bugLogMu.Unlock()
	if bugLogW == nil {
		return nil
	}
	for _, o := range outs {
		if res := o.Fuzz(); res != nil {
			if err := fuzz.WriteLog(bugLogW, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// runCheckpointed is runCampaigns with a checkpoint spec: it resumes
// completed jobs from the campaign's journal and executes (and journals)
// the rest.
func runCheckpointed(name string, jobs []fleet.Job, cfg fleet.Config) ([]FleetOutcome, error) {
	spec := *cfg.Checkpoint
	hash, err := checkpoint.SpecHash(campaignSpec{Campaign: name, Jobs: jobs})
	if err != nil {
		return nil, err
	}
	path := checkpoint.JournalPath(spec.Dir, name)
	manifest := checkpoint.Manifest{Campaign: name, SpecHash: hash, TotalJobs: len(jobs)}

	var journal *checkpoint.Journal
	cached := make(map[int]FleetOutcome)
	if _, statErr := os.Stat(path); statErr == nil {
		if !spec.Resume {
			return nil, fmt.Errorf("harness: checkpoint journal %s already exists; pass -resume to continue it or remove it to start over", path)
		}
		j, rep, err := checkpoint.Recover(path)
		if err != nil {
			return nil, err
		}
		if err := validateManifest(rep.Manifest, manifest, path); err != nil {
			j.Close()
			return nil, err
		}
		recs, err := rep.ByIndex()
		if err != nil {
			j.Close()
			return nil, err
		}
		// Decode up front: a record that passed its CRC but does not
		// decode is a codec mismatch and must fail the resume, not
		// silently re-run the job.
		for idx, rec := range recs {
			out, err := DecodeOutcome(rec.Body)
			if err != nil {
				j.Close()
				return nil, fmt.Errorf("harness: %s job %d (%s): %w", path, idx, rec.Label, err)
			}
			cached[idx] = out
		}
		journal = j
	} else {
		j, err := checkpoint.Create(path, manifest)
		if err != nil {
			return nil, err
		}
		journal = j
	}
	defer journal.Close()

	f := fleet.New(jobs, RunFleetJob, cfg).WithResume(
		func(i int, job fleet.Job) (FleetOutcome, bool) {
			out, ok := cached[i]
			if ok {
				checkpoint.NoteResumed()
			}
			return out, ok
		},
		func(i int, job fleet.Job, res fleet.Result[FleetOutcome]) error {
			raw, err := EncodeOutcome(res.Value)
			if err != nil {
				return err
			}
			return journal.Append(checkpoint.JobRecord{
				Index: i, Label: job.Label(), Attempts: res.Attempts, Body: raw,
			})
		})
	results := f.Run()
	if err := fleet.FirstError(results); err != nil {
		return nil, err
	}
	outs := make([]FleetOutcome, len(results))
	for i := range results {
		outs[i] = results[i].Value
	}
	return outs, nil
}

// CampaignKey identifies a single-campaign checkpoint: every input that
// determines the campaign's output. Two runs with equal keys produce
// byte-identical campaigns, which is what makes replaying a journaled
// outcome sound.
type CampaignKey struct {
	Target       string        `json:"target"`
	Strategy     fuzz.Strategy `json:"strategy"`
	Duration     time.Duration `json:"duration"`
	Seed         int64         `json:"seed"`
	ChaosProfile string        `json:"chaos_profile,omitempty"`
	ChaosSeed    int64         `json:"chaos_seed,omitempty"`
}

// RunZCoverResumable wraps RunZCoverWith in a single-job checkpoint
// journal under dir. A completed campaign already journaled for the same
// key is decoded and returned (resumed=true) without executing anything;
// a journal that exists but holds no completed outcome — the process
// died mid-campaign — re-runs the campaign from its seed and appends the
// outcome. An existing journal is refused unless resume is set.
func RunZCoverResumable(dir string, resume bool, key CampaignKey, tb *testbed.Testbed, opts Options) (*Campaign, bool, error) {
	hash, err := checkpoint.SpecHash(key)
	if err != nil {
		return nil, false, err
	}
	name := "zcover-" + key.Target
	path := checkpoint.JournalPath(dir, name)
	manifest := checkpoint.Manifest{Campaign: name, SpecHash: hash, TotalJobs: 1}
	var journal *checkpoint.Journal
	if _, statErr := os.Stat(path); statErr == nil {
		if !resume {
			return nil, false, fmt.Errorf("harness: checkpoint journal %s already exists; pass -resume to continue it or remove it to start over", path)
		}
		j, rep, err := checkpoint.Recover(path)
		if err != nil {
			return nil, false, err
		}
		if err := validateManifest(rep.Manifest, manifest, path); err != nil {
			j.Close()
			return nil, false, err
		}
		recs, err := rep.ByIndex()
		if err != nil {
			j.Close()
			return nil, false, err
		}
		if rec, ok := recs[0]; ok {
			j.Close()
			out, err := DecodeOutcome(rec.Body)
			if err != nil {
				return nil, false, fmt.Errorf("harness: %s: %w", path, err)
			}
			checkpoint.NoteResumed()
			return out.Campaign, true, nil
		}
		journal = j
	} else {
		j, err := checkpoint.Create(path, manifest)
		if err != nil {
			return nil, false, err
		}
		journal = j
	}
	defer journal.Close()

	c, err := RunZCoverWith(tb, key.Strategy, key.Duration, key.Seed, opts)
	if err != nil {
		return nil, false, err
	}
	raw, err := EncodeOutcome(FleetOutcome{Campaign: c})
	if err != nil {
		return nil, false, err
	}
	if err := journal.Append(checkpoint.JobRecord{Index: 0, Label: name, Attempts: 1, Body: raw}); err != nil {
		return nil, false, err
	}
	return c, false, nil
}

// validateManifest refuses journals written for a different campaign or
// job list, and journals that cover only a shard of one.
func validateManifest(got, want checkpoint.Manifest, path string) error {
	switch {
	case got.Campaign != want.Campaign:
		return fmt.Errorf("harness: %s was written for campaign %q, this run is %q", path, got.Campaign, want.Campaign)
	case got.SpecHash != want.SpecHash:
		return fmt.Errorf("harness: %s was written for a different job list (spec %s, this run %s) — seeds, budgets, or profiles changed", path, got.SpecHash, want.SpecHash)
	case got.TotalJobs != want.TotalJobs:
		return fmt.Errorf("harness: %s covers %d jobs, this run has %d", path, got.TotalJobs, want.TotalJobs)
	case got.ShardIndex != 1 || got.ShardCount != 1:
		return fmt.Errorf("harness: %s is shard %d/%d of a split campaign; only whole-campaign (1/1) journals resume", path, got.ShardIndex, got.ShardCount)
	}
	return nil
}
