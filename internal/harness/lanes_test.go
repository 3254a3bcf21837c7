package harness

import (
	"bytes"
	"encoding/json"
	"io"
	"sync"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/telemetry"
	"zcover/internal/zcover/fuzz"
)

// processWideCounts are the counters that legitimately differ with the
// worker count: the AES key-context cache is shared by the whole process,
// so which campaign misses first depends on scheduling.
var processWideCounts = map[string]bool{
	"security_keyctx_hits_total": true,
	"security_keyctx_miss_total": true,
}

// laneJobs is Table V plus chaos and coverage-guided jobs, so every laned
// layer counts: radio, protocol, fuzz, chaos, device retransmission, S2
// and coverage.
func laneJobs(budget time.Duration) []fleet.Job {
	return append(table5Jobs(budget),
		fleet.Job{Device: "D1", Strategy: fuzz.StrategyFull, Seed: 41, Budget: budget, ChaosProfile: "burst", ChaosSeed: 1},
		fleet.Job{Device: "D3", Strategy: fuzz.StrategyFull, Seed: 43, Budget: budget, ChaosProfile: "lossy", ChaosSeed: 1},
		fleet.Job{Device: "D2", Strategy: fuzz.StrategyFull, Seed: 42, Budget: budget, FuzzMode: fleet.ModeCoverage},
	)
}

// telemetryDoc is the exported JSON document of the process registry.
type telemetryDoc struct {
	Counters   map[string]int64 `json:"counters"`
	Histograms map[string]struct {
		Counts []int64 `json:"counts"`
	} `json:"histograms"`
}

func readTelemetry(t *testing.T) telemetryDoc {
	t.Helper()
	var buf bytes.Buffer
	if err := telemetry.Default().WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc telemetryDoc
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// runLaneJobs runs laneJobs on the given worker count and returns the
// counter and histogram-bucket deltas it left on the process registry.
func runLaneJobs(t *testing.T, workers int, budget time.Duration) (map[string]int64, map[string][]int64) {
	t.Helper()
	before := readTelemetry(t)
	results := fleet.Run(laneJobs(budget), RunFleetJob, fleet.Config{Workers: workers})
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	after := readTelemetry(t)
	counts := map[string]int64{}
	for k, v := range after.Counters {
		if !processWideCounts[k] {
			counts[k] = v - before.Counters[k]
		}
	}
	buckets := map[string][]int64{}
	for k, h := range after.Histograms {
		d := make([]int64, len(h.Counts))
		for i, v := range h.Counts {
			if b := before.Histograms[k].Counts; i < len(b) {
				v -= b[i]
			}
			d[i] = v
		}
		buckets[k] = d
	}
	return counts, buckets
}

// TestTelemetryCountsExactAcrossWorkers: per-testbed lanes change where a
// count is written, never what it sums to. Two workers must leave exactly
// the counter deltas and histogram buckets one worker leaves.
func TestTelemetryCountsExactAcrossWorkers(t *testing.T) {
	c1, b1 := runLaneJobs(t, 1, fleetTestBudget)
	c2, b2 := runLaneJobs(t, 2, fleetTestBudget)
	for _, name := range []string{"radio_tx_frames_total", "protocol_frames_decoded_total",
		"fuzz_packets_total", "chaos_deliveries_total", "device_retransmissions_total",
		"security_s2_decrypt_total", "coverage_inputs_total"} {
		if c1[name] == 0 {
			t.Errorf("%s did not move; the job list no longer exercises its layer", name)
		}
	}
	for k, v := range c1 {
		if c2[k] != v {
			t.Errorf("counter %s: workers=1 %d, workers=2 %d", k, v, c2[k])
		}
	}
	for k, v := range b1 {
		for i := range v {
			if i >= len(b2[k]) || b2[k][i] != v[i] {
				t.Errorf("histogram %s buckets: workers=1 %v, workers=2 %v", k, v, b2[k])
				break
			}
		}
	}
}

// TestMetricsScrapeDuringFleetRun scrapes both exporters in a loop while
// a two-worker fleet writes its lanes; under -race it proves live scrapes
// are race-free, and every scrape must see the counters never go down.
func TestMetricsScrapeDuringFleetRun(t *testing.T) {
	done, started := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	var scrapes int
	var lastTx int64
	var bad []string
	wg.Add(1)
	go func() {
		defer wg.Done()
		tx := telemetry.Default().Counter("radio_tx_frames_total")
		for {
			if scrapes == 1 {
				close(started)
			}
			select {
			case <-done:
				return
			default:
			}
			if err := telemetry.Default().WritePrometheus(io.Discard); err != nil {
				bad = append(bad, err.Error())
			}
			if err := telemetry.Default().WriteJSON(io.Discard); err != nil {
				bad = append(bad, err.Error())
			}
			if n := tx.Load(); n < lastTx {
				bad = append(bad, "radio_tx_frames_total went down")
			} else {
				lastTx = n
			}
			scrapes++
		}
	}()
	<-started
	results := fleet.Run(laneJobs(fleetTestBudget), RunFleetJob, fleet.Config{Workers: 2})
	close(done)
	wg.Wait()
	if err := fleet.FirstError(results); err != nil {
		t.Fatal(err)
	}
	for _, msg := range bad {
		t.Error(msg)
	}
}
