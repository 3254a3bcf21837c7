package harness

import (
	"fmt"
	"testing"
	"time"

	"zcover/internal/fleet"
	"zcover/internal/zcover/fuzz"
)

// BenchmarkFleetParallelism measures a 7-device Table V-style sweep
// (VFuzz + ZCover campaign per controller, 14 jobs) at increasing worker
// counts. Campaigns are CPU-bound simulations sharing nothing, so on an
// idle multi-core host the 8-worker variant should approach the core
// count in speedup over the sequential workers=1 path (≥3× on 8 cores is
// the acceptance bar; a single-core host shows ~1×).
func BenchmarkFleetParallelism(b *testing.B) {
	const budget = time.Hour
	devices := []string{"D1", "D2", "D3", "D4", "D5", "D6", "D7"}
	var jobs []fleet.Job
	for _, idx := range devices {
		seed := deviceSeed(idx)
		jobs = append(jobs,
			fleet.Job{Name: "bench/" + idx + "/vfuzz", Device: idx,
				Baseline: true, Seed: seed, Budget: budget},
			fleet.Job{Name: "bench/" + idx + "/zcover", Device: idx,
				Strategy: fuzz.StrategyFull, Seed: seed, Budget: budget})
	}
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			var simSeconds float64
			for i := 0; i < b.N; i++ {
				results := fleet.Run(jobs, RunFleetJob, fleet.Config{Workers: workers})
				if err := fleet.FirstError(results); err != nil {
					b.Fatal(err)
				}
				simSeconds = 0
				for _, r := range results {
					if f := r.Value.Fuzz(); f != nil {
						simSeconds += f.Elapsed.Seconds()
					}
				}
			}
			// Simulated seconds fuzzed per wall second — the fleet's
			// throughput figure.
			b.ReportMetric(simSeconds*float64(b.N)/b.Elapsed().Seconds(), "simsec/s")
		})
	}
}
