package obs_test

import (
	"path/filepath"
	"strings"
	"testing"

	"zcover/internal/obs"
)

// report builds a 1-P host report shaped like the committed
// BENCH_scaling.json: flat capped points plus a slower uncapped one.
func report() *obs.ScalingReport {
	return &obs.ScalingReport{
		Host:     obs.HostInfo{GoVersion: "go1.24.0", Gomaxprocs: 1, NumCPU: 1},
		Campaign: "test sweep",
		Points: []obs.ScalingPoint{
			{Workers: 1, EffectiveWorkers: 1, WallSec: 10, SimSec: 4000},
			{Workers: 8, EffectiveWorkers: 1, WallSec: 10, SimSec: 3960},
			{Workers: 8, EffectiveWorkers: 8, Oversubscribed: true, WallSec: 10, SimSec: 3700,
				Phases: []obs.PhaseShare{{Phase: obs.PhaseFuzz, WallSec: 8, Share: 0.8}}},
		},
	}
}

func TestFinalizeDerivesEfficiency(t *testing.T) {
	r := report()
	r.Points[1].Phases = []obs.PhaseShare{{Phase: obs.PhaseFuzz, WallSec: 8, Share: 0.8}}
	r.Finalize()

	base := r.Points[0]
	if base.SimRate != 400 || base.Speedup != 1 || base.Efficiency != 1 {
		t.Errorf("baseline point: %+v", base)
	}
	capped := r.Points[1]
	// 8 workers on a 1-P host: ideal speedup is 1, so efficiency equals
	// raw speedup — host-portable normalization.
	if capped.IdealSpeedup != 1 {
		t.Errorf("IdealSpeedup = %v, want 1 (GOMAXPROCS=1)", capped.IdealSpeedup)
	}
	if capped.Efficiency < 0.98 || capped.Efficiency > 1 {
		t.Errorf("Efficiency = %v, want ~0.99", capped.Efficiency)
	}
}

func TestRankNamesHostParallelismAndOversubscription(t *testing.T) {
	r := report()
	r.Points[1].Phases = []obs.PhaseShare{{Phase: obs.PhaseFuzz, WallSec: 8, Share: 0.8}}
	r.Finalize()

	if len(r.Bottlenecks) < 2 {
		t.Fatalf("bottlenecks: %+v", r.Bottlenecks)
	}
	kinds := map[string]bool{}
	for i, b := range r.Bottlenecks {
		if b.Rank != i+1 {
			t.Errorf("rank %d at index %d", b.Rank, i)
		}
		kinds[b.Kind] = true
	}
	for _, want := range []string{"host-parallelism", "oversubscription", "phase"} {
		if !kinds[want] {
			t.Errorf("missing %q bottleneck: %+v", want, r.Bottlenecks)
		}
	}
	// The #1 entry must be a serializer, not phase attribution.
	if r.Bottlenecks[0].Kind == "phase" {
		t.Errorf("phase attribution ranked #1: %+v", r.Bottlenecks[0])
	}
	// Determinism: re-ranking the same data reproduces the order.
	order := func(r *obs.ScalingReport) string {
		var b strings.Builder
		for _, x := range r.Bottlenecks {
			b.WriteString(x.Kind + "/" + x.Detail + ";")
		}
		return b.String()
	}
	first := order(r)
	r.Finalize()
	if got := order(r); got != first {
		t.Errorf("ranking not deterministic:\n%s\n%s", first, got)
	}
}

func TestScalingReportFileRoundTrip(t *testing.T) {
	r := report()
	r.Finalize()
	path := filepath.Join(t.TempDir(), "scaling.json")
	if err := r.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	back, err := obs.LoadScalingReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Points) != len(r.Points) || len(back.Bottlenecks) != len(r.Bottlenecks) {
		t.Errorf("round trip lost data: %+v", back)
	}
	if back.Host.Gomaxprocs != 1 {
		t.Errorf("host stamp lost: %+v", back.Host)
	}
}

func TestCheckRegression(t *testing.T) {
	base := report()
	base.Finalize()

	fresh := report()
	fresh.Finalize()
	if err := obs.CheckRegression(base, fresh, 0.10); err != nil {
		t.Errorf("identical reports flagged: %v", err)
	}

	slow := report()
	slow.Points[1].SimSec = 3000 // 25% efficiency drop at workers=8
	slow.Finalize()
	if err := obs.CheckRegression(base, slow, 0.10); err == nil {
		t.Error("25% efficiency regression passed the 10% gate")
	}

	if err := obs.CheckRegression(&obs.ScalingReport{}, fresh, 0.10); err == nil {
		t.Error("empty baseline accepted")
	}
}

func TestScalingTableRenders(t *testing.T) {
	r := report()
	r.Finalize()
	out := r.Table()
	for _, want := range []string{"Fleet scaling", "Ranked serialization sources", "GOMAXPROCS 1", "(raw)"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

func TestHostStamp(t *testing.T) {
	h := obs.Host("abc1234")
	if h.GitSHA != "abc1234" || h.Gomaxprocs < 1 || h.NumCPU < 1 || h.GoVersion == "" {
		t.Errorf("host stamp: %+v", h)
	}
}

// TestRankNamesBusyInflation: on a 2-P host, two workers that need 1.78x
// the busy time one worker needs for the same jobs (the first 2-core
// sweep's figure) rank busy-time inflation, with the extra busy time as
// its share of worker time.
func TestRankNamesBusyInflation(t *testing.T) {
	r := &obs.ScalingReport{
		Host: obs.HostInfo{GoVersion: "go1.24.0", Gomaxprocs: 2, NumCPU: 2},
		Points: []obs.ScalingPoint{
			{Workers: 1, EffectiveWorkers: 1, WallSec: 10, SimSec: 4000, IdleSec: 0},
			{Workers: 2, EffectiveWorkers: 2, WallSec: 9, SimSec: 4000, IdleSec: 0.2},
		},
	}
	r.Finalize()
	var got *obs.Bottleneck
	for i := range r.Bottlenecks {
		if r.Bottlenecks[i].Kind == "busy-inflation" {
			got = &r.Bottlenecks[i]
		}
	}
	if got == nil {
		t.Fatalf("no busy-inflation bottleneck: %+v", r.Bottlenecks)
	}
	// busy: 10 s at workers=1, 2×9 − 0.2 = 17.8 s at workers=2.
	if want := (17.8 - 10) / 18; got.WallShare < want-1e-9 || got.WallShare > want+1e-9 {
		t.Errorf("WallShare = %v, want %v", got.WallShare, want)
	}
	if !strings.Contains(got.Evidence, "1.78x") || got.Rank != 1 {
		t.Errorf("busy-inflation entry: %+v", *got)
	}

	// The same jobs at the same busy time rank no inflation.
	r.Points[1].WallSec, r.Points[1].IdleSec = 5.1, 0.2
	r.Finalize()
	for _, b := range r.Bottlenecks {
		if b.Kind == "busy-inflation" {
			t.Errorf("flat busy time flagged: %+v", b)
		}
	}
}
