package main

import (
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// selftestDelay is the delay the self-test adds to every coordinator
// request.
const selftestDelay = 2 * time.Millisecond

// selftest checks that the benchmark bites. It adds a fixed delay to
// every coordinator request — a boundary the benchmark owns — and
// requires that
//   - coord makespan_s moves past its bound,
//   - table5 makespan_s, which sends no coordinator requests, stays
//     within it, and
//   - the traced run attributes the added time to the coord layer: the
//     lease latency p50 and the coord spans' self time grow by the delay.
func selftest(o options, tmp string) int {
	bound, err := makespanBound("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, "zbench: selftest:", err)
		return 1
	}
	delay := selftestDelay
	budget := secondsDur(o.seconds)
	if err := warmUp(); err != nil {
		fmt.Fprintln(os.Stderr, "zbench: selftest:", err)
		return 1
	}
	type probe struct {
		workload string
		delay    time.Duration
		traced   bool
	}
	measure := func(p probe) (makespan, leaseP50, coordSelf float64, err error) {
		w := workloads[p.workload]
		e := &env{seed: o.seed, tmp: tmp, delay: p.delay}
		if p.traced {
			e.tr = newTracer()
		}
		jobs := w.jobs(o.seed)
		its, err := iterate(budget, 3, func() (iterResult, error) { return w.run(e, jobs) })
		if err != nil {
			return 0, 0, 0, err
		}
		if err := checkOutputs(w.name, o.seed, its); err != nil {
			return 0, 0, 0, err
		}
		var ms, lease []float64
		for _, it := range its {
			ms = append(ms, it.makespan.Seconds())
			if it.coord != nil {
				lease = append(lease, it.coord.reqs.quantile("/lease", 0.5))
			}
		}
		if e.tr != nil {
			coordSelf = e.tr.selfTimes()["coord"] / float64(len(its))
		}
		return median(ms), median(lease), coordSelf, nil
	}

	fail := false
	check := func(ok bool, format string, args ...any) {
		verdict := "ok  "
		if !ok {
			verdict, fail = "FAIL", true
		}
		fmt.Printf("%s "+format+"\n", append([]any{verdict}, args...)...)
	}
	results := map[probe][3]float64{}
	for _, p := range []probe{
		{"coord", 0, false}, {"coord", delay, false},
		{"table5", 0, false}, {"table5", delay, false},
		{"coord", 0, true}, {"coord", delay, true},
	} {
		ms, lease, self, err := measure(p)
		if err != nil {
			fmt.Fprintf(os.Stderr, "zbench: selftest %s delay %v: %v\n", p.workload, p.delay, err)
			return 1
		}
		results[p] = [3]float64{ms, lease, self}
		fmt.Printf("     %-6s delay=%-5v traced=%-5v makespan_s=%.4f lease_ms_p50=%.3f coord_self_s=%.4f\n",
			p.workload, p.delay, p.traced, ms, lease, self)
	}
	cBase, cSlow := results[probe{"coord", 0, false}][0], results[probe{"coord", delay, false}][0]
	tBase, tSlow := results[probe{"table5", 0, false}][0], results[probe{"table5", delay, false}][0]
	check(cSlow > cBase*(1+bound), "coord makespan_s %.4f -> %.4f moves past its bound %.2f", cBase, cSlow, bound)
	check(tSlow <= tBase*(1+bound) && tSlow >= tBase*(1-bound),
		"table5 makespan_s %.4f -> %.4f stays within its bound %.2f", tBase, tSlow, bound)
	lBase, lSlow := results[probe{"coord", 0, true}][1], results[probe{"coord", delay, true}][1]
	check(lSlow-lBase >= 0.8*float64(delay)/1e6,
		"traced coord.lease_ms_p50 %.3f -> %.3f grows by the %v delay", lBase, lSlow, delay)
	sBase, sSlow := results[probe{"coord", 0, true}][2], results[probe{"coord", delay, true}][2]
	wantSelf := 0.8 * (cSlow - cBase)
	check(sSlow-sBase >= wantSelf,
		"traced coord-layer self time per run %.4f -> %.4f s grows by at least 0.8 x the makespan change (%.4f s)",
		sBase, sSlow, wantSelf)
	if fail {
		return 1
	}
	return 0
}

// makespanBound reads makespan_s's bound from BENCHMARK.json.
func makespanBound(path string) (float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return 0, err
	}
	var doc struct {
		EndToEnd []struct {
			Name  string  `json:"name"`
			Bound float64 `json:"bound"`
		} `json:"end_to_end"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		return 0, fmt.Errorf("%s: %w", path, err)
	}
	for _, m := range doc.EndToEnd {
		if m.Name == "makespan_s" {
			return m.Bound, nil
		}
	}
	return 0, fmt.Errorf("%s names no makespan_s bound", path)
}
