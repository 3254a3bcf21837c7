package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"path/filepath"
	"sort"
	"time"

	"zcover/internal/chaos"
	"zcover/internal/checkpoint"
	"zcover/internal/fleet"
	"zcover/internal/harness"
	"zcover/internal/protocol"
	"zcover/internal/radio"
	"zcover/internal/security"
	"zcover/internal/telemetry"
	"zcover/internal/testbed"
	"zcover/internal/vtime"
	"zcover/internal/zcover/dongle"
	"zcover/internal/zcover/mutate"
	"zcover/internal/zcover/scan"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// perLayer lists every per-layer metric the traced run reports, by
// module. A metric whose layer the workload does not exercise reads 0.
var perLayer = []metricDef{
	{"fleet.job_busy_s", "s"}, {"fleet.busy_us_per_exec", "us"}, {"fleet.idle_share", "ratio"},
	{"fleet.longest_job_s", "s"}, {"fleet.retries", "count"},
	{"testbed.builds", "count"}, {"testbed.build_s", "s"},
	{"harness.scan_s", "s"}, {"harness.discover_s", "s"}, {"harness.fuzz_s", "s"},
	{"harness.outcome_bytes", "B"}, {"harness.encode_us", "us"}, {"harness.decode_us", "us"},
	{"fuzz.execs", "count"}, {"fuzz.findings", "count"}, {"fuzz.dup_ratio", "ratio"},
	{"fuzz.execs_per_busy_s", "1/s"},
	{"mutate.next_ns", "ns"},
	{"protocol.decode_attempts", "count"}, {"protocol.decodes_per_tx", "ratio"},
	{"protocol.decode_waste_ratio", "ratio"}, {"protocol.decode_ns", "ns"}, {"protocol.encode_ns", "ns"},
	{"radio.tx", "count"}, {"radio.rx_per_tx", "ratio"}, {"radio.lost", "count"},
	{"radio.corrupted", "count"}, {"radio.transmit_ns", "ns"},
	{"chaos.deliveries", "count"}, {"chaos.faults", "count"}, {"chaos.intercept_ns", "ns"},
	{"device.retransmissions", "count"}, {"device.retx_per_exec", "ratio"},
	{"cycle.exchange_us", "us"}, {"cycle.other_us", "us"},
	{"controller.app_frames", "count"}, {"controller.dropped_busy", "count"},
	{"oracle.events", "count"}, {"oracle.events_per_exec", "ratio"},
	{"security.s2_ops", "count"}, {"security.s2_desyncs", "count"},
	{"security.keyctx_hit_ratio", "ratio"}, {"security.s2_roundtrip_ns", "ns"},
	{"vtime.schedule_ns", "ns"}, {"vtime.advance_ns", "ns"},
	{"coverage.inputs", "count"}, {"coverage.novel_ratio", "ratio"},
	{"corpus.admitted", "count"}, {"corpus.variants", "count"}, {"covfuzz.rounds", "count"},
	{"checkpoint.fsyncs", "count"}, {"checkpoint.bytes", "B"}, {"checkpoint.append_ms", "ms"},
	{"coord.requests", "count"}, {"coord.lease_ms_p50", "ms"}, {"coord.lease_ms_p99", "ms"},
	{"coord.result_ms_p50", "ms"}, {"coord.result_ms_p99", "ms"}, {"coord.heartbeat_ms_p50", "ms"},
	{"coord.retries", "count"}, {"coord.expired", "count"}, {"coord.duplicates", "count"},
	{"coord.rejected", "count"}, {"coord.overhead_share", "ratio"},
	{"runtime.allocs_per_exec", "count"}, {"runtime.alloc_bytes_per_exec", "B"},
	{"runtime.gc_cycles", "count"}, {"runtime.gc_cpu_share", "ratio"},
	{"runtime.mutex_wait_s", "s"}, {"runtime.sched_latency_p99_us", "us"},
	{"job_fail_ratio", "ratio"},
	{"counts.inexact", "count"},
	{"trace.makespan_s", "s"}, {"trace.overhead_ratio", "ratio"},
}

// counters snapshots every counter of the process-wide telemetry
// registry.
func counters() map[string]int64 {
	var buf bytes.Buffer
	if err := telemetry.Default().WriteJSON(&buf); err != nil {
		panic(err) // encoding a map of integers cannot fail
	}
	var doc struct {
		Counters map[string]int64 `json:"counters"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		panic(err)
	}
	return doc.Counters
}

// countDelta is after minus before, per counter.
func countDelta(before, after map[string]int64) map[string]int64 {
	d := make(map[string]int64, len(after))
	for k, v := range after {
		d[k] = v - before[k]
	}
	return d
}

// tracedIter is what the traced run keeps of one traced iteration.
type tracedIter struct {
	// layers are the iteration's per-layer metrics.
	layers map[string]float64
	// counts are the counts compared across iterations for exactness.
	counts map[string]int64
	// reqs are the coordinator request latencies (coord only).
	reqs *requestLog
}

// observe reduces a traced iteration, with the counter and runtime deltas
// taken around it, to what the traced run reports.
func observe(it iterResult, cnt map[string]int64, rt runtimeDelta) tracedIter {
	t := tracedIter{layers: iterLayers(it, cnt, rt), counts: exactCounts(it, cnt)}
	if it.coord != nil {
		t.reqs = it.coord.reqs
	}
	return t
}

// exactCounts is every count the traced run compares across runs of one
// seed: telemetry counter deltas, the controllers' Stats, and the
// coordinator request count.
func exactCounts(it iterResult, cnt map[string]int64) map[string]int64 {
	m := make(map[string]int64, len(cnt)+5)
	for k, v := range cnt {
		m["telemetry."+k] = v
	}
	m["controller.app_frames"] = int64(it.ctrl.AppFrames)
	m["controller.replies"] = int64(it.ctrl.Replies)
	m["controller.dropped_busy"] = int64(it.ctrl.DroppedBusy)
	m["controller.secure_frames"] = int64(it.ctrl.SecureFrames)
	if it.coord != nil {
		m["coord.requests"] = int64(it.coord.reqs.count())
	}
	return m
}

// inexactCounts names the counts that differ between any two traced
// iterations.
func inexactCounts(its []tracedIter) []string {
	var out []string
	first := its[0].counts
	seen := make(map[string]bool)
	for _, t := range its[1:] {
		for k, v := range t.counts {
			if first[k] != v && !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// ratio is a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// iterLayers computes the per-layer metrics one traced iteration gives.
func iterLayers(it iterResult, cnt map[string]int64, rt runtimeDelta) map[string]float64 {
	c := func(name string) float64 { return float64(cnt[name]) }
	m := make(map[string]float64)

	var execs, findings, dups float64
	for _, o := range it.outs {
		if r := o.Fuzz(); r != nil {
			execs += float64(r.PacketsSent)
			findings += float64(len(r.Findings))
			dups += float64(r.Duplicates)
		}
	}
	var busy, builds float64
	phase := make(map[string]float64)
	for _, tl := range it.timelines {
		snap := tl.Snapshot()
		for _, w := range snap.Workers {
			busy += w.BusySec
		}
		for p, s := range snap.PhaseWallSec {
			phase[p] += s
		}
		for _, iv := range snap.Intervals {
			if iv.Phase == "build" {
				builds++
			}
		}
	}
	var longest time.Duration
	for _, w := range it.walls {
		longest = max(longest, w)
	}
	m["fleet.job_busy_s"] = busy
	m["fleet.busy_us_per_exec"] = ratio(busy*1e6, execs)
	m["fleet.idle_share"] = 1 - ratio(busy, float64(it.lanes)*it.makespan.Seconds())
	m["fleet.longest_job_s"] = longest.Seconds()
	m["fleet.retries"] = float64(it.attempts - it.jobs)
	m["testbed.builds"] = builds
	m["testbed.build_s"] = phase["build"]
	m["harness.scan_s"] = phase["scan"]
	m["harness.discover_s"] = phase["discover"]
	m["harness.fuzz_s"] = phase["fuzz"]
	m["fuzz.execs"] = execs
	m["fuzz.findings"] = findings
	m["fuzz.dup_ratio"] = ratio(dups, findings+dups)
	m["fuzz.execs_per_busy_s"] = ratio(execs, busy)

	attempts := c("protocol_frames_decoded_total") + c("protocol_decode_fail_total")
	tx := c("radio_tx_frames_total")
	m["protocol.decode_attempts"] = attempts
	m["protocol.decodes_per_tx"] = ratio(attempts, tx)
	m["protocol.decode_waste_ratio"] = ratio(c("protocol_decode_fail_total"), attempts)
	m["radio.tx"] = tx
	m["radio.rx_per_tx"] = ratio(c("radio_rx_frames_total"), tx)
	m["radio.lost"] = c("radio_frames_lost_total")
	m["radio.corrupted"] = c("radio_frames_corrupted_total")
	m["chaos.deliveries"] = c("chaos_deliveries_total")
	m["chaos.faults"] = c("chaos_dropped_total") + c("chaos_corrupted_total") + c("chaos_delayed_total") +
		c("chaos_duplicated_total") + c("chaos_partitioned_total")
	m["device.retransmissions"] = c("device_retransmissions_total")
	m["device.retx_per_exec"] = ratio(c("device_retransmissions_total"), execs)
	m["controller.app_frames"] = float64(it.ctrl.AppFrames)
	m["controller.dropped_busy"] = float64(it.ctrl.DroppedBusy)
	m["oracle.events"] = c("oracle_events_total")
	m["oracle.events_per_exec"] = ratio(c("oracle_events_total"), execs)
	m["security.s2_ops"] = c("security_s2_encrypt_total") + c("security_s2_decrypt_total")
	m["security.s2_desyncs"] = c("security_s2_desync_total")
	m["security.keyctx_hit_ratio"] = ratio(c("security_keyctx_hits_total"),
		c("security_keyctx_hits_total")+c("security_keyctx_miss_total"))
	m["coverage.inputs"] = c("coverage_inputs_total")
	m["coverage.novel_ratio"] = ratio(c("coverage_novel_inputs_total"), c("coverage_inputs_total"))
	m["corpus.admitted"] = c("corpus_seeds_admitted_total")
	m["corpus.variants"] = c("corpus_variants_total")
	m["covfuzz.rounds"] = c("covfuzz_rounds_total")
	m["checkpoint.fsyncs"] = c("checkpoint_fsyncs_total")
	m["checkpoint.bytes"] = c("checkpoint_bytes_total")
	if ci := it.coord; ci != nil {
		m["coord.requests"] = float64(ci.reqs.count())
		m["coord.retries"] = float64(ci.retries)
		m["coord.expired"] = float64(ci.status.Expired)
		m["coord.duplicates"] = float64(ci.status.Duplicates)
		m["coord.rejected"] = float64(ci.status.Rejected)
		m["coord.overhead_share"] = 1 - ratio(ci.runnerWall.Seconds(), ci.workerWall.Seconds())
	}
	m["runtime.allocs_per_exec"] = ratio(rt.allocObjects, execs)
	m["runtime.alloc_bytes_per_exec"] = ratio(rt.allocBytes, execs)
	m["runtime.gc_cycles"] = rt.gcCycles
	m["runtime.gc_cpu_share"] = rt.gcCPUShare
	m["runtime.mutex_wait_s"] = rt.mutexWaitS
	m["runtime.sched_latency_p99_us"] = rt.schedP99US
	m["job_fail_ratio"] = ratio(float64(it.failed), float64(it.attempts))
	return m
}

// coordLatencies pools every traced iteration's request latencies, so
// the p99s rest on the run's whole sample.
func coordLatencies(its []tracedIter, m map[string]float64) {
	pool := &requestLog{}
	for _, t := range its {
		if t.reqs == nil {
			return
		}
		for path, lat := range t.reqs.lat {
			for _, ms := range lat {
				pool.observe(path, time.Duration(ms*1e6))
			}
		}
	}
	m["coord.lease_ms_p50"] = pool.quantile("/lease", 0.5)
	m["coord.lease_ms_p99"] = pool.quantile("/lease", 0.99)
	m["coord.result_ms_p50"] = pool.quantile("/result", 0.5)
	m["coord.result_ms_p99"] = pool.quantile("/result", 0.99)
	m["coord.heartbeat_ms_p50"] = pool.quantile("/heartbeat", 0.5)
}

// replayer times the layers' exported functions on the workload's own
// frames and outcomes, one span per batch of calls.
type replayer struct {
	tr  *tracer
	tmp string
	// ns and ops accumulate time and calls per replayed operation.
	ns, ops map[string]float64
	cycles  []cycleSample
}

// timeOp runs fn (which performs ops calls) under a span and adds it to
// the operation's totals.
func (r *replayer) timeOp(parent int, trace, layer, op string, ops int, fn func()) {
	start := time.Now()
	fn()
	end := time.Now()
	r.tr.add(parent, trace, layer, op, start, end, int64(ops))
	r.ns[op] += float64(end.Sub(start).Nanoseconds())
	r.ops[op] += float64(ops)
}

func (r *replayer) perOp(op string) float64 { return ratio(r.ns[op], r.ops[op]) }

// captureLimit bounds the frames retained per captured job.
const captureLimit = 4096

// captured is one job's run with a sniffer on its medium.
type captured struct {
	out harness.FleetOutcome
	// caps are the last captureLimit frames on the air.
	caps   []radio.Capture
	region radio.Region
	// depth is the deepest simulated-clock event queue seen at any
	// frame reception.
	depth int
}

// capture runs one job with a sniffer and a queue-depth probe attached.
func capture(job fleet.Job) (captured, error) {
	var c captured
	runner := func(tb *testbed.Testbed, job fleet.Job, ob *fleet.Observer) (harness.FleetOutcome, error) {
		sn := radio.NewSniffer(tb.Medium, tb.Region, captureLimit)
		defer sn.Close()
		probe := tb.Medium.Attach("depth-probe", tb.Region)
		defer probe.Detach()
		probe.SetReceiver(func(radio.Capture) { c.depth = max(c.depth, tb.Clock.PendingEvents()) })
		out, err := harness.RunFleetJob(tb, job, ob)
		c.caps, c.region = sn.Captures(), tb.Region
		return out, err
	}
	res := fleet.Run([]fleet.Job{job}, runner, fleet.Config{Workers: 1})[0]
	c.out = res.Value
	return c, res.Err
}

// captureJobs picks one ZCover job per device, first in job order.
func captureJobs(jobs []fleet.Job) []fleet.Job {
	seen := make(map[string]bool)
	var out []fleet.Job
	for _, j := range jobs {
		if j.Baseline || j.FuzzMode != "" || seen[j.Device] {
			continue
		}
		seen[j.Device] = true
		out = append(out, j)
	}
	return out
}

// replayDevice captures one job's frames and replays them through the
// frame-cycle layers under a per-device span.
func (r *replayer) replayDevice(parent int, job fleet.Job) error {
	dev := job.Device
	start := time.Now()
	c, err := capture(job)
	if err != nil {
		return err
	}
	r.tr.add(parent, dev, "capture", "capture/"+dev, start, time.Now(), int64(len(c.caps)))
	start = time.Now()
	root := r.tr.add(parent, dev, "replay", "replay/"+dev, start, start, 0)
	defer func() { r.tr.finish(root, time.Now()) }()

	raws := make([][]byte, len(c.caps))
	var frames []*protocol.Frame
	var tests []*protocol.Frame
	for i, cp := range c.caps {
		raws[i] = cp.Raw
		if f, err := protocol.Decode(cp.Raw, protocol.ChecksumCS8); err == nil {
			frames = append(frames, f)
			if f.Src == scan.AttackerNodeID && !f.IsAck() && len(f.Payload) > 0 {
				tests = append(tests, f)
			}
		}
	}
	if len(raws) == 0 || len(tests) == 0 {
		return fmt.Errorf("replay %s: captured %d frames, %d test frames", dev, len(raws), len(tests))
	}
	const target = 20000 // calls per replayed operation and device
	rounds := max(1, target/len(raws))

	if camp := c.out.Campaign; camp != nil {
		m := mutate.New(mutate.Semantics{Controller: camp.Fingerprint.Controller, KnownNodes: camp.Fingerprint.Nodes}, job.Seed)
		var streams []*mutate.Stream
		var calls []int
		total := 0
		for _, cls := range camp.Discovery.Prioritized {
			s := m.Stream(cls)
			n := min(s.SurfaceSize()+64, 1024)
			streams, calls, total = append(streams, s), append(calls, n), total+n
		}
		r.timeOp(root, dev, "mutate", "mutate.next", total, func() {
			for i, s := range streams {
				for k := 0; k < calls[i]; k++ {
					s.Next()
				}
			}
		})
	}

	f := protocol.GetFrame()
	defer protocol.PutFrame(f)
	r.timeOp(root, dev, "protocol", "protocol.decode", rounds*len(raws), func() {
		for k := 0; k < rounds; k++ {
			for _, raw := range raws {
				_ = protocol.DecodeInto(f, raw, protocol.ChecksumCS8) // failures are part of the work
			}
		}
	})
	buf := make([]byte, 0, protocol.MaxFrameSize)
	encRounds := max(1, target/len(frames))
	r.timeOp(root, dev, "protocol", "protocol.encode", encRounds*len(frames), func() {
		for k := 0; k < encRounds; k++ {
			for _, fr := range frames {
				buf, _ = fr.AppendEncode(buf[:0])
			}
		}
	})

	r.replayTransmit(root, dev, c.region, raws, rounds)
	if job.ChaosProfile != "" {
		if err := r.replayIntercept(root, dev, job, raws, rounds); err != nil {
			return err
		}
	}
	if err := r.replayS2(root, dev, tests); err != nil {
		return err
	}
	if err := r.replayCycle(root, dev, job, tests); err != nil {
		return err
	}
	r.replayClock(root, dev, c.depth)
	return nil
}

// replayTransmit fans captured frames out to three inert receivers — the
// testbed's fan-out — in batches, draining the medium's clock between
// batches outside the timed part.
func (r *replayer) replayTransmit(root int, dev string, region radio.Region, raws [][]byte, rounds int) {
	clock := vtime.NewSimClock()
	m := radio.NewMedium(clock)
	src := m.Attach("replay-src", region)
	for i := 0; i < 3; i++ {
		m.Attach(fmt.Sprintf("replay-rx%d", i), region)
	}
	const batch = 256
	for k := 0; k < rounds; k++ {
		for lo := 0; lo < len(raws); lo += batch {
			part := raws[lo:min(lo+batch, len(raws))]
			r.timeOp(root, dev, "radio", "radio.transmit", len(part), func() {
				for _, raw := range part {
					_ = src.Transmit(raw) // over-long frames are refused, as on the air
				}
			})
			clock.Advance(time.Second)
		}
	}
}

// replayIntercept runs the job's chaos injector over captured frames.
func (r *replayer) replayIntercept(root int, dev string, job fleet.Job, raws [][]byte, rounds int) error {
	p, err := chaos.ParseProfile(job.ChaosProfile)
	if err != nil {
		return err
	}
	inj := chaos.New(p, job.ChaosSeed)
	inj.Attach(radio.NewMedium(vtime.NewSimClock()))
	copies := make([][]byte, len(raws))
	for k := 0; k < rounds; k++ {
		for i, raw := range raws {
			copies[i] = append(copies[i][:0], raw...)
		}
		r.timeOp(root, dev, "chaos", "chaos.intercept", len(copies), func() {
			for _, c := range copies {
				inj.Intercept("dongle", "controller", c)
			}
		})
	}
	return nil
}

// replayS2 round-trips the captured test payloads through a paired S2
// session.
func (r *replayer) replayS2(root int, dev string, tests []*protocol.Frame) error {
	key := bytes.Repeat([]byte{0x22}, security.KeySize)
	ea := bytes.Repeat([]byte{0x33}, security.KeySize)
	eb := bytes.Repeat([]byte{0x44}, security.KeySize)
	tx, err := security.NewSession(key, ea, eb)
	if err != nil {
		return err
	}
	rx, err := security.NewSession(key, ea, eb)
	if err != nil {
		return err
	}
	aad := []byte{0xC0, 0xDE, 0xCA, 0xFE, 0x01, 0x02}
	rounds := max(1, 5000/len(tests))
	var failed error
	r.timeOp(root, dev, "security", "security.s2_roundtrip", rounds*len(tests), func() {
		for k := 0; k < rounds; k++ {
			for _, t := range tests {
				ct, err := tx.Encapsulate(security.FlowAtoB, aad, t.Payload)
				if err == nil {
					_, err = rx.Decapsulate(security.FlowAtoB, aad, ct)
				}
				if err != nil && failed == nil {
					failed = err
				}
			}
		}
	})
	return failed
}

// cycleSample is what the frame-cycle replay measured, kept so the
// other_us estimate can subtract the replayed children.
type cycleSample struct {
	exchanges float64
	ns        float64
	delta     map[string]int64
}

// maxExchanges bounds the replayed test frames per device.
const maxExchanges = 512

// replayCycle sends the captured test payloads through SendAndObserve on
// a fresh testbed of the job's device.
func (r *replayer) replayCycle(root int, dev string, job fleet.Job, tests []*protocol.Frame) error {
	tb, err := testbed.New(job.Device, job.Seed)
	if err != nil {
		return err
	}
	if job.ChaosProfile != "" {
		p, err := chaos.ParseProfile(job.ChaosProfile)
		if err != nil {
			return err
		}
		tb.ApplyChaos(p, job.ChaosSeed)
	}
	d := dongle.New(tb.Medium, tb.Region)
	n := min(len(tests), maxExchanges)
	before, ns := counters(), r.ns["cycle.exchange"]
	var failed error
	r.timeOp(root, dev, "cycle", "cycle.exchange", n, func() {
		for _, t := range tests[:n] {
			if _, err := d.SendAndObserve(t.Home, t.Src, t.Dst, t.Payload, dongle.DefaultResponseWindow); err != nil && failed == nil {
				failed = err
			}
		}
	})
	r.cycles = append(r.cycles, cycleSample{
		exchanges: float64(n), ns: r.ns["cycle.exchange"] - ns,
		delta: countDelta(before, counters()),
	})
	return failed
}

// replayClock times Schedule and Advance on a simulated clock holding
// depth pending events, the deepest queue the captured job reached. Small
// batches keep the queue near that depth.
func (r *replayer) replayClock(root int, dev string, depth int) {
	c := vtime.NewSimClock()
	noop := func() {}
	for i := 0; i < depth; i++ {
		c.Schedule(1000*time.Hour, noop)
	}
	const batch = 16
	for k := 0; k < 640; k++ {
		r.timeOp(root, dev, "vtime", "vtime.schedule", batch, func() {
			for i := 1; i <= batch; i++ {
				c.Schedule(time.Duration(i)*time.Millisecond, noop)
			}
		})
		r.timeOp(root, dev, "vtime", "vtime.advance", batch, func() {
			c.Advance(batch * time.Millisecond)
		})
	}
}

// otherUS estimates the frame cycle's remaining time per exchange: the
// exchange minus the replayed radio, protocol, chaos, security and vtime
// work its counts imply — node receive, controller dispatch and oracle.
func (r *replayer) otherUS() float64 {
	var total, n float64
	for _, s := range r.cycles {
		d := func(k string) float64 { return float64(s.delta[k]) }
		tx := d("radio_tx_frames_total")
		children := tx*(r.perOp("radio.transmit")+r.perOp("vtime.schedule")) +
			(d("protocol_frames_decoded_total")+d("protocol_decode_fail_total"))*r.perOp("protocol.decode") +
			d("chaos_deliveries_total")*r.perOp("chaos.intercept") +
			(d("security_s2_encrypt_total")+d("security_s2_decrypt_total"))*r.perOp("security.s2_roundtrip")/2 +
			s.exchanges*r.perOp("vtime.advance")
		total += s.ns - children
		n += s.exchanges
	}
	return ratio(total, n) / 1e3
}

// replayOutcomes times the outcome codec and the checkpoint journal on
// the iteration's own outcomes.
func (r *replayer) replayOutcomes(parent int, name string, it iterResult) (bytesPerRun float64, err error) {
	start := time.Now()
	root := r.tr.add(parent, name, "replay", "replay/outcomes", start, start, 0)
	defer func() { r.tr.finish(root, time.Now()) }()

	raws := make([]json.RawMessage, len(it.outs))
	r.timeOp(root, name, "harness", "harness.encode", len(it.outs), func() {
		for i, o := range it.outs {
			if raws[i], err = harness.EncodeOutcome(o); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	for _, raw := range raws {
		bytesPerRun += float64(len(raw))
	}
	r.timeOp(root, name, "harness", "harness.decode", len(raws), func() {
		for _, raw := range raws {
			if _, err = harness.DecodeOutcome(raw); err != nil {
				return
			}
		}
	})
	if err != nil {
		return 0, err
	}
	j, err := checkpoint.Create(filepath.Join(r.tmp, "replay-"+name+".jsonl"), checkpoint.Manifest{
		Campaign: "replay-" + name, SpecHash: "replay", TotalJobs: len(raws), ShardIndex: 1, ShardCount: 1,
	})
	if err != nil {
		return 0, err
	}
	defer j.Close()
	for i, raw := range raws {
		rec := checkpoint.JobRecord{Index: i, Label: it.labels[i], Attempts: 1, Body: raw}
		r.timeOp(root, name, "checkpoint", "checkpoint.append", 1, func() { err = j.Append(rec) })
		if err != nil {
			return 0, err
		}
	}
	return bytesPerRun, nil
}
