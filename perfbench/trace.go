package main

import (
	"encoding/json"
	"io"
	"net/http"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of that boundary. Spans of one job share Trace (the
// job label); replay spans share the device name.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Trace  string `json:"trace"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	// StartNS and EndNS are offsets from the tracer's creation.
	StartNS int64 `json:"start_ns"`
	EndNS   int64 `json:"end_ns"`
	// SelfNS is the span minus the part of it its children cover, filled
	// in when the trace is written.
	SelfNS int64 `json:"self_ns"`
	// Ops counts the calls a batched replay span covers.
	Ops int64 `json:"ops,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pass nil and pay one branch per boundary.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// add records a completed span and returns its ID (0 on a nil tracer).
func (t *tracer) add(parent int, trace, layer, name string, start, end time.Time, ops int64) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Trace: trace, Layer: layer, Name: name,
		StartNS: start.Sub(t.t0).Nanoseconds(), EndNS: end.Sub(t.t0).Nanoseconds(), Ops: ops,
	})
	return id
}

// finish sets the end of a span recorded when it began.
func (t *tracer) finish(id int, end time.Time) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].EndNS = end.Sub(t.t0).Nanoseconds()
}

// setStart moves a span's start earlier, so a job span covers the
// testbed build the fleet performs before calling the runner.
func (t *tracer) setStart(id int, start time.Time) {
	if t == nil || id <= 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if ns := start.Sub(t.t0).Nanoseconds(); ns < t.spans[id-1].StartNS {
		t.spans[id-1].StartNS = ns
	}
}

// selfTimes fills in SelfNS for every span and returns the self time
// summed per layer.
func (t *tracer) selfTimes() map[string]float64 {
	children := make(map[int][]span)
	for _, s := range t.spans {
		if s.Parent > 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	perLayer := make(map[string]float64)
	for i := range t.spans {
		s := &t.spans[i]
		s.SelfNS = (s.EndNS - s.StartNS) - covered(s.StartNS, s.EndNS, children[s.ID])
		perLayer[s.Layer] += float64(s.SelfNS) / 1e9
	}
	return perLayer
}

// covered returns how much of [lo, hi) the union of the spans covers.
func covered(lo, hi int64, spans []span) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(spans))
	for _, s := range spans {
		a, b := max(s.StartNS, lo), min(s.EndNS, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.a > end {
			end = v.a
		}
		if v.b > end {
			total += v.b - end
			end = v.b
		}
	}
	return total
}

// traceFile is the document a traced run writes when it ends.
type traceFile struct {
	Host     hostStamp `json:"host"`
	Workload string    `json:"workload"`
	Seed     int64     `json:"seed"`
	// LayerSelfSec is span self time summed per layer.
	LayerSelfSec map[string]float64 `json:"layer_self_sec"`
	// InexactCounts names the counts that differed between traced runs
	// of the same seed; only the other counts may back a count claim.
	InexactCounts []string `json:"inexact_counts"`
	Spans         []span   `json:"spans"`
}

func (t *tracer) write(path string, doc traceFile) error {
	doc.LayerSelfSec = t.selfTimes()
	doc.Spans = t.spans
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(doc); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// requestLog collects coordinator round-trip latencies per endpoint.
type requestLog struct {
	mu  sync.Mutex
	lat map[string][]float64 // path -> milliseconds
}

func (l *requestLog) observe(path string, d time.Duration) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.lat == nil {
		l.lat = make(map[string][]float64)
	}
	l.lat[path] = append(l.lat[path], float64(d)/1e6)
}

func (l *requestLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, v := range l.lat {
		n += len(v)
	}
	return n
}

func (l *requestLog) quantile(path string, q float64) float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return quantile(l.lat[path], q)
}

// workerTransport is one coordinator worker's HTTP boundary. It times
// every request from send to reply-body close, optionally adds a fixed
// delay (the benchmark's self-test), and parents each request span under
// the job the worker last leased.
type workerTransport struct {
	base  http.RoundTripper
	delay time.Duration
	tr    *tracer
	log   *requestLog
	// parent returns the span a request to path nests under: the
	// worker's current job for heartbeats and results, the worker itself
	// for manifest and lease requests.
	parent func(path string) (id int, trace string)
}

func (w *workerTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	start := time.Now()
	if w.delay > 0 {
		time.Sleep(w.delay)
	}
	resp, err := w.base.RoundTrip(req)
	if err != nil {
		w.done(req.URL.Path, start)
		return resp, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func() { w.done(req.URL.Path, start) }}
	return resp, nil
}

func (w *workerTransport) done(path string, start time.Time) {
	end := time.Now()
	if w.log != nil {
		w.log.observe(path, end.Sub(start))
	}
	if w.tr != nil {
		parent, trace := w.parent(path)
		w.tr.add(parent, trace, "coord", path, start, end, 0)
	}
}

// timedBody reports when the caller has finished with a reply.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	b.once.Do(b.done)
	return err
}
