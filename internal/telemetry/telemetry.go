// Package telemetry is the process-wide observability layer of the ZCover
// reproduction: a metrics registry (named atomic counters, gauges, and
// fixed-bucket histograms), a bounded packet flight recorder, and a
// span-style tracer.
//
// The paper's evaluation is made of derived metrics — packets per campaign,
// detection latencies, outage durations, coverage counts (Tables V/VI,
// Figs. 8–12) — and Algorithm 1 explicitly logs findings "to file for
// future analysis". This package gives every layer of the pipeline a single
// place to emit those signals in machine-readable form: Prometheus text
// exposition for scrapers, a single JSON document for the bench trajectory,
// JSONL traces for post-mortem replay.
//
// Design constraints, in order:
//
//   - Determinism. Telemetry must never feed back into simulation results:
//     nothing here is consulted by the pipeline, and with telemetry enabled
//     the experiment tables stay byte-identical across worker counts.
//   - Hot-path cost. Counter/gauge/histogram updates are single atomic
//     operations with no locks and no allocation; instrument handles are
//     resolved once (package init or construction time), never per event.
//     Counters and histograms keep one cell per Lane, lanes on separate
//     cache lines, and per-frame code writes through its testbed's lane,
//     so the fleet's concurrent campaigns never write the same cache line;
//     readers sum the lanes.
//   - Sim-time awareness. Registries can be pointed at a vtime.SimClock's
//     Now so exported timestamps live on the simulated timeline.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Lanes is the number of cells every counter and histogram spreads its
// writes over. Goroutines adding through different lanes never write the
// same cache line; readers sum the lanes. The count is fixed: a testbed's
// lane is an index, not a per-P or per-goroutine slot, and two testbeds
// that happen to share a lane cost only speed, never counts.
const Lanes = 16

// Lane selects one cell of every laned instrument. Code that drives a
// testbed writes through the lane its radio.Medium took at construction
// (NextLane); code with no testbed in reach uses SharedLane through the
// plain Inc/Add/Observe methods.
type Lane uint8

// SharedLane is the lane of every write that does not name one: cold call
// sites, and hot code running outside a testbed. NextLane never hands it
// out, so testbeds do not share lines with that traffic.
const SharedLane Lane = 0

var laneSeq atomic.Uint32

// NextLane hands out the lanes 1..Lanes-1 round-robin. Each testbed takes
// one when its medium is built; testbeds built back to back get different
// lanes, so the fleet's concurrently running campaigns write disjoint
// cache lines.
func NextLane() Lane { return Lane(1 + (laneSeq.Add(1)-1)%(Lanes-1)) }

// Cells live in lane-major blocks: lane l of a block owns a contiguous run
// of words, so one lane's cells of every instrument share a few cache
// lines, and each run is followed by padCells words of padding, so no two
// lanes are within two 64-byte lines of each other whatever the
// allocation's alignment.
const (
	blockCells = 64 // cells per lane in a block shared by small instruments
	padCells   = 16 // 128 bytes: a line pair, for the adjacent-line prefetcher
)

// block is one allocation of lane-major cells (see blockCells).
type block struct {
	words  []atomic.Uint64
	stride int // words per lane: capacity plus padding
	used   int // words of each lane handed out
}

// take hands out n consecutive cells of every lane, returning each lane's
// run.
func (b *block) take(n int) (lanes [Lanes][]atomic.Uint64) {
	for l := range lanes {
		lanes[l] = b.words[l*b.stride+b.used:][:n:n]
	}
	b.used += n
	return lanes
}

// cells hands out n cells per lane from the registry's current block,
// starting a new block when it is full. Callers hold r.mu.
func (r *Registry) cells(n int) [Lanes][]atomic.Uint64 {
	if b := r.block; b == nil || b.used+n > b.stride-padCells {
		size := max(n, blockCells)
		r.block = &block{words: make([]atomic.Uint64, Lanes*(size+padCells)), stride: size + padCells}
	}
	return r.block.take(n)
}

// Counter is a monotonically increasing metric, kept as one cell per lane.
// All methods are lock-free and safe for concurrent use. Construct through
// a Registry.
type Counter struct {
	lanes [Lanes]*atomic.Uint64
}

// Inc adds one through the shared lane.
func (c *Counter) Inc() { c.lanes[SharedLane].Add(1) }

// Add adds n through the shared lane (n must be non-negative; counters
// are monotonic).
func (c *Counter) Add(n int64) { c.lanes[SharedLane].Add(uint64(n)) }

// IncLane adds one through lane l.
func (c *Counter) IncLane(l Lane) { c.lanes[l%Lanes].Add(1) }

// AddLane adds n through lane l (n must be non-negative).
func (c *Counter) AddLane(l Lane, n int64) { c.lanes[l%Lanes].Add(uint64(n)) }

// Load returns the current value: the sum of every lane.
func (c *Counter) Load() int64 {
	var n uint64
	for _, v := range c.lanes {
		n += v.Load()
	}
	return int64(n)
}

// Gauge is a metric that can move in both directions (queue depths, live
// totals with rollback). All methods are lock-free. Gauges are written
// per job, not per frame, so they keep a single cell.
type Gauge struct {
	v atomic.Int64
}

// Set stores n.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adds n, which may be negative.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Histogram is a fixed-bucket cumulative histogram, kept as one run of
// cells per lane. Bucket bounds are immutable after construction; Observe
// is a binary search over a handful of bounds plus an atomic add and a CAS
// on the lane's own cells — no locks, no allocation. Construct through a
// Registry.
type Histogram struct {
	bounds []float64 // sorted upper bounds; implicit +Inf bucket follows
	// lanes[l][0] is lane l's sum (float64 bits, CAS-accumulated);
	// lanes[l][1:] are its bucket counts. The count is the buckets' sum.
	lanes [Lanes][]atomic.Uint64
}

// Observe records one value through the shared lane. Values land in the
// first bucket whose upper bound is >= v (Prometheus "le" semantics);
// values above every bound land in the implicit +Inf bucket.
func (h *Histogram) Observe(v float64) { h.ObserveLane(SharedLane, v) }

// ObserveLane records one value through lane l.
func (h *Histogram) ObserveLane(l Lane, v float64) {
	cell := h.lanes[l%Lanes]
	cell[1+sort.SearchFloat64s(h.bounds, v)].Add(1)
	for {
		old := cell[0].Load()
		if cell[0].CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 {
	var n int64
	for _, c := range h.BucketCounts() {
		n += c
	}
	return n
}

// Sum returns the sum of observations, added up lane by lane.
func (h *Histogram) Sum() float64 {
	var s float64
	for _, cell := range h.lanes {
		s += math.Float64frombits(cell[0].Load())
	}
	return s
}

// Bounds returns a copy of the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return append([]float64(nil), h.bounds...) }

// BucketCounts returns the per-bucket (non-cumulative) counts summed over
// the lanes; the last entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []int64 {
	out := make([]int64, len(h.bounds)+1)
	for _, cell := range h.lanes {
		for i := range out {
			out[i] += int64(cell[1+i].Load())
		}
	}
	return out
}

// Registry is a named collection of instruments. Get-or-create lookups
// take a lock; the returned handles are lock-free, so callers resolve a
// handle once and hold it. The zero value is not usable; construct with
// NewRegistry or use the process-wide Default.
type Registry struct {
	mu    sync.Mutex
	now   func() time.Time
	ctrs  map[string]*Counter
	ggs   map[string]*Gauge
	hists map[string]*Histogram
	block *block // where the next instrument's cells come from
}

// NewRegistry returns an empty registry stamped with wall-clock time.
func NewRegistry() *Registry {
	return &Registry{
		now:   time.Now,
		ctrs:  map[string]*Counter{},
		ggs:   map[string]*Gauge{},
		hists: map[string]*Histogram{},
	}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry. Package-level instrumentation
// (radio frames, crypto operations, decode failures) registers here.
func Default() *Registry { return defaultRegistry }

// SetNow points exported timestamps at the given clock — typically a
// vtime.SimClock's Now, so snapshots carry simulated time. Nil restores
// wall clock.
func (r *Registry) SetNow(now func() time.Time) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if now == nil {
		now = time.Now
	}
	r.now = now
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.ctrs[name]
	if !ok {
		c = &Counter{}
		for l, cell := range r.cells(1) {
			c.lanes[l] = &cell[0]
		}
		r.ctrs[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.ggs[name]
	if !ok {
		g = &Gauge{}
		r.ggs[name] = g
	}
	return g
}

// Histogram returns the named histogram, creating it with the given bucket
// upper bounds on first use. Later calls return the existing histogram and
// ignore the bounds, so every registration site should agree on them.
func (r *Registry) Histogram(name string, bounds ...float64) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		bs := append([]float64(nil), bounds...)
		sort.Float64s(bs)
		h = &Histogram{bounds: bs, lanes: r.cells(len(bs) + 2)}
		r.hists[name] = h
	}
	return h
}

// Reset zeroes every registered instrument (handles stay valid). Intended
// for tests that assert on absolute counts.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, c := range r.ctrs {
		for _, v := range c.lanes {
			v.Store(0)
		}
	}
	for _, g := range r.ggs {
		g.v.Store(0)
	}
	for _, h := range r.hists {
		for _, cell := range h.lanes {
			for i := range cell {
				cell[i].Store(0)
			}
		}
	}
}

// snapshot collects a stable, name-sorted view for the exporters.
func (r *Registry) snapshot() (at time.Time, ctrs, ggs []namedValue, hists []namedHist) {
	r.mu.Lock()
	defer r.mu.Unlock()
	at = r.now()
	for name, c := range r.ctrs {
		ctrs = append(ctrs, namedValue{name, c.Load()})
	}
	for name, g := range r.ggs {
		ggs = append(ggs, namedValue{name, g.Load()})
	}
	for name, h := range r.hists {
		hists = append(hists, namedHist{name, h})
	}
	sort.Slice(ctrs, func(i, j int) bool { return ctrs[i].name < ctrs[j].name })
	sort.Slice(ggs, func(i, j int) bool { return ggs[i].name < ggs[j].name })
	sort.Slice(hists, func(i, j int) bool { return hists[i].name < hists[j].name })
	return at, ctrs, ggs, hists
}

type namedValue struct {
	name string
	v    int64
}

type namedHist struct {
	name string
	h    *Histogram
}

// WritePrometheus renders the registry in Prometheus text exposition
// format, instruments sorted by name so output is stable.
func (r *Registry) WritePrometheus(w io.Writer) error {
	_, ctrs, ggs, hists := r.snapshot()
	for _, c := range ctrs {
		if _, err := fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", c.name, c.name, c.v); err != nil {
			return err
		}
	}
	for _, g := range ggs {
		if _, err := fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", g.name, g.name, g.v); err != nil {
			return err
		}
	}
	for _, nh := range hists {
		if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", nh.name); err != nil {
			return err
		}
		counts := nh.h.BucketCounts()
		cum := int64(0)
		for i, bound := range nh.h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", nh.name, formatBound(bound), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n%s_sum %g\n%s_count %d\n",
			nh.name, cum, nh.name, nh.h.Sum(), nh.name, cum); err != nil {
			return err
		}
	}
	return nil
}

func formatBound(b float64) string { return fmt.Sprintf("%g", b) }

// WriteFile dumps the registry to path, picking the format from the
// extension: a single JSON document for ".json", Prometheus text exposition
// otherwise. This is what the -metrics-out command-line flags call on exit.
func (r *Registry) WriteFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("telemetry: %w", err)
	}
	if strings.EqualFold(filepath.Ext(path), ".json") {
		err = r.WriteJSON(f)
	} else {
		err = r.WritePrometheus(f)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// jsonHistogram is the JSON-export form of one histogram.
type jsonHistogram struct {
	Bounds []float64 `json:"bounds"`
	Counts []int64   `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  int64     `json:"count"`
}

// jsonDocument is the single-document JSON export shape.
type jsonDocument struct {
	At         time.Time                `json:"at"`
	Counters   map[string]int64         `json:"counters"`
	Gauges     map[string]int64         `json:"gauges"`
	Histograms map[string]jsonHistogram `json:"histograms"`
}

// WriteJSON renders the registry as one indented JSON document. The "at"
// timestamp comes from the registry clock (simulated time when SetNow was
// pointed at a SimClock); map keys serialise sorted, so output is stable.
func (r *Registry) WriteJSON(w io.Writer) error {
	at, ctrs, ggs, hists := r.snapshot()
	doc := jsonDocument{
		At:         at,
		Counters:   map[string]int64{},
		Gauges:     map[string]int64{},
		Histograms: map[string]jsonHistogram{},
	}
	for _, c := range ctrs {
		doc.Counters[c.name] = c.v
	}
	for _, g := range ggs {
		doc.Gauges[g.name] = g.v
	}
	for _, nh := range hists {
		counts := nh.h.BucketCounts()
		var n int64
		for _, c := range counts {
			n += c
		}
		doc.Histograms[nh.name] = jsonHistogram{
			Bounds: nh.h.Bounds(),
			Counts: counts,
			Sum:    nh.h.Sum(),
			Count:  n,
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}
