package telemetry

import (
	"bytes"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"unsafe"
)

func TestNextLaneSkipsSharedLaneAndCycles(t *testing.T) {
	seen := map[Lane]bool{}
	prev := NextLane()
	for i := 0; i < 2*Lanes; i++ {
		l := NextLane()
		if l == SharedLane || l >= Lanes {
			t.Fatalf("NextLane = %d, want 1..%d", l, Lanes-1)
		}
		if l == prev {
			t.Fatalf("NextLane returned %d twice in a row", l)
		}
		seen[l] = true
		prev = l
	}
	if len(seen) != Lanes-1 {
		t.Errorf("NextLane covered %d lanes, want %d", len(seen), Lanes-1)
	}
}

// TestLanedWritesSumExactly pins the reader side: every lane's writes show
// up in Load, Count, BucketCounts and both exporters, and Reset clears
// every lane.
func TestLanedWritesSumExactly(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total")
	h := r.Histogram("h", 1, 2)
	c.Inc()
	c.IncLane(3)
	c.AddLane(Lanes-1, 5)
	h.Observe(0.5)
	h.ObserveLane(3, 1.5)
	h.ObserveLane(Lanes-1, 9)
	if c.Load() != 7 {
		t.Errorf("Load = %d, want 7", c.Load())
	}
	if got := h.BucketCounts(); len(got) != 3 || got[0] != 1 || got[1] != 1 || got[2] != 1 {
		t.Errorf("BucketCounts = %v, want [1 1 1]", got)
	}
	if h.Count() != 3 || h.Sum() != 11 {
		t.Errorf("Count = %d, Sum = %g; want 3, 11", h.Count(), h.Sum())
	}
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"c_total 7", `h_bucket{le="+Inf"} 3`, "h_sum 11", "h_count 3"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("exposition missing %q:\n%s", want, buf.String())
		}
	}
	r.Reset()
	if c.Load() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Errorf("Reset left c=%d count=%d sum=%g", c.Load(), h.Count(), h.Sum())
	}
}

func TestLanedConcurrentWritesAreExact(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c")
	h := r.Histogram("h", 1)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(l Lane) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				c.IncLane(l)
				h.ObserveLane(l, 0.5)
			}
		}(Lane(w % 3)) // lanes shared by several goroutines stay exact too
	}
	wg.Wait()
	if c.Load() != 8000 || h.Count() != 8000 || h.Sum() != 4000 {
		t.Fatalf("Load = %d, Count = %d, Sum = %g; want 8000, 8000, 4000", c.Load(), h.Count(), h.Sum())
	}
}

// TestLaneCellsAreCacheLinesApart checks that no two lanes' cells of any
// counter or histogram, whatever its bucket count, are within two 64-byte
// lines of each other, whatever the allocation's alignment, and that one
// lane's cells of consecutive counters are packed together.
func TestLaneCellsAreCacheLinesApart(t *testing.T) {
	r := NewRegistry()
	type span struct {
		lo, hi uintptr // one lane's cells of one instrument
		lane   int
	}
	var spans []span
	for i := 0; i < 3*blockCells; i++ {
		c := r.Counter(fmt.Sprintf("c%d", i))
		for l := 0; l < Lanes; l++ {
			a := c.CellAddr(Lane(l))
			spans = append(spans, span{a, a + 8, l})
		}
		h := r.Histogram(fmt.Sprintf("h%d", i), make([]float64, i%80)...)
		for l, cell := range h.lanes {
			lo := uintptr(unsafe.Pointer(&cell[0]))
			spans = append(spans, span{lo, lo + uintptr(len(cell))*8, l})
		}
	}
	// Cells never overlap, so checking neighbours in address order covers
	// every pair of lanes.
	sort.Slice(spans, func(i, j int) bool { return spans[i].lo < spans[j].lo })
	for i := 1; i < len(spans); i++ {
		x, y := spans[i-1], spans[i]
		if x.hi > y.lo || (x.lane != y.lane && y.lo-x.hi < 128) {
			t.Fatalf("lane %d cells %#x-%#x and lane %d cells %#x-%#x are within 128 bytes", x.lane, x.lo, x.hi, y.lane, y.lo, y.hi)
		}
	}
	r = NewRegistry()
	c1, c2 := r.Counter("c1"), r.Counter("c2")
	if d := c2.CellAddr(3) - c1.CellAddr(3); d != 8 {
		t.Errorf("consecutive counters' lane-3 cells are %d bytes apart, want 8", d)
	}
}
