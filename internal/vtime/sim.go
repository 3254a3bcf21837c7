package vtime

import (
	"container/heap"
	"fmt"
	"time"
)

// SimClock is a deterministic simulated clock with an event queue.
//
// The zero value is not usable; construct with NewSimClock. A SimClock is
// not safe for concurrent use: the goroutine that drives its testbed owns
// it (see the package doc).
type SimClock struct {
	now    time.Time
	queue  eventQueue
	nextID uint64
	// free recycles fired event structs. Event scheduling is the simulator's
	// single busiest allocation site (every frame airtime, ack timeout, and
	// retry books an event), so spent events return here instead of to the
	// garbage collector. Bounded so an event burst cannot pin memory
	// forever.
	free []*event
}

// maxFreeEvents bounds the recycled-event freelist.
const maxFreeEvents = 256

var _ Clock = (*SimClock)(nil)

// SimEpoch is the default origin for simulated time. Its concrete value is
// irrelevant to results; a fixed non-zero origin makes logged timestamps
// readable and catches code that wrongly compares against the zero Time.
var SimEpoch = time.Date(2025, time.January, 1, 0, 0, 0, 0, time.UTC)

// NewSimClock returns a SimClock starting at SimEpoch.
func NewSimClock() *SimClock {
	return &SimClock{now: SimEpoch}
}

// Now implements Clock.
func (c *SimClock) Now() time.Time { return c.now }

// Sleep implements Clock by advancing simulated time, firing any events
// scheduled inside the interval in timestamp order.
func (c *SimClock) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	c.AdvanceTo(c.now.Add(d))
}

// Advance moves simulated time forward by d, firing due events in order.
func (c *SimClock) Advance(d time.Duration) {
	c.Sleep(d)
}

// AdvanceTo moves simulated time forward to instant t, firing due events in
// order. Moving backwards is a no-op.
func (c *SimClock) AdvanceTo(t time.Time) {
	for len(c.queue) > 0 && !c.queue[0].at.After(t) {
		c.fire()
	}
	if t.After(c.now) {
		c.now = t
	}
}

// fire pops the earliest event, moves time to it, runs its callback and
// recycles it. The callback may schedule or fire further events: the
// queue is consistent before it runs, and the event is recycled only
// after it returns.
func (c *SimClock) fire() {
	ev := heap.Pop(&c.queue).(*event)
	if ev.at.After(c.now) {
		c.now = ev.at
	}
	ev.fn()
	if len(c.free) < maxFreeEvents {
		// Drop the callback so pooled events never pin closures.
		ev.fn = nil
		c.free = append(c.free, ev)
	}
}

// Elapsed reports how much simulated time has passed since the given origin.
func (c *SimClock) Elapsed(origin time.Time) time.Duration {
	return c.now.Sub(origin)
}

// Schedule registers fn to run when simulated time reaches now+delay.
// Events scheduled for the same instant fire in scheduling order. The
// callback runs on the goroutine that advances the clock.
func (c *SimClock) Schedule(delay time.Duration, fn func()) {
	if fn == nil {
		panic("vtime: Schedule called with nil callback")
	}
	if delay < 0 {
		delay = 0
	}
	c.nextID++
	ev := c.newEvent()
	ev.at, ev.seq, ev.fn = c.now.Add(delay), c.nextID, fn
	heap.Push(&c.queue, ev)
}

// newEvent takes an event from the freelist, or allocates.
func (c *SimClock) newEvent() *event {
	if n := len(c.free); n > 0 {
		ev := c.free[n-1]
		c.free[n-1] = nil
		c.free = c.free[:n-1]
		return ev
	}
	return new(event)
}

// PendingEvents reports the number of scheduled events not yet fired.
func (c *SimClock) PendingEvents() int { return len(c.queue) }

// RunUntilIdle fires all scheduled events (including ones scheduled by
// fired events), advancing time as needed, and returns the final instant.
// It guards against runaway self-rescheduling with a generous event budget.
func (c *SimClock) RunUntilIdle() time.Time {
	const budget = 10_000_000
	for i := 0; len(c.queue) > 0; i++ {
		if i >= budget {
			panic(fmt.Sprintf("vtime: RunUntilIdle exceeded %d events; self-rescheduling loop?", budget))
		}
		c.fire()
	}
	return c.now
}

// event is a single scheduled callback.
type event struct {
	at  time.Time
	seq uint64 // tiebreak: FIFO among equal timestamps
	fn  func()
}

// eventQueue is a min-heap of events ordered by (at, seq).
type eventQueue []*event

var _ heap.Interface = (*eventQueue)(nil)

func (q eventQueue) Len() int { return len(q) }

func (q eventQueue) Less(i, j int) bool {
	if !q[i].at.Equal(q[j].at) {
		return q[i].at.Before(q[j].at)
	}
	return q[i].seq < q[j].seq
}

func (q eventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }

func (q *eventQueue) Push(x any) { *q = append(*q, x.(*event)) }

func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	ev := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return ev
}
