// Package vtime provides the simulated-time substrate used throughout the
// ZCover reproduction.
//
// The paper's evaluation runs wall-clock campaigns (five 24-hour fuzzing
// trials per controller). Reproducing those campaigns against an emulated
// testbed would be pointlessly slow and non-deterministic on real time, so
// every component in this repository — the radio medium, the device models,
// the fuzzing engine, the liveness monitor — takes time from a Clock
// interface instead of the time package. Production-style code paths use
// SystemClock; simulations and tests use SimClock, which only advances when
// told to (directly or through its event queue).
//
// # Ownership and pooling
//
// A SimClock is not safe for concurrent use and takes no lock: the one
// goroutine that drives its testbed owns it (the rule is written down in
// package testbed). Determinism comes from the event queue's total order,
// which concurrent Advance calls would destroy anyway, so parallel fleet
// campaigns hold one private SimClock each and never share one. Event
// scheduling is the simulator's busiest allocation site, so fired event
// structs are recycled on a small per-clock freelist (bounded so bursts
// cannot pin memory); callbacks passed to Schedule must not assume
// identity of the event that carried them.
package vtime

import "time"

// Clock abstracts the passage of time. All timestamps are absolute
// time.Time values so durations and deadlines compose with the standard
// library.
type Clock interface {
	// Now reports the current instant on this clock.
	Now() time.Time
	// Sleep advances past d. On a SimClock this advances simulated time
	// immediately; on SystemClock it blocks.
	Sleep(d time.Duration)
}

// SystemClock is a Clock backed by the real time package.
type SystemClock struct{}

var _ Clock = SystemClock{}

// Now implements Clock.
func (SystemClock) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (SystemClock) Sleep(d time.Duration) { time.Sleep(d) }
