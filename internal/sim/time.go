// Package sim provides a deterministic discrete-event simulation kernel:
// a single-threaded event scheduler, per-node clocks with bounded rate skew
// (the paper's rate-synchronization model), seeded randomness, and the
// Clock/Timer abstraction the lease protocol is written against.
//
// Everything in the repository that is time-dependent runs either on a
// sim.Scheduler (tests, benchmarks, experiments — fully deterministic) or on
// real clocks (cmd/tankd, cmd/tankcli) through the same Clock interface.
package sim

import (
	"fmt"
	"time"
)

// Time is an instant in nanoseconds. Depending on context it is either
// global (oracle) simulation time or a node's local clock reading. The
// protocol code only ever compares Times read from the same clock; global
// time is reserved for the scheduler and the consistency oracle.
type Time int64

// Duration re-exports time.Duration for callers that want a single import.
type Duration = time.Duration

// Add returns t shifted by d.
func (t Time) Add(d time.Duration) Time { return t + Time(d) }

// Sub returns the duration t-u.
func (t Time) Sub(u Time) time.Duration { return time.Duration(t - u) }

// Before reports whether t precedes u.
func (t Time) Before(u Time) bool { return t < u }

// After reports whether t follows u.
func (t Time) After(u Time) bool { return t > u }

// String formats the instant as a duration offset from zero, which reads
// naturally for simulation time ("1.5s", "250ms").
func (t Time) String() string { return time.Duration(t).String() }

// Timer is a cancellable pending callback, the subset of *time.Timer the
// protocol needs.
type Timer interface {
	// Stop cancels the timer. It reports whether the call prevented the
	// callback from firing.
	Stop() bool
}

// Clock is the time source a protocol participant runs against. Sim clocks
// advance at a configurable rate relative to global simulation time; real
// clocks advance at wall-clock rate.
type Clock interface {
	// Now returns the current local time.
	Now() Time
	// AfterFunc arranges for fn to run after local duration d elapses on
	// this clock and returns a Timer that can cancel it. fn runs on the
	// node's executor (the scheduler goroutine in simulation).
	AfterFunc(d time.Duration, fn func()) Timer
	// Deadline returns the instant at which a timer armed now for local
	// instant at (or at once, if at has passed) would fire. A caller that
	// takes a deadline when it would have armed a timer, and arms one for
	// that deadline later (AtFunc), fires at the same instant.
	Deadline(at Time) Deadline
	// AtFunc is AfterFunc for a deadline: fn runs at dl, or at once if dl
	// has passed.
	AtFunc(dl Deadline, fn func()) Timer
}

// Deadline is an instant on a clock's timer schedule. Deadlines of one
// clock order like the local instants they were taken for, and compare
// only with each other: on a simulated clock a deadline is global time,
// so protocol code never mixes one with a Time.
type Deadline int64

// RateBound describes the paper's rate-synchronization assumption: an
// interval of length t measured on one clock has length within
// (t/(1+eps), t*(1+eps)) measured on any other clock in the system.
type RateBound struct {
	Eps float64
}

// Valid reports whether two clock rates satisfy the bound.
func (b RateBound) Valid(rateA, rateB float64) bool {
	if rateA <= 0 || rateB <= 0 {
		return false
	}
	ratio := rateA / rateB
	if ratio < 1 {
		ratio = 1 / ratio
	}
	return ratio <= 1+b.Eps
}

// Stretch returns d*(1+eps) rounded to nanoseconds: the interval a server
// must wait on its own clock to guarantee at least d has elapsed on any
// rate-synchronized peer clock (Theorem 3.1's wait).
func (b RateBound) Stretch(d time.Duration) time.Duration {
	return time.Duration(float64(d) * (1 + b.Eps))
}

func (b RateBound) String() string { return fmt.Sprintf("eps=%g", b.Eps) }
