package sim

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"time"
)

// NodeClock is a simulated hardware clock that advances at a fixed rate
// relative to global simulation time. A rate of 1.02 means the node's
// crystal runs 2% fast. Local timers are converted to global delays by the
// inverse rate, so a fast clock's τ elapses sooner in global time — exactly
// the skew the lease protocol's (1+ε) stretch must absorb.
type NodeClock struct {
	sched *Scheduler
	rate  float64
	// epoch is the global time at which this clock read localEpoch.
	epoch      Time
	localEpoch Time
}

// NewClock creates a clock on s with the given rate (>0) and an initial
// local reading of offset. Absolute offsets are irrelevant to the protocol
// (it never compares times across clocks) but a nonzero offset in tests
// guards against code accidentally mixing clock domains.
func (s *Scheduler) NewClock(rate float64, offset Duration) *NodeClock {
	if rate <= 0 {
		panic(fmt.Sprintf("sim: non-positive clock rate %g", rate))
	}
	return &NodeClock{sched: s, rate: rate, epoch: s.now, localEpoch: Time(offset)}
}

// NewClockWithin creates a clock whose rate is drawn uniformly from
// [1/(1+eps), 1+eps] using rng, with a random offset. All clocks drawn this
// way pairwise satisfy RateBound{Eps: eps'} for eps' = (1+eps)^2 - 1; use
// NewClockPair or draw from the half-interval when the pairwise bound must
// be exactly eps.
func (s *Scheduler) NewClockWithin(eps float64, rng *rand.Rand) *NodeClock {
	lo := 1 / (1 + eps)
	hi := 1 + eps
	rate := lo + rng.Float64()*(hi-lo)
	offset := Duration(rng.Int63n(int64(time.Hour)))
	return s.NewClock(rate, offset)
}

// Rate returns the clock's rate relative to global time.
func (c *NodeClock) Rate() float64 { return c.rate }

// Now returns the clock's current local reading.
func (c *NodeClock) Now() Time {
	elapsed := c.sched.now - c.epoch
	return c.localEpoch + Time(float64(elapsed)*c.rate)
}

// GlobalAt converts a local instant on this clock to global time. It is
// intended for the oracle and tests only; protocol code must never call it.
func (c *NodeClock) GlobalAt(local Time) Time {
	return c.epoch + Time(float64(local-c.localEpoch)/c.rate)
}

// LocalDur converts a global duration to this clock's local measurement.
func (c *NodeClock) LocalDur(global Duration) Duration {
	return Duration(float64(global) * c.rate)
}

// GlobalDur converts a local duration to the global time it spans.
func (c *NodeClock) GlobalDur(local Duration) Duration {
	return Duration(float64(local) / c.rate)
}

// AfterFunc schedules fn after local duration d elapses on this clock.
func (c *NodeClock) AfterFunc(d time.Duration, fn func()) Timer {
	if d < 0 {
		d = 0
	}
	return c.sched.After(c.GlobalDur(d), fn)
}

var _ Clock = (*NodeClock)(nil)

// RealClock is a Clock backed by the wall clock, used by the live TCP
// deployment. Local time is nanoseconds since the clock was created.
type RealClock struct {
	start time.Time
	exec  func(fn func())
}

// NewRealClock returns a wall-clock Clock. If exec is non-nil, every timer
// callback is handed to it when the timer fires — a node passes its serial
// executor's entry, which runs the callback as a task, on the timer
// goroutine if the executor is idle and on its loop otherwise; with a nil
// exec callbacks run on the timer goroutine, serialized with nothing.
func NewRealClock(exec func(fn func())) *RealClock {
	return &RealClock{start: time.Now(), exec: exec}
}

// Now returns nanoseconds since the clock was created.
func (c *RealClock) Now() Time { return Time(time.Since(c.start)) }

// SetExec replaces the hook timer callbacks are handed to; the hook, not
// the clock, decides which goroutine runs them. Call before any timers are
// armed.
func (c *RealClock) SetExec(exec func(fn func())) { c.exec = exec }

// execTimer is a timer whose callback is handed to the exec hook when it
// fires, and may then wait there — behind a busy executor's queue — before
// it runs. state decides, once, between the callback and Stop: a Stop
// that wins prevents the run however late it comes, even with the
// callback already queued, which is the simulator's semantics and what
// every caller that stops a timer relies on.
type execTimer struct {
	t     *time.Timer
	state atomic.Uint32
	fn    func()
	exec  func(fn func())
}

const (
	timerArmed uint32 = iota
	timerRan
	timerStopped
)

// Stop reports true iff it prevented the callback from running.
func (t *execTimer) Stop() bool {
	t.t.Stop()
	return t.state.CompareAndSwap(timerArmed, timerStopped)
}

// fire is the wall-clock timer's callback: it hands the run to exec.
func (t *execTimer) fire() { t.exec(t.run) }

// run is the callback as exec runs it, unless Stop got there first.
func (t *execTimer) run() {
	if t.state.CompareAndSwap(timerArmed, timerRan) {
		t.fn()
	}
}

// AfterFunc schedules fn after wall-clock duration d.
func (c *RealClock) AfterFunc(d time.Duration, fn func()) Timer {
	if c.exec == nil {
		return time.AfterFunc(d, fn)
	}
	t := &execTimer{fn: fn, exec: c.exec}
	t.t = time.AfterFunc(d, t.fire)
	return t
}

var _ Clock = (*RealClock)(nil)
