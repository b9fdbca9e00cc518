package client

import (
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/sim"
)

// Call is one pumped call's completion: the state the caller and the
// operation's done share, and a live pump's place in its Deadlines while
// the caller waits. It lives in a SyncClient's reply record and is reused
// with it — which is why a done that fires late cannot complete a later
// call: the record of a call the pump gave up on is never handed out
// again. The two method values a pump needs are bound once per record, and
// the channel is made once, the first time the record's caller waits.
type Call struct {
	state     atomic.Uint32
	start     func(done func())
	run, done func() // c.begin and c.complete
	wake      chan bool
	// prev, next and due are the call's entry in a Deadlines, guarded by
	// its lock; next is nil while the call is not queued.
	prev, next *Call
	due        sim.Deadline
}

const (
	callRunning uint32 = iota
	callWaiting        // the caller is parked on wake
	callDone
	callTimedOut
)

// Arm readies c for the call start begins and returns the task that
// begins it — start with c's done — for the pump to run.
func (c *Call) Arm(start func(done func())) func() {
	if c.run == nil {
		c.run, c.done = c.begin, c.complete
	}
	c.start = start
	c.state.Store(callRunning)
	return c.run
}

func (c *Call) begin() { c.start(c.done) }

func (c *Call) complete() {
	if c.state.Swap(callDone) == callWaiting {
		c.wake <- true
	}
}

// Completed reports whether the call's done has fired since Arm.
func (c *Call) Completed() bool { return c.state.Load() == callDone }

// Wait parks the caller until the call's done fires or timeout passes on
// clock, whichever is first, and reports whether done did. The timeout is
// an entry of q, which arms a timer only when none is armed for an
// earlier deadline.
func (c *Call) Wait(q *Deadlines, clock sim.Clock, timeout time.Duration) bool {
	if c.wake == nil {
		// One send at most per call, and never a blocked sender: done
		// sends only if it finds the caller waiting, the queue only if it
		// takes the waiting state away from done.
		c.wake = make(chan bool, 1)
	}
	if !c.state.CompareAndSwap(callRunning, callWaiting) {
		return true // done fired on another goroutine meanwhile
	}
	q.add(c, clock, timeout)
	if <-c.wake {
		q.remove(c)
		return true
	}
	return false
}

// Deadlines is the queue of the calls a live node's pump has parked, in
// the order they time out: one clock timer, armed for the head's
// deadline, serves them all, in the manner of sim.Retries (DESIGN §20.2).
// A call that completes is an unlink and leaves the timer armed; when the
// timer fires, every entry due by the deadline it was armed for times out,
// and it is armed again for the head, if there is one. A SyncClient has
// one timeout, so its calls join at the tail; a shorter timeout walks in
// from there, and arms a timer of its own if it becomes the head.
//
// The zero value is an empty queue. It is safe for concurrent use: calls
// join it on their callers' goroutines, leave it on theirs, and time out
// on the clock's.
type Deadlines struct {
	mu    sync.Mutex
	ring  Call // sentinel: ring.next is the head, ring.prev the tail
	armed bool // a timer is armed for at, or is firing
	at    sim.Deadline
}

// add queues c to time out timeout from now on clock.
func (q *Deadlines) add(c *Call, clock sim.Clock, timeout time.Duration) {
	q.mu.Lock()
	if q.ring.next == nil {
		q.ring.prev, q.ring.next = &q.ring, &q.ring
	}
	c.due = clock.Deadline(clock.Now().Add(timeout))
	after := q.ring.prev
	for after != &q.ring && after.due > c.due {
		after = after.prev
	}
	c.prev, c.next = after, after.next
	after.next.prev, after.next = c, c
	arm := !q.armed || c.due < q.at
	if arm {
		q.armed, q.at = true, c.due
	}
	q.mu.Unlock()
	if arm {
		q.arm(clock, c.due)
	}
}

// arm sets a timer on clock for at. It is called without the lock, so
// that a clock that runs its callbacks at once cannot deadlock.
func (q *Deadlines) arm(clock sim.Clock, at sim.Deadline) {
	clock.AtFunc(at, func() { q.expire(clock, at) })
}

// remove unlinks c if it is queued.
func (q *Deadlines) remove(c *Call) {
	q.mu.Lock()
	q.unlink(c)
	q.mu.Unlock()
}

func (q *Deadlines) unlink(c *Call) {
	if c.next == nil {
		return
	}
	c.prev.next, c.next.prev = c.next, c.prev
	c.prev, c.next = nil, nil
}

// expire is the callback of the timer armed on clock for at. "Due" is
// decided by at, never by reading the clock here (sim.Retries says why).
func (q *Deadlines) expire(clock sim.Clock, at sim.Deadline) {
	q.mu.Lock()
	// The calls that time out, chained through next once unlinked. A
	// call whose waiting state this takes is never queued again: its
	// record is given up.
	var late *Call
	for c := q.ring.next; c != &q.ring && c.due <= at; c = q.ring.next {
		q.unlink(c)
		if c.state.CompareAndSwap(callWaiting, callTimedOut) {
			c.next, late = late, c
		}
	}
	if q.armed && q.at <= at {
		q.armed = false // this timer was the one armed
	}
	arm := !q.armed && q.ring.next != &q.ring
	if arm {
		q.armed, q.at = true, q.ring.next.due
	}
	next := q.at
	q.mu.Unlock()
	for c := late; c != nil; {
		late, c.next = c.next, nil
		c.wake <- false
		c = late
	}
	if arm {
		q.arm(clock, next)
	}
}
