package rpcnet

import (
	"sync"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Executor is a node's serial event loop: every protocol callback —
// message delivery from either network, every timer, every operation a
// caller starts — is a task of it, so node state needs no further locking,
// exactly as in the simulator. The contract, on which every node relies:
//
//   - at most one task runs at a time, and each task's effects are visible
//     to the next, whichever goroutines run them;
//   - tasks that were queued run in the order they were queued;
//   - a task never blocks on another task (one that calls Do or Submit
//     from inside a task enqueues);
//   - Do and Enter jump the queue only when the queue is empty and nothing
//     is running, which is no jump at all: the task runs on the goroutine
//     that brought it, where a queued one runs on Run's.
//
// The queue is unbounded: protocol callbacks must never be dropped while
// the node is alive, and never block their producers. A task that panics
// takes the process down, as it always did on Run's goroutine.
type Executor struct {
	mu   sync.Mutex
	cond *sync.Cond
	// ring holds the queued tasks: n of them starting at head. Its length
	// is zero or a power of two.
	ring    []task
	head, n int
	// busy is the token a goroutine holds while it runs a task.
	busy   bool
	closed bool
	ins    *execStats
}

// task is one queued callback and, on an instrumented executor, when it was
// queued.
type task struct {
	fn func()
	at sim.Time
}

// execStats are an executor's instruments: how many tasks ran where they
// arrived, how many had to queue, and how long those waited, on the node's
// clock. A task that ran inline waited for nothing and records nothing.
// The two counts are gauges that only rise, not counters: which of the two
// a task adds to is a matter of scheduling, and the registry's counters are
// what experiments and tankbench's topology check compare run against run.
type execStats struct {
	inline, queued *stats.Gauge
	wait           *stats.Histogram
	clock          sim.Clock
}

// ringStart is the queue's first capacity, and what it returns to when a
// burst that outgrew it has drained.
const ringStart = 64

// NewExecutor creates an executor; call Run (usually on a goroutine).
func NewExecutor() *Executor {
	e := &Executor{}
	e.cond = sync.NewCond(&e.mu)
	return e
}

// Instrument registers the executor's prefix+"inline" and prefix+"queued"
// counts and its prefix+"queue_wait" histogram, timed on clock, in reg.
// Call before the first task.
func (e *Executor) Instrument(reg *stats.Registry, prefix string, clock sim.Clock) {
	e.ins = &execStats{
		inline: reg.Gauge(prefix + "inline"),
		queued: reg.Gauge(prefix + "queued"),
		wait:   reg.Histogram(prefix + "queue_wait"),
		clock:  clock,
	}
}

// Do runs fn as a task: here and now, on the calling goroutine, when
// nothing is running and nothing is queued; otherwise it enqueues fn as
// Submit does and returns. Either way fn may have run when Do returns, or
// may not have. Tasks after Close are dropped.
func (e *Executor) Do(fn func()) {
	if !e.Enter() {
		e.Submit(fn)
		return
	}
	fn()
	e.Leave()
}

// Enter takes the token for the calling goroutine when nothing is
// running and nothing is queued — when Do would run a task here — and
// reports whether it did. What the caller does until Leave is a task,
// counted as one run inline, and like any task it must not block. A
// false Enter takes nothing; after Close, Enter is always false.
func (e *Executor) Enter() bool {
	e.mu.Lock()
	ok := !e.closed && !e.busy && e.n == 0
	if ok {
		e.busy = true
	}
	e.mu.Unlock()
	if ok && e.ins != nil {
		e.ins.inline.Add(1)
	}
	return ok
}

// Leave gives back the token a true Enter took.
func (e *Executor) Leave() {
	e.mu.Lock()
	e.release()
	e.mu.Unlock()
}

// Submit enqueues fn and returns before it runs — for callers that need
// exactly that (a caller that must not run protocol code on its own stack,
// a shutdown step that goes behind what is queued). Submissions after
// Close are dropped.
func (e *Executor) Submit(fn func()) {
	e.mu.Lock()
	if !e.closed {
		e.push(fn)
	}
	e.mu.Unlock()
}

// push appends fn to the queue. Run is woken only if it could take the
// task now; whoever holds the token wakes it on release otherwise.
func (e *Executor) push(fn func()) {
	if e.n == len(e.ring) {
		e.resize(max(2*len(e.ring), ringStart))
	}
	t := &e.ring[(e.head+e.n)&(len(e.ring)-1)]
	t.fn = fn
	if e.ins != nil {
		e.ins.queued.Add(1)
		t.at = e.ins.clock.Now()
	}
	e.n++
	if !e.busy {
		e.cond.Signal()
	}
}

// resize moves the queue into a ring of the given capacity.
func (e *Executor) resize(size int) {
	ring := make([]task, size)
	for i := 0; i < e.n; i++ {
		ring[i] = e.ring[(e.head+i)&(len(e.ring)-1)]
	}
	e.ring, e.head = ring, 0
}

// release gives the token back and wakes whoever waits for it: Run when
// something was queued meanwhile, and Close as well once closed (before
// Close only Run ever waits, so one Signal cannot go astray).
func (e *Executor) release() {
	e.busy = false
	if e.closed {
		e.cond.Broadcast()
	} else if e.n > 0 {
		e.cond.Signal()
	}
}

// turn runs the task at the head of the queue. Called with e.mu held, the
// queue not empty and nothing running; returns with e.mu held.
func (e *Executor) turn() {
	t := e.ring[e.head]
	// The slot would otherwise keep the closure — a delivered envelope and
	// whatever its payload aliases — reachable until it is overwritten.
	e.ring[e.head] = task{}
	e.head = (e.head + 1) & (len(e.ring) - 1)
	e.n--
	if e.n == 0 && len(e.ring) > ringStart {
		e.resize(ringStart)
	}
	e.busy = true
	e.mu.Unlock()
	if e.ins != nil {
		e.ins.wait.Observe(e.ins.clock.Now().Sub(t.at))
	}
	t.fn()
	e.mu.Lock()
	e.release()
}

// Run runs queued tasks, one per turn so that a Do caller is never kept
// out for longer than one task, until Close; it returns when the executor
// is closed, the queue has drained and no task is running anywhere.
func (e *Executor) Run() {
	e.mu.Lock()
	defer e.mu.Unlock()
	for {
		switch {
		case e.busy:
			e.cond.Wait()
		case e.n > 0:
			e.turn()
		case e.closed:
			return
		default:
			e.cond.Wait()
		}
	}
}

// Close stops the executor: nothing more is accepted, and Close returns
// when what was queued has run and no task is running on any goroutine, so
// that the caller may take apart what the tasks use. It takes turns at the
// queue itself, beside Run or in its absence; an executor that never had a
// task closes at once. Close must be called from outside a task — from
// inside one it would wait for itself.
func (e *Executor) Close() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.closed = true
	e.cond.Broadcast()
	for e.busy || e.n > 0 {
		if e.busy {
			e.cond.Wait()
		} else {
			e.turn()
		}
	}
}
