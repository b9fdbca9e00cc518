package rpcnet

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/sim"
)

// recClock is a sim.Clock stub that records every armed timer. With
// fire set it runs each callback synchronously, so clock-routed sleeps
// and timeouts resolve instantly.
type recClock struct {
	mu    sync.Mutex
	fire  bool
	armed []time.Duration
}

func (c *recClock) Now() sim.Time { return 0 }

func (c *recClock) AfterFunc(d time.Duration, fn func()) sim.Timer {
	c.mu.Lock()
	c.armed = append(c.armed, d)
	c.mu.Unlock()
	if c.fire {
		fn()
	}
	return recTimer{}
}

func (c *recClock) Deadline(at sim.Time) sim.Deadline { return sim.Deadline(at) }

func (c *recClock) AtFunc(dl sim.Deadline, fn func()) sim.Timer {
	return c.AfterFunc(sim.Time(dl).Sub(c.Now()), fn)
}

func (c *recClock) durations() []time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]time.Duration(nil), c.armed...)
}

type recTimer struct{}

func (recTimer) Stop() bool { return false }

// TestSendDelayUsesInjectedClock is the regression test for routing the
// fault-injected send latency through the transport's clock instead of
// time.Sleep: the injected delay must be armed on the installed clock.
func TestSendDelayUsesInjectedClock(t *testing.T) {
	tr := New(1, map[msg.NodeID]string{}, func(msg.Envelope) {})
	defer tr.Close()
	clk := &recClock{fire: true}
	tr.SetClock(clk)

	faults := faultnet.New(1)
	faults.SetLink(1, 2, faultnet.Link{Delay: 7 * time.Millisecond})
	tr.SetFaults(faults)

	tr.Send(2, &msg.KeepAlive{})

	deadline := time.Now().Add(5 * time.Second)
	for len(clk.durations()) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("send goroutine never armed the injected clock")
		}
		time.Sleep(time.Millisecond)
	}
	if d := clk.durations(); len(d) != 1 || d[0] != 7*time.Millisecond {
		t.Fatalf("injected delay armed %v on the clock, want exactly one 7ms timer", d)
	}
}

// TestWithClockPlumbing is the regression test for routing the Sync
// timeout through the node's injected clock instead of time.After:
// WithClock must reach both the client node's timeout clock and the
// delay clocks of its transports.
func TestWithClockPlumbing(t *testing.T) {
	clk := &recClock{}
	topo := Topology{Server: 1, ServerAddr: "127.0.0.1:9", Disks: map[msg.NodeID]string{}}
	n, err := StartClientNode(NodeSpec{ID: 7, Topo: topo}, client.Config{Core: liveCore()}, WithClock(clk))
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.tmo != sim.Clock(clk) {
		t.Error("WithClock did not reach the Sync timeout clock")
	}
	if n.Ctrl.delayClock != sim.Clock(clk) {
		t.Error("WithClock did not reach the control transport's delay clock")
	}
	if n.SAN.delayClock != sim.Clock(clk) {
		t.Error("WithClock did not reach the SAN transport's delay clock")
	}
}

// TestSyncTimeoutDefaultsToWallClock pins the default: without
// WithClock the timeout clock must be a wall clock that does NOT funnel
// through the node executor, so Sync still times out when the executor
// itself is wedged.
func TestSyncTimeoutDefaultsToWallClock(t *testing.T) {
	topo := Topology{Server: 1, ServerAddr: "127.0.0.1:9", Disks: map[msg.NodeID]string{}}
	n, err := StartClientNode(NodeSpec{ID: 8, Topo: topo}, client.Config{Core: liveCore()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	if n.tmo == nil {
		t.Fatal("no default Sync timeout clock")
	}
	if n.tmo == n.Ctrl.Clock() {
		t.Error("Sync timeout clock must not be the executor-funneled protocol clock")
	}
	fired := make(chan struct{})
	n.tmo.AfterFunc(time.Millisecond, func() { close(fired) })
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("default timeout clock never fired off-executor")
	}
}

// pendingClock is a sim.Clock stub that fires only when told to. It counts
// the timers armed on it and those not stopped since, and announces each
// arming on armedCh.
type pendingClock struct {
	mu      sync.Mutex
	armed   int
	pending int
	fns     []func()
	armedCh chan struct{}
}

func newPendingClock() *pendingClock {
	// Sized to the number of sends any test here makes without receiving.
	return &pendingClock{armedCh: make(chan struct{}, 16)}
}

func (c *pendingClock) Now() sim.Time { return 0 }

func (c *pendingClock) AfterFunc(_ time.Duration, fn func()) sim.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed++
	c.pending++
	c.fns = append(c.fns, fn)
	c.armedCh <- struct{}{}
	return &pendingTimer{c: c}
}

func (c *pendingClock) Deadline(at sim.Time) sim.Deadline { return sim.Deadline(at) }

func (c *pendingClock) AtFunc(dl sim.Deadline, fn func()) sim.Timer {
	return c.AfterFunc(sim.Time(dl).Sub(c.Now()), fn)
}

// counts returns the timers armed so far and those still pending.
func (c *pendingClock) counts() (armed, pending int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.armed, c.pending
}

// fireLast runs the callback of the timer armed last.
func (c *pendingClock) fireLast() {
	c.mu.Lock()
	fn := c.fns[len(c.fns)-1]
	c.mu.Unlock()
	fn()
}

type pendingTimer struct {
	c       *pendingClock
	stopped bool
}

func (t *pendingTimer) Stop() bool {
	t.c.mu.Lock()
	defer t.c.mu.Unlock()
	if t.stopped {
		return false
	}
	t.stopped = true
	t.c.pending--
	return true
}

// awaitNode is a client node with no server to talk to — an unregistered
// client fails every operation at once, inside the task that started it,
// so the whole pump runs — whose Sync timeouts are armed on clk.
func awaitNode(t *testing.T, id msg.NodeID) (*ClientNode, *pendingClock) {
	t.Helper()
	topo := Topology{Server: 1, ServerAddr: "127.0.0.1:9", Disks: map[msg.NodeID]string{}}
	n, err := StartClientNode(NodeSpec{ID: id, Topo: topo}, client.Config{Core: liveCore()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(n.Close)
	clk := newPendingClock()
	n.tmo = clk
	return n, clk
}

// TestSyncStopsItsTimeoutTimer pins what a Sync call costs beside its
// operation. One that completes in the caller's own turn — every cache
// hit — arms no timer and makes no channel: the pump's whole cost is the
// completion token and the two method values bound to it. One that has to
// wait arms exactly one timer and takes it along when it completes, or
// every operation of the last 30 s would hold a timer, a channel and a
// closure (0.7 KB of RSS per operation under load).
func TestSyncStopsItsTimeoutTimer(t *testing.T) {
	n, clk := awaitNode(t, 9)
	sc := n.Sync(0)
	const calls = 10000
	for i := 0; i < calls; i++ {
		if err := sc.SyncAll(); err == nil {
			t.Fatal("SyncAll on an unregistered client succeeded")
		}
	}
	if armed, _ := clk.counts(); armed != 0 {
		t.Fatalf("%d timers armed for %d calls that completed in place", armed, calls)
	}
	inPlace := func(done func()) { done() }
	if allocs := testing.AllocsPerRun(1000, func() { n.await(inPlace, time.Second) }); allocs > 3 {
		t.Fatalf("a call that completes in place allocates %.0f objects, want at most the token and its two method values (a channel would be a fourth)", allocs)
	}

	// An operation that waits: its done fires in a later task.
	var done func()
	returned := make(chan bool)
	go func() { returned <- n.await(func(d func()) { done = d }, time.Second) }()
	<-clk.armedCh
	n.Do(func() { done() })
	if ok := <-returned; !ok {
		t.Fatal("a completed call reported a timeout")
	}
	if armed, pending := clk.counts(); armed != 1 || pending != 0 {
		t.Fatalf("a call that waited armed %d timers and left %d pending, want 1 and 0", armed, pending)
	}
}

// TestSyncLateDoneCannotCompleteNextCall: the completion token belongs to
// one call. The done of a call that timed out, fired late, and the done of
// a call that completed, fired again, must both leave a later call waiting
// for its own.
func TestSyncLateDoneCannotCompleteNextCall(t *testing.T) {
	n, clk := awaitNode(t, 10)

	// Call 1 never completes and times out; call 2 completes in place.
	var late, dup func()
	returned := make(chan bool)
	go func() { returned <- n.await(func(d func()) { late = d }, time.Second) }()
	<-clk.armedCh
	clk.fireLast()
	if ok := <-returned; ok {
		t.Fatal("a call whose timer fired first reported completion")
	}
	if !n.await(func(d func()) { dup = d; d() }, time.Second) {
		t.Fatal("a call that completed in place reported a timeout")
	}

	// Call 3 waits. Both stale dones fire while it does, each in a task as
	// a real one would, and then its timer: it must report the timeout.
	go func() { returned <- n.await(func(func()) {}, time.Second) }()
	<-clk.armedCh
	stale := make(chan struct{})
	n.Do(func() {
		late()
		dup()
		late()
		close(stale)
	})
	<-stale
	clk.fireLast()
	if ok := <-returned; ok {
		t.Fatal("an earlier call's done completed a later call")
	}
}

// TestStopPreventsAQueuedTimerCallback: a timer of the node's clock that
// fires while the executor is busy hands its callback to the executor's
// queue. A Stop from the task ahead of it must still prevent the run, and
// say so — as it would had the timer not fired yet, and as it does on the
// simulator. LeaseClient.scheduleBoundary and the authority's steal timer
// both stop timers from inside tasks and count on it.
func TestStopPreventsAQueuedTimerCallback(t *testing.T) {
	e := NewExecutor()
	go e.Run()
	defer e.Close()
	clk := sim.NewRealClock(e.Do)

	var ran atomic.Bool
	var timer sim.Timer
	entered, hold := make(chan struct{}), make(chan struct{})
	stopped := make(chan bool, 1)
	e.Submit(func() {
		close(entered)
		<-hold
		stopped <- timer.Stop()
	})
	<-entered
	timer = clk.AfterFunc(time.Millisecond, func() { ran.Store(true) })
	waitFor(t, "the fired timer's callback to queue behind the busy task", func() bool {
		e.mu.Lock()
		defer e.mu.Unlock()
		return e.n == 1
	})
	close(hold)
	if !<-stopped {
		t.Error("Stop from the task ahead of the queued callback reported that it prevented nothing")
	}
	behind := make(chan struct{})
	e.Submit(func() { close(behind) })
	<-behind
	if ran.Load() {
		t.Fatal("a stopped timer's callback ran")
	}
}
