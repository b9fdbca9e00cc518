package rpcnet

import (
	"sync"
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

// pendingClock is a sim.Clock stub that never fires and counts the
// timers armed on it and not stopped since.
type pendingClock struct {
	mu      sync.Mutex
	armed   int
	pending int
}

func (c *pendingClock) Now() sim.Time { return 0 }

func (c *pendingClock) AfterFunc(time.Duration, func()) sim.Timer {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.armed++
	c.pending++
	return &pendingTimer{c: c}
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

// TestSyncStopsItsTimeoutTimer is the regression test for the timer
// Sync used to abandon per call: an op that completes must take its
// timeout timer with it, or every op of the last 30 s holds a timer, a
// channel and a closure (0.7 KB of RSS per op under load).
func TestSyncStopsItsTimeoutTimer(t *testing.T) {
	topo := Topology{Server: 1, ServerAddr: "127.0.0.1:9", Disks: map[msg.NodeID]string{}}
	n, err := StartClientNode(NodeSpec{ID: 9, Topo: topo}, client.Config{Core: liveCore()})
	if err != nil {
		t.Fatal(err)
	}
	defer n.Close()
	clk := &pendingClock{}
	n.tmo = clk
	// An unregistered client fails every op at once, on its executor:
	// the whole pump runs, no server needed.
	sc := n.Sync(0)
	const calls = 10000
	for i := 0; i < calls; i++ {
		if err := sc.SyncAll(); err == nil {
			t.Fatal("SyncAll on an unregistered client succeeded")
		}
	}
	clk.mu.Lock()
	defer clk.mu.Unlock()
	if clk.armed != calls {
		t.Fatalf("%d timers armed for %d calls", clk.armed, calls)
	}
	if clk.pending != 0 {
		t.Fatalf("%d of %d timeout timers still pending after their ops completed", clk.pending, calls)
	}
}
