package rpcnet

import (
	"bytes"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
)

// countedClocks is an Option that gives every node it is applied to a
// protocol clock of its own: a wall clock whose timers run as tasks of
// the node's executor, wrapped in an arm counter. The executor does not
// exist until the node does, so bind names it afterwards, in the order
// the nodes were started.
type countedClocks struct {
	clocks []*sim.CountingClock
	execs  []*atomic.Pointer[Executor]
}

func (cc *countedClocks) option() Option {
	return func(o *nodeOptions) {
		ex := new(atomic.Pointer[Executor])
		c := &sim.CountingClock{Clock: sim.NewRealClock(func(fn func()) { ex.Load().Do(fn) })}
		cc.clocks = append(cc.clocks, c)
		cc.execs = append(cc.execs, ex)
		o.clock = c
	}
}

func (cc *countedClocks) bind(execs ...*Executor) {
	for i, e := range execs {
		cc.execs[i].Store(e)
	}
}

func (cc *countedClocks) armed() []int64 {
	n := make([]int64, len(cc.clocks))
	for i, c := range cc.clocks {
		n[i] = c.Armed()
	}
	return n
}

// TestLiveHandoffArmsNoTimers runs 1 000 two-client handoffs — one client
// writes a block, the other reads it back, so the lock moves by demand,
// flush and grant — and counts the timers the protocol arms on the five
// nodes' clocks. A request answered within the retry interval arms
// nothing, nor does a renewal: the retransmission queues (three on the
// server, two per client) and the clients' lease boundaries each arm at
// most one timer per retry interval elapsed, where a timer per message
// made twelve per handoff.
func TestLiveHandoffArmsNoTimers(t *testing.T) {
	cfg := core.DefaultConfig()
	cc := &countedClocks{}
	lc := startLiveCfg(t, 2, cfg, cc.option())
	cc.bind(lc.disks[0].Exec, lc.disks[1].Exec, lc.srvs[0].Exec, lc.clients[0].Exec, lc.clients[1].Exec)
	for _, cn := range lc.clients {
		cn.tmo = sim.NewRealClock(nil) // Start's and Sync's waits are not protocol timers
	}
	lc.start(t, 0)
	lc.start(t, 1)
	h := [2]msg.Handle{lc.open(t, 0, "/handoff", true, true), lc.open(t, 1, "/handoff", true, false)}

	const handoffs = 1000
	block := make([]byte, 4096)
	before := cc.armed()
	start := time.Now()
	for i := 0; i < handoffs; i++ {
		w, r := i%2, 1-i%2
		copy(block, fmt.Sprintf("handoff %d", i))
		lc.write(t, w, h[w], uint64(i%16), block)
		if got := lc.read(t, r, h[r], uint64(i%16)); !bytes.HasPrefix(got, block[:16]) {
			t.Fatalf("handoff %d: read %q", i, got[:16])
		}
	}
	elapsed := time.Since(start)
	after := cc.armed()

	var armed int64
	names := []string{"disk 1000", "disk 1001", "server", "client 10", "client 11"}
	for i := range after {
		armed += after[i] - before[i]
		t.Logf("%-9s armed %d protocol timers", names[i], after[i]-before[i])
	}
	// Three queues on the server, two queues and a lease per client: each
	// arms at most once per retry interval, plus the arming that starts it.
	const sources = 3 + 2*3
	bound := sources * (int64(elapsed/cfg.RetryInterval) + 1)
	t.Logf("%d handoffs in %v: %d protocol timers, %.4f per handoff (bound %d)",
		handoffs, elapsed.Round(time.Millisecond), armed, float64(armed)/handoffs, bound)
	if armed > bound {
		t.Fatalf("%d handoffs armed %d protocol timers in %v, want at most %d: one per queue or lease per %v",
			handoffs, armed, elapsed, bound, cfg.RetryInterval)
	}
}
