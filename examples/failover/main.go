// Failover: a narrated trace of the four-phase lease period (Fig 4). An
// isolated client walks from valid → renewal → suspect → flush → expired,
// writing its dirty data to the SAN on the way out; the server steals at
// τ(1+ε) and the surviving client takes over; after the partition heals,
// the isolated client rejoins with a fresh epoch.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"time"

	storagetank "repro"
	"repro/internal/core"
	"repro/internal/msg"
)

func main() {
	cl := storagetank.NewClusterWith()
	cl.Start()
	cfg := storagetank.Resolve().Cluster.Core
	tau := cfg.Tau
	c0 := cl.Clients[0].Sub(0)

	var isoAt = func() time.Duration { return time.Duration(cl.Sched.Now()) }
	var t0 time.Duration
	c0.OnPhase = func(from, to core.Phase) {
		fmt.Printf("  %7v  lease %-8s → %-8s (dirty pages: %d)\n",
			(isoAt() - t0).Round(time.Millisecond), from, to, c0.Cache().TotalDirty())
	}
	c0.OnRecovered = func(e msg.Epoch) {
		fmt.Printf("  %7v  client 0 rejoined with epoch %d\n", (isoAt() - t0).Round(time.Millisecond), e)
	}

	fmt.Printf("τ=%v, phases at %.2f/%.2f/%.2fτ, steal at τ(1+ε)=%v\n\n",
		tau, cfg.P1End, cfg.P2End, cfg.P3End, cfg.StealDelay())

	h0, _ := cl.MustOpen(0, "/journal", true, true)
	cl.Write(0, h0, 0, make([]byte, storagetank.BlockSize))
	cl.Sync(0)
	data := make([]byte, storagetank.BlockSize)
	copy(data, "precious dirty data")
	cl.Write(0, h0, 0, data)

	fmt.Println("client 0 holds an exclusive lock with dirty data; isolating it now:")
	t0 = isoAt()
	cl.IsolateClient(0)

	// The survivor contends for the file.
	h1, _, _ := cl.Open(1, "/journal", true, false)
	granted := false
	cl.Clients[1].Write(h1, 0, make([]byte, storagetank.BlockSize), func(e msg.Errno) {
		granted = true
		fmt.Printf("  %7v  survivor granted the exclusive lock (server stole at τ(1+ε))\n",
			(isoAt() - t0).Round(time.Millisecond))
	})
	deadline := cl.Sched.Now().Add(2 * tau)
	cl.Sched.RunWhile(func() bool { return !granted && !cl.Sched.Now().After(deadline) })

	// Verify the isolated client's phase-4 flush reached the disk before
	// the steal: the survivor reads the block it did NOT overwrite.
	fmt.Println("\nhealing the partition:")
	cl.HealControl()
	cl.RunFor(tau)

	cl.Sync(1) // flush the survivor before auditing
	fmt.Printf("\nconsistency violations across the whole episode: %d\n", len(cl.FinalCheck()))
	fmt.Printf("keep-alives the isolated client sent in phase 2: %v\n",
		cl.Reg.CounterValue("client.n10.lease.keepalives"))
	fmt.Printf("dirty pages discarded at expiry (would be lost updates): %v\n",
		cl.Reg.CounterValue("client.n10.dirty_discarded"))
}
