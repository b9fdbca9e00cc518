// Partition: the paper's Figure 2 scenario, told four times — once per
// recovery policy. A client holding a write lock with dirty data is cut
// off the control network while the SAN keeps working. Watch who gets the
// lock, when, and what it costs in consistency.
//
//	go run ./examples/partition
package main

import (
	"fmt"
	"time"

	storagetank "repro"
	"repro/internal/checker"
	"repro/internal/msg"
)

func main() {
	fmt.Println("Fig 2: client C1 holds a write lock; the control network partitions;")
	fmt.Println("client C2 asks to write the same file. One policy at a time:")
	fmt.Println()
	for _, pol := range []storagetank.Policy{
		storagetank.HonorLocks(),
		storagetank.NaiveSteal(),
		storagetank.FenceOnly(),
		storagetank.StorageTank(),
	} {
		runScenario(pol)
	}
}

func runScenario(pol storagetank.Policy) {
	cl := storagetank.NewClusterWith(storagetank.WithPolicy(pol))
	cl.Start()
	tau := storagetank.Resolve().Cluster.Core.Tau

	// C1 (client 0): committed data on block 0, dirty data on block 1.
	h0, _ := cl.MustOpen(0, "/shared", true, true)
	cl.Write(0, h0, 0, block('A'))
	cl.Sync(0)
	cl.Write(0, h0, 1, block('B')) // dirty: at risk

	cl.IsolateClient(0) // the partition of Fig 2: control network only

	// C2 (client 1) wants to write block 0.
	h1, _, _ := cl.Open(1, "/shared", true, false)
	granted := false
	start := cl.Sched.Now()
	var wait time.Duration
	cl.Clients[1].Write(h1, 0, block('C'), func(e msg.Errno) {
		granted = e == msg.OK
		wait = cl.Sched.Now().Sub(start)
	})
	deadline := cl.Sched.Now().Add(3 * tau)
	cl.Sched.RunWhile(func() bool { return !granted && !cl.Sched.Now().After(deadline) })

	// The isolated client's local processes keep reading their cache —
	// unless the policy stops them.
	cl.Read(0, h0, 0)

	// Heal, settle, flush, audit.
	cl.HealControl()
	cl.RunFor(2 * tau)
	for i := range cl.Clients {
		cl.Sync(i)
	}
	cl.FinalCheck()

	fmt.Printf("%-14s", pol.Name)
	if granted {
		fmt.Printf(" C2 granted after %-8v", wait.Round(10*time.Millisecond))
	} else {
		fmt.Printf(" C2 still waiting (> %v)  ", 3*tau)
	}
	fmt.Printf(" conflicts=%d stale=%d lost=%d\n",
		cl.Checkers[0].Count(checker.ConcurrentConflict),
		cl.Checkers[0].Count(checker.StaleRead),
		cl.Checkers[0].Count(checker.LostUpdate))
}

func block(b byte) []byte {
	buf := make([]byte, storagetank.BlockSize)
	for i := range buf {
		buf[i] = b
	}
	return buf
}
