// Servercluster: the paper's Figure 1 shows a CLUSTER of servers; §4
// argues that one lease per (client, server) pair matches real failures.
// This example shards a namespace over three servers, partitions a single
// client↔server link, and shows that exactly one shard's lease runs down
// while the others never notice.
//
//	go run ./examples/servercluster
package main

import (
	"fmt"
	"time"

	storagetank "repro"
	"repro/internal/msg"
)

func main() {
	const servers = 3
	inst := storagetank.NewClusterWith(
		storagetank.WithShards(servers),
		storagetank.WithPlacement(storagetank.SubtreePlacement{
			Prefixes: map[string]int{"/s0": 0, "/s1": 1, "/s2": 2},
		}))
	inst.Start()
	tau := storagetank.Resolve().Cluster.Core.Tau
	fmt.Printf("cluster up: %d servers, namespace shards /s0 /s1 /s2, τ=%v\n\n",
		servers, tau)

	// Node 0 works across all three shards.
	handles := make([]msg.Handle, servers)
	for i := range handles {
		path := fmt.Sprintf("/s%d/data", i)
		handles[i], _ = inst.MustOpen(0, path, true, true)
		inst.Write(0, handles[i], 0, make([]byte, storagetank.BlockSize))
		fmt.Printf("node 0 holds an exclusive lock on %s (lease with server %d)\n", path, i+1)
	}

	fmt.Println("\npartitioning ONLY the node0 ↔ server1 control link...")
	inst.IsolatePair(0, 0)

	for round := 1; round <= 6; round++ {
		inst.RunFor(2 * time.Second)
		fmt.Printf("t+%2ds  lease phases per shard: %v\n", round*2, inst.LeasePhases(0))
	}

	fmt.Println("\nwrites during the partition:")
	for i := range handles {
		errno := inst.Write(0, handles[i], 1, make([]byte, storagetank.BlockSize))
		fmt.Printf("  shard /s%d: %v\n", i, errno)
	}

	inst.HealControl()
	inst.RunFor(2 * tau)
	inst.Sync(0)
	fmt.Printf("\nafter heal: phases %v, violations across all shards: %d\n",
		inst.LeasePhases(0), len(inst.FinalCheck()))
}
