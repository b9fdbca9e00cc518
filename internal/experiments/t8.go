package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/shard"
	"repro/internal/stats"
)

// RunT8 measures the lease-granularity argument of §4 on a multi-server
// installation (Fig 1's server cluster): one lease per (client, server)
// pair means a partition between a client and ONE server costs exactly
// that pair's lease — service on every other shard continues untouched,
// and the per-object alternative's renewal traffic is avoided without
// giving up failure isolation.
func RunT8(p Params) *Result {
	opts := cluster.DefaultOptions()
	opts.Seed = p.Seed
	opts.Clients, opts.Disks = 2, 1
	// Rate-1 clocks, as this table has always been run: the per-pair
	// isolation it shows does not depend on skew, and the seeds of the
	// skewed runs live in the harness tests.
	opts.ClockSkew = false
	opts.Shards = 3
	if p.Quick {
		opts.Shards = 2
	}
	prefixes := make(map[string]int, opts.Shards)
	for si := 0; si < opts.Shards; si++ {
		prefixes[fmt.Sprintf("/s%d", si)] = si
	}
	opts.Placement = shard.Subtree{Prefixes: prefixes}
	inst := cluster.New(opts)
	inst.Start()
	tau := opts.Core.Tau

	res := &Result{ID: "T8", Title: "server cluster: one lease per client/server pair"}
	res.Table = stats.NewTable("",
		"shard", "partitioned", "ops during partition", "errors", "lease at end")

	// Node 0 works on every shard.
	handles := make([]msg.Handle, opts.Shards)
	for si := 0; si < opts.Shards; si++ {
		handles[si], _ = inst.MustOpen(0, fmt.Sprintf("/s%d/data", si), true, true)
		mustOK(inst.Write(0, handles[si], 0, blockData(byte('a'+si))))
	}

	// Partition exactly the (node 0, server 0) pair.
	inst.IsolatePair(0, 0)

	// Keep working on every shard through 1.5 lease periods.
	ops := make([]int, opts.Shards)
	errs := make([]int, opts.Shards)
	rounds := int((3 * tau / 2) / (500 * time.Millisecond))
	for r := 0; r < rounds; r++ {
		inst.RunFor(500 * time.Millisecond)
		for si := 0; si < opts.Shards; si++ {
			errno := inst.Write(0, handles[si], uint64(r%4), blockData(byte(r)))
			ops[si]++
			if errno != msg.OK {
				errs[si]++
			}
		}
	}

	phases := inst.LeasePhases(0)
	for si := 0; si < opts.Shards; si++ {
		res.Table.AddRow(
			fmt.Sprintf("/s%d", si),
			yesNo(si == 0),
			stats.FmtN(ops[si]),
			stats.FmtN(errs[si]),
			phases[si].String(),
		)
	}
	res.Metric("partitioned_shard_errors", float64(errs[0]))
	unaffectedErrs := 0
	for si := 1; si < opts.Shards; si++ {
		unaffectedErrs += errs[si]
	}
	res.Metric("unaffected_shard_errors", float64(unaffectedErrs))
	res.Metric("unaffected_leases_valid", boolToF(allValid(phases[1:])))

	// Heal, settle, audit all shards.
	inst.HealControl()
	inst.RunFor(2 * tau)
	inst.Sync(0)
	res.Metric("violations", float64(len(inst.FinalCheck())))
	res.Table.AddNote("partition between node 0 and server 0 only; τ=%v; %d write rounds per shard", tau, rounds)
	return res
}

func allValid(phases []core.Phase) bool {
	for _, p := range phases {
		if p != core.Phase1Valid {
			return false
		}
	}
	return true
}
