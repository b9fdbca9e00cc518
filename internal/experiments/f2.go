package experiments

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/stats"
)

// RunF2 reproduces the two-network partition scenario of Fig 2 (§2): a
// client holding a write lock is cut off the control network while the
// SAN keeps working. For each recovery policy we measure how long the
// surviving client waits for the contended lock and what consistency
// damage the recovery causes. The paper's protocol is the only row that
// is both available (bounded wait ≈ τ(1+ε)) and safe (zero violations).
func RunF2(p Params) *Result {
	res := &Result{ID: "F2", Title: "control-network partition: availability and safety"}
	res.Table = stats.NewTable("",
		"policy", "lock wait", "available", "conflicts", "stale reads", "lost updates")

	policies := []baselines.Policy{
		baselines.HonorLocks(),
		baselines.NaiveSteal(),
		baselines.FenceOnly(),
		baselines.StorageTank(),
	}

	for _, pol := range policies {
		opts := baseOptions(p.Seed)
		opts.Clients = 3
		opts.Policy = pol
		cl := cluster.New(opts)
		cl.Start()

		tau := opts.Core.Tau
		horizon := 3 * tau
		out := isolationScenario(cl, horizon)

		// Give the isolated client's local processes a chance to act on
		// its (possibly stale) cache, mirroring §2.1: it reads the block
		// the survivor rewrote. Cache hits need no network, so this works
		// even while partitioned — unless the policy (the paper's) makes
		// the client refuse service.
		cl.Read(0, out.isolatedH, 0)
		cl.Read(0, out.isolatedH, 1)
		cl.RunFor(tau)

		// Heal, let everything settle, flush survivors, audit.
		cl.HealControl()
		cl.RunFor(2 * tau)
		for i := range cl.Clients {
			cl.Sync(i)
		}
		cl.FinalCheck()

		avail := "yes"
		wait := out.lockWait.Round(time.Millisecond).String()
		if !out.granted {
			avail = "no"
			wait = "> " + horizon.String()
		}
		res.Table.AddRow(
			pol.Name,
			wait,
			avail,
			stats.FmtN(cl.Checkers[0].Count(checker.ConcurrentConflict)),
			stats.FmtN(cl.Checkers[0].Count(checker.StaleRead)),
			stats.FmtN(cl.Checkers[0].Count(checker.LostUpdate)),
		)

		total := float64(len(cl.Violations()))
		res.Metric(pol.Name+".violations", total)
		if out.granted {
			res.Metric(pol.Name+".lock_wait_secs", out.lockWait.Seconds())
		} else {
			res.Metric(pol.Name+".lock_wait_secs", -1)
		}
	}
	res.Table.AddNote("τ=%v, steal at τ(1+ε)=%v; honor-locks horizon %v",
		baseOptions(p.Seed).Core.Tau,
		baseOptions(p.Seed).Core.StealDelay(),
		3*baseOptions(p.Seed).Core.Tau)
	return res
}
