package experiments

import (
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunT3 injects random failures into a running workload and counts the
// consistency violations each recovery policy produces — the quantified
// form of §2.1's argument. Each trial runs contended traffic, isolates a
// random client at a random time, heals later, lets everything settle,
// flushes, and audits. The paper's protocol and honor-locks must be
// violation-free (honor-locks pays with T2's unavailability); naive steal
// yields concurrent conflicts; fence-only yields stale reads and lost
// updates.
func RunT3(p Params) *Result {
	trials := 6
	runFor := 40 * time.Second
	if p.Quick {
		trials = 2
		runFor = 25 * time.Second
	}

	res := &Result{ID: "T3", Title: "violations under failure injection"}
	res.Table = stats.NewTable("",
		"policy", "trials", "conflicts", "stale reads", "lost updates", "ops completed")

	policies := []baselines.Policy{
		baselines.StorageTank(),
		baselines.HonorLocks(),
		baselines.NaiveSteal(),
		baselines.FenceOnly(),
		baselines.Frangipani(),
	}

	for _, pol := range policies {
		var conflicts, stale, lost, ops int
		for trial := 0; trial < trials; trial++ {
			c, s, l, o := injectionTrial(p.Seed+int64(trial)*131, pol, runFor)
			conflicts += c
			stale += s
			lost += l
			ops += o
		}
		res.Table.AddRow(pol.Name, stats.FmtN(trials),
			stats.FmtN(conflicts), stats.FmtN(stale), stats.FmtN(lost), stats.FmtN(ops))
		res.Metric(pol.Name+".conflicts", float64(conflicts))
		res.Metric(pol.Name+".stale_reads", float64(stale))
		res.Metric(pol.Name+".lost_updates", float64(lost))
		res.Metric(pol.Name+".total_violations", float64(conflicts+stale+lost))
	}
	res.Table.AddNote("each trial: contended workload; one random client isolated mid-run, healed before the audit")
	return res
}

func injectionTrial(seed int64, pol baselines.Policy, runFor time.Duration) (conflicts, stale, lost, ops int) {
	opts := baseOptions(seed)
	opts.Clients = 3
	opts.Policy = pol
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	wcfg := workload.DefaultConfig()
	wcfg.Files = 6 // few files: high contention
	wcfg.BlocksPerFile = 4
	wcfg.MeanThink = 60 * time.Millisecond
	wcfg.ReadFrac, wcfg.WriteFrac = 0.45, 0.4
	workload.Populate(cl, wcfg)

	runners := make([]*workload.Runner, opts.Clients)
	for i := range runners {
		runners[i] = workload.NewRunner(cl, i, wcfg, seed+int64(i))
		runners[i].Start()
	}

	// Isolate a random client somewhere in the first third, heal a lease
	// period (and a bit) later.
	victim := int(cl.Sched.Rand().Int31n(int32(opts.Clients)))
	isoAt := time.Duration(cl.Sched.Rand().Int63n(int64(runFor / 3)))
	cl.Sched.After(isoAt, func() { cl.IsolateClient(victim) })
	cl.Sched.After(isoAt+tau+tau/2, func() { cl.HealControl() })

	cl.RunFor(runFor)
	for _, r := range runners {
		r.Stop()
		ops += int(r.Ops)
	}
	// Settle: give recoveries time to finish, then flush all clients that
	// can flush and audit.
	cl.RunFor(2 * tau)
	for i := range cl.Clients {
		cl.Sync(i)
	}
	cl.FinalCheck()
	return cl.Checkers[0].Count(checker.ConcurrentConflict),
		cl.Checkers[0].Count(checker.StaleRead),
		cl.Checkers[0].Count(checker.LostUpdate),
		ops
}
