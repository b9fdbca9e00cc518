package experiments

import (
	"strings"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/stats"
	"repro/internal/workload"
)

// RunT1 measures the standing cost of each lease design during normal
// (failure-free) operation — the paper's headline comparison against the
// V system (§4) and Frangipani (§5). Clients run an active phase and an
// idle-but-caching phase; we report lease-specific messages per client
// per lease period, and the server's lease memory and lease operations.
// Storage Tank: zero during activity (opportunistic renewal), a couple of
// keep-alives per τ when idle, and a server that does nothing at all.
func RunT1(p Params) *Result {
	nClients := 4
	phase := 60 * time.Second
	if p.Quick {
		phase = 30 * time.Second
	}

	res := &Result{ID: "T1", Title: "lease overhead during normal operation"}
	res.Table = stats.NewTable("",
		"policy", "active: lease msgs/client/τ", "idle: lease msgs/client/τ",
		"server lease ops", "server lease bytes (max)", "ctl msgs/op", "ctl msgs/warm lookup")

	policies := []baselines.Policy{
		baselines.StorageTank(),
		baselines.Frangipani(),
		baselines.VSystem(),
		baselines.NFSPoll(),
	}

	for _, pol := range policies {
		opts := baseOptions(p.Seed)
		opts.Clients = nClients
		opts.Policy = pol
		opts.NoChecker = true
		cl := cluster.New(opts)
		cl.Start()
		tau := opts.Core.Tau

		wcfg := workload.DefaultConfig()
		wcfg.Files = 12
		wcfg.BlocksPerFile = 4
		wcfg.MeanThink = 100 * time.Millisecond
		workload.Populate(cl, wcfg)

		// Active phase.
		activeBase := cl.Reg.Snapshot()
		runners := make([]*workload.Runner, nClients)
		var ops uint64
		for i := range runners {
			runners[i] = workload.NewRunner(cl, i, wcfg, p.Seed+int64(i))
			runners[i].Start()
		}
		cl.RunFor(phase)
		for _, r := range runners {
			r.Stop()
			ops += r.Ops
		}
		activeDiff := cl.Reg.DiffFrom(activeBase)
		activeLease := leaseTraffic(activeDiff)
		ctlMsgs := activeDiff["net.control.sent.control-req"] + activeLease

		// Idle phase: no operations, but caches and locks are retained.
		idleBase := cl.Reg.Snapshot()
		cl.RunFor(phase)
		idleDiff := cl.Reg.DiffFrom(idleBase)
		idleLease := leaseTraffic(idleDiff)

		// Steady-state lookups: every client resolves every file of the
		// population, twice; the second pass is counted. Where names are
		// cached under directory locks it sends nothing at all.
		var lookups uint64
		var warmBase stats.Snapshot
		for pass := 0; pass < 2; pass++ {
			if pass == 1 {
				warmBase = cl.Reg.Snapshot()
			}
			for i := 0; i < nClients; i++ {
				for f := 0; f < wcfg.Files; f++ {
					_, _ = cl.SyncClient(i).Lookup(workload.FilePath(f))
					lookups += uint64(pass)
				}
			}
		}
		warmMsgs := cl.Reg.DiffFrom(warmBase)["net.control.sent.control-req"]

		perClientPerTau := func(n uint64) float64 {
			periods := float64(phase) / float64(tau)
			return float64(n) / float64(nClients) / periods
		}

		res.Table.AddRow(
			pol.Name,
			stats.FmtF(perClientPerTau(activeLease)),
			stats.FmtF(perClientPerTau(idleLease)),
			stats.FmtN(cl.Reg.CounterValue("server.lease_ops")+cl.Reg.CounterValue("server.authority.ops")),
			stats.FmtBytes(uint64(cl.Reg.Gauge("server.lease_state_bytes").Max())+uint64(cl.Reg.Gauge("server.authority.state_bytes").Max())),
			stats.FmtF(safeDiv(float64(ctlMsgs), float64(ops))),
			stats.FmtF(safeDiv(float64(warmMsgs), float64(lookups))),
		)
		res.Metric(pol.Name+".active_lease_msgs_per_tau", perClientPerTau(activeLease))
		res.Metric(pol.Name+".idle_lease_msgs_per_tau", perClientPerTau(idleLease))
		res.Metric(pol.Name+".ctl_msgs_per_warm_lookup", safeDiv(float64(warmMsgs), float64(lookups)))
		res.Metric(pol.Name+".server_lease_ops",
			float64(cl.Reg.CounterValue("server.lease_ops")+cl.Reg.CounterValue("server.authority.ops")))
		res.Metric(pol.Name+".server_lease_bytes_max",
			float64(cl.Reg.Gauge("server.lease_state_bytes").Max()+cl.Reg.Gauge("server.authority.state_bytes").Max()))
	}
	res.Table.AddNote("τ=%v; lease msgs = keep-alives + heartbeats + per-object renewals + NFS attr polls",
		baseOptions(p.Seed).Core.Tau)
	return res
}

// leaseTraffic counts the messages that exist only to maintain
// leases/liveness/coherence: keep-alives, heartbeats, per-object renewals,
// and NFS attribute polls (counted only where NFS polls).
func leaseTraffic(diff stats.Snapshot) uint64 {
	n := diff["net.control.sent.keepalive"] + diff["net.control.sent.lease-admin"]
	for name, v := range diff {
		if strings.HasSuffix(name, ".nfs_polls") {
			n += v
		}
	}
	return n
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
