package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/stats"
)

// RunT7 measures §6's server-recovery policy: after a metadata-server
// failure, the durable store survives but the lock table is volatile;
// clients rebuild it by reasserting their locks during the restarted
// server's grace window. With reassertion, a lock-holding client keeps
// its cache, its locks, and its open handles, and resumes service as
// soon as it makes contact; the ablation (reassertion disabled) walks
// the full lease recovery instead — safe, but the cache and locks are
// lost and service resumes only after the lease runs out.
func RunT7(p Params) *Result {
	res := &Result{ID: "T7", Title: "server failure: lock reassertion vs full recovery"}
	res.Table = stats.NewTable("",
		"client recovery", "service outage", "cache survived", "locks survived", "violations")

	for _, disable := range []bool{false, true} {
		name := "reassert (paper §6)"
		if disable {
			name = "full lease recovery (ablation)"
		}
		outage, cacheOK, locksOK, violations := serverRecoveryScenario(p, disable)
		res.Table.AddRow(name,
			outage.Round(time.Millisecond).String(),
			yesNo(cacheOK), yesNo(locksOK), stats.FmtN(violations))
		key := "reassert"
		if disable {
			key = "norecover"
		}
		res.Metric(key+".outage_secs", outage.Seconds())
		res.Metric(key+".cache_survived", boolToF(cacheOK))
		res.Metric(key+".violations", float64(violations))
	}
	res.Table.AddNote("server down 1s; grace window τ(1+ε); outage = crash → holder's next successful write and answered request")
	return res
}

func serverRecoveryScenario(p Params, disableReassert bool) (outage time.Duration, cacheOK, locksOK bool, violations int) {
	opts := baseOptions(p.Seed)
	opts.Clients = 2
	opts.DisableReassert = disableReassert
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	h0, _ := cl.MustOpen(0, "/journal", true, true)
	mustOK(cl.Write(0, h0, 0, blockData('A')))
	mustOK(cl.Write(0, h0, 1, blockData('A')))
	mustOK(cl.Sync(0))
	mustOK(cl.Write(0, h0, 0, blockData('B'))) // dirty page at crash time

	crashAt := cl.Sched.Now()
	cl.CrashServer(0)
	cl.RunFor(time.Second)
	cl.RestartServer(0)

	// The holder keeps trying to work: one attempt per 250ms until one
	// succeeds end-to-end again — a write under its lock, into a block the
	// file already has (one that extended the file would change attributes
	// a directory lock covers, and wait out the grace window like any new
	// acquire, reasserted or not), and a request the server has to answer,
	// here the lookup of a name nobody has asked about. Like a real
	// application, it reopens the file when its handle dies (which happens
	// on the full-recovery path when the lease expires).
	recoveredAt := cl.Sched.Now()
	ok := false
	h := h0
	probes := 0
	var attempt func()
	attempt = func() {
		cl.Clients[0].Write(h, 1, blockData('C'), func(e msg.Errno) {
			switch e {
			case msg.OK:
				probes++
				cl.Clients[0].Lookup(fmt.Sprintf("/journal.%d", probes), func(_ msg.Attr, e msg.Errno) {
					if e != msg.ErrNoEnt {
						cl.Sched.After(250*time.Millisecond, attempt)
						return
					}
					ok = true
					recoveredAt = cl.Sched.Now()
				})
			case msg.ErrBadHandle:
				cl.Clients[0].Open("/journal", true, false, func(nh msg.Handle, _ msg.Attr, oe msg.Errno) {
					if oe == msg.OK {
						h = nh
					}
					cl.Sched.After(250*time.Millisecond, attempt)
				})
			default:
				cl.Sched.After(250*time.Millisecond, attempt)
			}
		})
	}
	attempt()
	deadline := crashAt.Add(3 * tau)
	cl.Sched.RunWhile(func() bool { return !ok && !cl.Sched.Now().After(deadline) })
	if !ok {
		recoveredAt = cl.Sched.Now()
	}
	outage = recoveredAt.Sub(crashAt)

	// "Cache survived" means the PRE-CRASH cached page (block 0, written
	// before the failure) is still resident — not merely that new ops
	// repopulated the cache afterwards.
	if o := cl.Clients[0].Sub(0).Cache().Object(inoOf(cl, "/journal")); o != nil {
		if pg := o.Page(0); pg != nil && pg.Bytes()[0] == 'B' {
			cacheOK = true
		}
	}
	locksOK = cl.Shards[0].Server.Locks().Held(cluster.ClientID(0), inoOf(cl, "/journal")) == msg.LockExclusive

	// Settle past the grace window; audit the whole episode.
	cl.RunFor(opts.Core.StealDelay() + tau)
	mustOK(cl.Sync(0))
	violations = len(cl.FinalCheck())
	return outage, cacheOK, locksOK, violations
}
