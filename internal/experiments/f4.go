package experiments

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// phaseEvent is one recorded lease transition.
type phaseEvent struct {
	phase core.Phase
	at    sim.Time // global
	dirty int
}

// RunF4 traces Fig 4, the four phases of the lease period, on a live
// installation: a client with dirty data is isolated and we record when
// each phase begins (as a fraction of τ since isolation, global time),
// how many dirty pages remain at each boundary, when the flush completes,
// and when the server steals. The paper's invariant: no dirty pages by
// the end of phase 4, and the steal strictly after the client's expiry.
func RunF4(p Params) *Result {
	opts := baseOptions(p.Seed)
	opts.Clients = 2
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	var events []phaseEvent
	c0 := cl.Clients[0].Sub(0)
	c0.OnPhase = func(from, to core.Phase) {
		events = append(events, phaseEvent{phase: to, at: cl.Sched.Now(), dirty: c0.Cache().TotalDirty()})
	}

	// Dirty state: two committed + re-dirtied blocks.
	h0, _ := cl.MustOpen(0, "/traced", true, true)
	mustOK(cl.Write(0, h0, 0, blockData('A')))
	mustOK(cl.Write(0, h0, 1, blockData('B')))
	mustOK(cl.Sync(0))
	mustOK(cl.Write(0, h0, 0, blockData('C')))
	mustOK(cl.Write(0, h0, 1, blockData('D')))

	events = nil // ignore registration-time transitions
	isoAt := cl.Sched.Now()
	cl.IsolateClient(0)
	// A survivor contends, so the server-side timeout machinery runs too.
	h1, _, _ := cl.Open(1, "/traced", true, false)
	stealDone := false
	var grantAt sim.Time
	cl.Clients[1].Write(h1, 0, blockData('E'), func(e msg.Errno) {
		stealDone = true
		grantAt = cl.Sched.Now()
	})
	deadline := cl.Sched.Now().Add(3 * tau)
	cl.Sched.RunWhile(func() bool { return !stealDone && !cl.Sched.Now().After(deadline) })
	cl.RunFor(tau / 2)

	keepalives := int(cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.keepalives", cluster.ClientID(0))))

	res := &Result{ID: "F4", Title: "lease-phase timeline of an isolated client"}
	res.Table = stats.NewTable("",
		"event", "t (global)", "t/τ since isolation", "dirty pages")

	frac := func(at sim.Time) string {
		return stats.FmtF(float64(at.Sub(isoAt)) / float64(tau))
	}
	var expiryAt, flushAt sim.Time
	for _, ev := range events {
		switch ev.phase {
		case core.Phase4Flush:
			flushAt = ev.at
		case core.PhaseExpired:
			expiryAt = ev.at
		}
		res.Table.AddRow("enter "+ev.phase.String(), ev.at.String(), frac(ev.at), stats.FmtN(ev.dirty))
	}
	res.Table.AddRow("survivor granted (steal)", grantAt.String(), frac(grantAt), "")
	res.Table.AddNote("phase boundaries configured at %.2f/%.2f/%.2fτ; keep-alives sent in phase 2: %d",
		opts.Core.P1End, opts.Core.P2End, opts.Core.P3End, keepalives)

	res.Metric("dirty_at_expiry", float64(dirtyAt(events, core.PhaseExpired)))
	res.Metric("dirty_at_flush_entry", float64(dirtyAt(events, core.Phase4Flush)))
	res.Metric("keepalives", float64(keepalives))
	res.Metric("steal_after_expiry_secs", grantAt.Sub(expiryAt).Seconds())
	res.Metric("flush_entry_frac", float64(flushAt.Sub(isoAt))/float64(tau))
	mustOK(cl.Sync(1)) // quiesce the survivor before the audit
	res.Metric("violations", float64(len(cl.FinalCheck())))
	return res
}

func dirtyAt(events []phaseEvent, p core.Phase) int {
	for _, ev := range events {
		if ev.phase == p {
			return ev.dirty
		}
	}
	return -1
}

func mustOK(errno msg.Errno) {
	if errno != msg.OK {
		panic(fmt.Sprintf("experiments: unexpected errno %v", errno))
	}
}
