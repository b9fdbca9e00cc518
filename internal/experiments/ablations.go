package experiments

import (
	"fmt"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/stats"
)

// RunA1 ablates the phase boundaries (DESIGN.md §5): the paper fixes the
// ORDER of the four phases but not where they begin. The flush window
// (1−P3End)·τ must absorb the worst-case write-back of the client's
// dirty cache against a queuing disk; push phase 4 too late and dirty
// pages survive to expiry — exactly the lost updates the protocol
// exists to prevent. Push phase 2 too late and idle clients renew with
// less slack; too early and they keep-alive more than necessary.
func RunA1(p Params) *Result {
	res := &Result{ID: "A1", Title: "ablation: lease phase boundaries"}
	res.Table = stats.NewTable("",
		"boundaries (P1/P2/P3)", "keep-alives", "dirty at flush entry", "dirty at expiry", "flush margin")

	type variant struct{ p1, p2, p3 float64 }
	variants := []variant{
		{0.50, 0.70, 0.85}, // the default
		{0.30, 0.50, 0.70}, // conservative: early warning, wide flush window
		{0.70, 0.85, 0.95}, // aggressive: late detection, thin flush window
		{0.80, 0.90, 0.98}, // reckless: the flush window cannot absorb the cache
	}
	if p.Quick {
		variants = []variant{{0.50, 0.70, 0.85}, {0.80, 0.90, 0.98}}
	}

	for _, v := range variants {
		keepalives, dirtyFlush, dirtyExpiry, margin := phaseAblation(p, v.p1, v.p2, v.p3)
		res.Table.AddRow(
			fmt.Sprintf("%.2f/%.2f/%.2f", v.p1, v.p2, v.p3),
			stats.FmtN(keepalives),
			stats.FmtN(dirtyFlush),
			stats.FmtN(dirtyExpiry),
			margin.Round(time.Millisecond).String(),
		)
		key := fmt.Sprintf("p3=%.2f", v.p3)
		res.Metric("dirty_at_expiry."+key, float64(dirtyExpiry))
	}
	res.Table.AddNote("isolated client with 48 dirty pages; one disk, 10ms service (FIFO queue); per-page write-back (FlushBatch=1); margin = expiry − flush completion")
	return res
}

func phaseAblation(p Params, p1, p2, p3 float64) (keepalives uint64, dirtyAtFlush, dirtyAtExpiry int, margin time.Duration) {
	opts := baseOptions(p.Seed)
	opts.Clients = 1
	opts.Disks = 1 // a single queuing device: flush time scales with dirty pages
	opts.Core.P1End, opts.Core.P2End, opts.Core.P3End = p1, p2, p3
	opts.DiskService = 10 * time.Millisecond
	// Per-page write-back: this ablation measures how the flush WINDOW
	// sizes against a drain time that scales with dirty pages. Vectored
	// write-back (the default) collapses the drain to one batched service
	// slot, which is exactly the fix for a thin window — but it is studied
	// separately; here it would flatten the effect under test.
	opts.FlushBatch = 1
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	// Dirty working set: 48 pages, all committed once, then re-dirtied.
	h, _ := cl.MustOpen(0, "/abl", true, true)
	for i := 0; i < 48; i++ {
		mustOK(cl.Write(0, h, uint64(i), blockData('a')))
	}
	mustOK(cl.Sync(0))
	for i := 0; i < 48; i++ {
		mustOK(cl.Write(0, h, uint64(i), blockData('b')))
	}

	c0 := cl.Clients[0].Sub(0)
	var flushEntryDirty, expiryDirty int
	var expiryAt, flushDoneAt time.Duration
	c0.OnPhase = func(from, to core.Phase) {
		switch to {
		case core.Phase4Flush:
			flushEntryDirty = c0.Cache().TotalDirty()
		case core.PhaseExpired:
			expiryDirty = c0.Cache().TotalDirty()
			expiryAt = time.Duration(cl.Sched.Now())
		}
	}
	cl.IsolateClient(0)
	// Sample the flush completion time: poll dirty count each 10ms.
	var poll func()
	poll = func() {
		if flushDoneAt == 0 && flushEntryDirty > 0 && c0.Cache().TotalDirty() == 0 {
			flushDoneAt = time.Duration(cl.Sched.Now())
		}
		if expiryAt == 0 {
			cl.Sched.After(10*time.Millisecond, poll)
		}
	}
	poll()
	cl.RunFor(2 * tau)

	keepalives = cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.keepalives", cluster.ClientID(0)))
	if flushDoneAt == 0 || flushDoneAt > expiryAt {
		margin = 0
	} else {
		margin = expiryAt - flushDoneAt
	}
	return keepalives, flushEntryDirty, expiryDirty, margin
}

// RunA2 ablates the failure-detection policy (DESIGN.md §5): how many
// times the server re-sends an unacknowledged Demand, at what interval,
// before declaring a delivery failure. On a lossy control network an
// aggressive policy mistakes dropped datagrams for dead clients — every
// false positive costs a full τ(1+ε) unavailability round for the locks
// involved plus a needless client recovery — while a lax policy delays
// real failure detection.
func RunA2(p Params) *Result {
	res := &Result{ID: "A2", Title: "ablation: demand retry policy (failure detection)"}
	res.Table = stats.NewTable("",
		"retries", "interval", "false suspicions", "real-failure detection", "ops completed")

	type variant struct {
		retries  int
		interval time.Duration
	}
	variants := []variant{
		{0, 100 * time.Millisecond},
		{1, 100 * time.Millisecond},
		{3, 200 * time.Millisecond}, // the default
		{6, 400 * time.Millisecond},
	}
	if p.Quick {
		variants = []variant{{0, 100 * time.Millisecond}, {3, 200 * time.Millisecond}}
	}

	for _, v := range variants {
		falseSusp, detect, ops := retryAblation(p, v.retries, v.interval)
		res.Table.AddRow(
			stats.FmtN(v.retries),
			v.interval.String(),
			stats.FmtN(falseSusp),
			detect.Round(10*time.Millisecond).String(),
			stats.FmtN(ops),
		)
		res.Metric(fmt.Sprintf("false_suspicions.retries=%d", v.retries), float64(falseSusp))
		res.Metric(fmt.Sprintf("detection_secs.retries=%d", v.retries), detect.Seconds())
	}
	res.Table.AddNote("control network with 15%% datagram loss; contended two-client workload, then a real isolation")
	return res
}

func retryAblation(p Params, retries int, interval time.Duration) (falseSuspicions uint64, detection time.Duration, ops int) {
	opts := baseOptions(p.Seed)
	opts.Clients = 2
	opts.Core.DemandRetries = retries
	opts.Core.RetryInterval = interval
	opts.Control.LossProb = 0.15
	opts.NoChecker = true
	cl := cluster.New(opts)
	cl.Start()
	tau := opts.Core.Tau

	// Phase 1: healthy but lossy. The two clients ping-pong an exclusive
	// lock, generating a stream of demands, each of which can be falsely
	// timed out when the loss eats the DemandAck.
	h0, _ := cl.MustOpen(0, "/pingpong", true, true)
	h1, _ := cl.MustOpen(1, "/pingpong", true, false)
	handles := []msg.Handle{h0, h1}
	for round := 0; round < 60; round++ {
		who := round % 2
		if errno := cl.Write(who, handles[who], 0, blockData(byte(round))); errno == msg.OK {
			ops++
		}
		cl.RunFor(300 * time.Millisecond)
	}
	falseSuspicions = cl.Reg.CounterValue("server.authority.timeouts_started")

	// Phase 2: a real failure; measure how long until the server begins
	// the lease timeout. Both clients must be in good standing first (a
	// false suspicion from the lossy phase costs a full recovery — part
	// of what this ablation measures), and the victim must hold the lock
	// so the contender's write provokes a demand.
	for i := 0; i < 2; i++ {
		for tries := 0; cl.Shards[0].Server.Authority().Suspect(cluster.ClientID(i)); tries++ {
			if tries > 5 {
				panic("a2: client never recovered from false suspicion")
			}
			cl.RunFor(2 * tau)
		}
	}
	// The reopen can still catch a client mid lease recovery (no longer
	// suspect at the server, lease not yet re-established locally), so
	// tolerate transient refusals the same way.
	reopen := func(who int) msg.Handle {
		for tries := 0; ; tries++ {
			h, _, errno := cl.Open(who, "/pingpong", true, false)
			if errno == msg.OK {
				return h
			}
			if tries > 5 {
				panic(fmt.Sprintf("a2: reopen on client %d: %v", who, errno))
			}
			cl.RunFor(2 * tau)
		}
	}
	h0 = reopen(0)
	h1 = reopen(1)
	// The victim's write can be refused the same way (a recovery between
	// the reopen and the write invalidates the handle); re-establish and
	// retry until it holds the lock with committed data.
	for tries := 0; ; tries++ {
		if errno := cl.Write(0, h0, 0, blockData('v')); errno == msg.OK {
			break
		} else if tries > 5 {
			panic(fmt.Sprintf("a2: victim write never committed: %v", errno))
		}
		cl.RunFor(2 * tau)
		h0 = reopen(0)
	}
	cl.IsolateClient(0)
	isoAt := cl.Sched.Now()
	// Client 1 provokes a demand to the isolated holder.
	cl.Clients[1].Write(h1, 0, blockData('z'), func(msg.Errno) {})
	deadline := cl.Sched.Now().Add(3 * tau)
	cl.Sched.RunWhile(func() bool {
		return !cl.Shards[0].Server.Authority().Suspect(cluster.ClientID(0)) &&
			!cl.Sched.Now().After(deadline)
	})
	detection = cl.Sched.Now().Sub(isoAt)
	return falseSuspicions, detection, ops
}
