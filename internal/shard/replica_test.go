package shard_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

func replicatedOptions(seed int64) cluster.Options {
	opts := shardOptions()
	opts.Seed = seed
	opts.Shards = 1
	opts.Clients = 2
	opts.Replicas = 3
	opts.ReplicaLeaseTerm = time.Second
	return opts
}

// takeoverBound is the window within which a passive replica must assume
// a crashed active's authority: the acceptors' acquisition timeout (they
// must forget the dead holder's lease) plus negotiation slack.
func takeoverBound(opts cluster.Options) time.Duration {
	return opts.Core.Bound.Stretch(opts.ReplicaLeaseTerm) +
		opts.Core.Bound.Stretch(8*opts.Core.RetryInterval)
}

func activeReplica(t *testing.T, sh *cluster.Shard) int {
	t.Helper()
	for i, srv := range sh.Replicas {
		if !srv.Stopped() && srv.ActiveAuthority() {
			return i
		}
	}
	t.Fatal("no active replica")
	return -1
}

// TestReplicatedTakeover: crash the active replica of a 3-way group
// mid-workload. A passive must take over within the bounded window, enter
// grace-period recovery (clients had registered), and serve the same
// namespace: no acknowledged write may be lost, and the surviving client
// state must come through reassertion, not fencing.
func TestReplicatedTakeover(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	opts := replicatedOptions(7)
	// The bound below is in the scheduler's time; an acceptor on a slow
	// clock sits out the same timeout for longer than that. Rate-1 clocks
	// make the two the same, which is what a wall-time bound needs.
	opts.ClockSkew = false
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()
	sh := &inst.Shards[0]

	h, _ := inst.MustOpen(0, "/f", true, true)
	if errno := inst.Write(0, h, 0, block('a')); errno != msg.OK {
		t.Fatal(errno)
	}
	inst.Sync(0) // the write is acknowledged and on the SAN

	oldIdx := activeReplica(t, sh)
	oldID := sh.Group[oldIdx]
	crashedAt := inst.Sched.Now()
	inst.CrashReplica(0, oldIdx)

	// A peer must take over within the bound.
	bound := takeoverBound(opts)
	inst.Sched.RunWhile(func() bool {
		return sh.Active() == nil && inst.Sched.Now().Sub(crashedAt) < time.Minute
	})
	succ := sh.Active()
	if succ == nil {
		t.Fatal("no replica took over")
	}
	if took := inst.Sched.Now().Sub(crashedAt); took > bound {
		t.Fatalf("takeover took %v, bound %v", took, bound)
	}

	// The takeover entered grace: clients had registered under the old
	// regime (durable epoch > 0), so their locks get the reassertion
	// window.
	events := ring.Events()
	tk, ok := events.Last(trace.ByNode(succ.ID()), trace.ByType(trace.EvReplicaTakeover))
	if !ok {
		t.Fatal("no takeover event at the successor")
	}
	if tk.Note != "grace" {
		t.Fatalf("takeover note = %q, want \"grace\" (epoch was nonzero)", tk.Note)
	}

	// Let grace complete, then read the acknowledged write back through
	// the new active — client 1 opens fresh, so the data must come from
	// the recovered metadata + SAN, not from node 0's cache.
	inst.RunFor(opts.Core.StealDelay() + time.Second)
	h1, _ := inst.MustOpen(1, "/f", false, false)
	data, errno := inst.Read(1, h1, 0)
	if errno != msg.OK || len(data) == 0 || data[0] != 'a' {
		t.Fatalf("acknowledged write lost across takeover: data=%v errno=%v", data, errno)
	}

	// No client was fenced: recovery came through grace + reassertion.
	// (Fencing a client whose lease never lapsed would be a safety bug;
	// fencing one that reasserted in time would be a double penalty.)
	for ci := 0; ci < opts.Clients; ci++ {
		if n := events.Count(trace.ByPeer(cluster.ClientID(ci)), trace.ByType(trace.EvFence)); n != 0 {
			t.Fatalf("client %d fenced %d times during a clean takeover", ci, n)
		}
	}
	// And the lease-granted record shows exactly one takeover regime
	// change (old holder, then successor; renewals carry the same node).
	if n := events.Count(trace.ByType(trace.EvReplicaLeaseGranted),
		func(e trace.Event) bool { return e.Note == "" && e.Node != oldID && e.Node != succ.ID() }); n != 0 {
		t.Fatalf("%d lease grants at replicas other than the two holders", n)
	}

	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestTheorem31AcrossTakeover: the paper's safety theorem must hold even
// when the steal fires on a DIFFERENT replica than the one the client's
// lease was minted against. Client 0 dirties a file, the active crashes,
// a peer takes over, and client 0 is cut off; when the successor steals
// client 0's locks, the client's own expiry must already have happened —
// the τ(1+ε) bound spans the takeover boundary because the successor's
// suspicion clock starts no earlier than its first unanswered demand.
//
// Like the per-shard theorem it runs under skewed clocks — the replicas'
// too: two dozen seeds, and the corner where the client is as slow and
// every replica as fast as the bound allows.
func TestTheorem31AcrossTakeover(t *testing.T) {
	for seed := int64(1); seed <= 24; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			theorem31AcrossTakeover(t, replicatedOptions(seed))
		})
	}
	t.Run("adversarial", func(t *testing.T) {
		opts := replicatedOptions(11)
		opts.ClientRates, opts.ServerRate = slowestAndFastest(opts)
		theorem31AcrossTakeover(t, opts)
	})
}

func theorem31AcrossTakeover(t *testing.T, opts cluster.Options) {
	if !opts.ClockSkew {
		t.Fatal("the theorem is about skewed clocks; the options pin rate 1")
	}
	ring := trace.NewRing(1 << 16)
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()
	sh := &inst.Shards[0]

	h, _ := inst.MustOpen(0, "/f", true, true)
	if errno := inst.Write(0, h, 0, block('a')); errno != msg.OK {
		t.Fatal(errno)
	}

	// Crash the active; wait for the successor.
	oldIdx := activeReplica(t, sh)
	inst.CrashReplica(0, oldIdx)
	crashedAt := inst.Sched.Now()
	inst.Sched.RunWhile(func() bool {
		return sh.Active() == nil && inst.Sched.Now().Sub(crashedAt) < time.Minute
	})
	succ := sh.Active()
	if succ == nil {
		t.Fatal("no replica took over")
	}

	// Let grace run out: client 0 rejoins the successor and reasserts its
	// write lock, so the new regime actually KNOWS who holds /f. (Cutting
	// the client before reassertion would leave the successor with nothing
	// to steal — the grace window itself covers that case.)
	inst.RunFor(opts.Core.StealDelay() + time.Second)

	// Now cut client 0 off from every replica: its lease (reminted under
	// the successor) must expire before the successor steals.
	for ri := range sh.Group {
		if ri != oldIdx {
			inst.Control.Block(cluster.ClientID(0), sh.Group[ri])
		}
	}

	// Client 1 wants the file; the successor demands, fails to deliver,
	// and arms its steal.
	h1, _ := inst.MustOpen(1, "/f", true, false)
	if errno := inst.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatalf("survivor write: %v", errno)
	}

	events := ring.Events()
	isolated := cluster.ClientID(0)
	if n := events.Count(trace.ByNode(succ.ID()), trace.ByType(trace.EvStealFired),
		trace.ByPeer(isolated)); n != 1 {
		t.Fatalf("successor fired %d steals at the isolated client, want 1", n)
	}
	// Theorem 3.1 across the takeover boundary: client expiry (its lease
	// names the shard's primary ID) strictly precedes the successor's
	// steal.
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(succ.ID()), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)),
	); err != nil {
		t.Fatalf("Theorem 3.1 across takeover: %v", err)
	}
	// The phase-4 flush saved the dirty block before expiry.
	if exp, ok := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire)); !ok || exp.Note == "dirty" {
		t.Fatalf("expiry = %+v (ok=%v), want a clean flushed expiry", exp, ok)
	}

	inst.HealControl()
	inst.RunFor(2 * opts.Core.Tau)
	inst.Sync(0)
	inst.Sync(1)
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestReplicaRestartRejoinsGroup: a crashed replica restarts (diskless,
// warmup) and the group keeps exactly one active throughout.
func TestReplicaRestartRejoinsGroup(t *testing.T) {
	opts := replicatedOptions(13)
	inst := cluster.New(opts)
	inst.Start()
	sh := &inst.Shards[0]

	oldIdx := activeReplica(t, sh)
	inst.CrashReplica(0, oldIdx)
	inst.RunFor(500 * time.Millisecond)
	inst.RestartReplica(0, oldIdx)

	// The restarted member must not grab the lease inside its warmup.
	inst.RunFor(takeoverBound(opts) + time.Second)
	actives := 0
	for _, srv := range sh.Replicas {
		if !srv.Stopped() && srv.ActiveAuthority() {
			actives++
		}
	}
	if actives != 1 {
		t.Fatalf("%d active replicas after restart, want exactly 1", actives)
	}
	// And the cluster still serves. The takeover invalidated node 0's
	// registration, so the first attempts surface the transient ErrStale
	// the client hands applications to retry (see fault_test.go).
	h := openRetry(t, inst, 0, "/g")
	if errno := inst.Write(0, h, 0, block('x')); errno != msg.OK {
		t.Fatalf("write after restart: %v", errno)
	}
}

// openRetry opens path for writing on node i, retrying across the
// transient ErrStale a client surfaces while re-registering after an
// authority change.
func openRetry(t *testing.T, inst *cluster.Cluster, i int, path string) msg.Handle {
	t.Helper()
	for try := 0; ; try++ {
		var h msg.Handle
		errno := msg.ErrStale
		inst.Await(time.Minute, func(done func()) {
			inst.Clients[i].Open(path, true, true, func(gh msg.Handle, _ msg.Attr, e msg.Errno) {
				h, errno = gh, e
				done()
			})
		})
		if errno == msg.OK {
			return h
		}
		if errno != msg.ErrStale {
			t.Fatalf("open %s: %v", path, errno)
		}
		if try > 30 {
			t.Fatalf("open %s stale after 30 retries", path)
		}
		inst.RunFor(time.Second)
	}
}

// BenchmarkReplicaFailover measures the takeover window: sim time from
// SIGKILLing the active to a peer holding the authority lease. benchjson
// derives failover.takeover_ms from it and gates regressions.
func BenchmarkReplicaFailover(b *testing.B) {
	var total time.Duration
	for i := 0; i < b.N; i++ {
		opts := replicatedOptions(int64(100 + i))
		opts.NoChecker = true
		opts.ClockSkew = false // takeover_ms is scheduler time; see TestReplicatedTakeover
		inst := cluster.New(opts)
		inst.Start()
		sh := &inst.Shards[0]
		var oldIdx int
		for ri, srv := range sh.Replicas {
			if srv.ActiveAuthority() {
				oldIdx = ri
			}
		}
		inst.CrashReplica(0, oldIdx)
		crashedAt := inst.Sched.Now()
		inst.Sched.RunWhile(func() bool {
			return sh.Active() == nil && inst.Sched.Now().Sub(crashedAt) < time.Minute
		})
		if sh.Active() == nil {
			b.Fatal("no takeover")
		}
		total += inst.Sched.Now().Sub(crashedAt)
	}
	b.ReportMetric(float64(total.Milliseconds())/float64(b.N), "takeover_ms")
}
