package cluster

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/trace"
)

// A fence belongs to the lease authority that raised it (DESIGN §25): it
// stops the fenced client's I/O under that authority, and nothing one
// authority does — a steal, a registration — acts on what the client
// holds under another. Nor does a rejoin wait for, or race, anything at
// the disks: the registration it mints is above every fence its
// authority has raised.

// TestRegistrationSendsNothingToTheDisks: registering every client of a
// sharded installation raises no fence and sends no SAN message at all.
func TestRegistrationSendsNothingToTheDisks(t *testing.T) {
	ring := trace.NewRing(1 << 12)
	opts := twoShards()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()
	if n := ring.Events().Count(trace.ByType(trace.EvFence)); n != 0 {
		t.Errorf("%d fence events while clients registered", n)
	}
	if sent, _, _ := cl.SAN.Counts(); sent != 0 {
		t.Errorf("%d SAN messages while clients registered", sent)
	}
}

// syncSub flushes client i's instance for shard si alone.
func syncSub(cl *Cluster, i, si int) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Sub(si).Sync(func(e msg.Errno) { errno = e; done() })
	})
	return errno
}

// take has client 1 write 'Z' to block 0 of each path and sync, which
// waits out the steals from an unreachable holder, fences included.
func take(t *testing.T, cl *Cluster, paths ...string) {
	t.Helper()
	granted := 0
	for _, path := range paths {
		h, _ := cl.MustOpen(1, path, true, false)
		cl.Clients[1].Write(h, 0, block('Z'), func(errno msg.Errno) {
			if errno != msg.OK {
				t.Errorf("client 1 writing %s: %v", path, errno)
			}
			granted++
		})
	}
	deadline := cl.Sched.Now().Add(time.Minute)
	cl.Sched.RunWhile(func() bool { return granted < len(paths) && cl.Sched.Now().Before(deadline) })
	if errno := cl.Sync(1); errno != msg.OK {
		t.Fatalf("client 1 syncing %v: %v", paths, errno)
	}
	cl.RunFor(time.Second) // the fences' datagrams land
}

// onDisk returns block 0 of path as the disks hold it.
func onDisk(t *testing.T, cl *Cluster, si int, path string) []byte {
	t.Helper()
	in, errno := cl.Shards[si].Active().Store().Lookup(path)
	if errno != msg.OK || in.Map.Len() == 0 {
		t.Fatalf("lookup %s at shard %d: %v", path, si, errno)
	}
	ref := in.Map.At(0)
	for _, d := range cl.Disks {
		if d.ID() == ref.Disk {
			data, _, _ := d.PeekBlock(ref.Num)
			return data
		}
	}
	t.Fatalf("no disk %v", ref.Disk)
	return nil
}

// TestOneAuthoritysFenceLeavesAnothersDataAlone: authority 0 steals from
// node 0 and fences it. Node 0's lease with authority 1 is untouched, and
// so is what it writes under that lease: its authority-1 Sync reaches the
// disks.
func TestOneAuthoritysFenceLeavesAnothersDataAlone(t *testing.T) {
	cl := New(twoShards())
	cl.Start()
	var h [2]msg.Handle
	for si := range h {
		h[si], _ = cl.MustOpen(0, fmt.Sprintf("/s%d/f", si), true, true)
		if errno := cl.Write(0, h[si], 0, block('A')); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}

	cl.IsolatePair(0, 0)
	take(t, cl, "/s0/f")
	if ph := cl.LeasePhases(0); ph[1] != core.Phase1Valid && ph[1] != core.Phase2Renewal {
		t.Fatalf("setup: node 0's lease phases %v, want authority 1's valid", ph)
	}
	if errno := cl.Write(0, h[1], 1, block('C')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := syncSub(cl, 0, 1); errno != msg.OK {
		t.Fatalf("node 0's authority-1 Sync under a valid lease: %v", errno)
	}
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// lateFlush runs the slow-clock scenario both authorities' tests share.
// Node 0's clock runs at 0.55 of the others' rate, far outside ε. It
// dirties block 0 of /s1/f and is cut off from authority 0 first and
// from authority 1 half a lease later, so its authority-1 lease runs
// that far behind its authority-0 one. Authority 1 steals /s1/f for
// client 1, which writes 'Z' (and, with both, authority 0 steals /s0/f
// too). Node 0's authority-0 instance runs out its lease and rejoins
// authority 0 as soon as that link heals — while its authority-1
// instance, still inside its slow lease, has yet to flush. That late
// flush, at the epoch authority 1 fenced, must be refused. It returns
// the block as the disk holds it at the end.
func lateFlush(t *testing.T, both bool) []byte {
	t.Helper()
	opts := twoShards()
	opts.ClockSkew = false
	opts.ClientRates = []float64{0.55, 1}
	opts.ServerRate = 1
	tau := opts.Core.Tau
	cl := New(opts)
	cl.Start()
	var h [2]msg.Handle
	for si := range h {
		h[si], _ = cl.MustOpen(0, fmt.Sprintf("/s%d/f", si), true, true)
		if errno := cl.Write(0, h[si], 0, block('A')); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}

	// Each cut follows a request on the link, which renews its lease.
	if _, err := cl.SyncClient(0).Create("/s0/renew", false); err != nil {
		t.Fatal(err)
	}
	cl.IsolatePair(0, 0)
	cl.RunFor(tau / 2)
	if errno := cl.Write(0, h[1], 0, block('Y')); errno != msg.OK {
		t.Fatal(errno)
	}
	if _, err := cl.SyncClient(0).Create("/s1/renew", false); err != nil {
		t.Fatal(err)
	}
	cl.IsolatePair(0, 1)
	if both {
		take(t, cl, "/s0/f", "/s1/f")
	} else {
		take(t, cl, "/s1/f")
	}
	cl.Control.Unblock(ClientID(0), ServerID(0))

	deadline := cl.Sched.Now().Add(tau)
	cl.Sched.RunWhile(func() bool {
		return cl.LeasePhases(0)[0] != core.Phase1Valid && cl.Sched.Now().Before(deadline)
	})
	if ph := cl.LeasePhases(0); ph[0] != core.Phase1Valid || ph[1] == core.PhaseExpired || ph[1] == core.PhaseNone {
		t.Fatalf("setup: node 0's lease phases %v once it rejoined authority 0, want authority 1's still running", ph)
	}
	if n := cl.Clients[0].Sub(1).Cache().TotalDirty(); n == 0 {
		t.Fatal("setup: node 0's authority-1 instance flushed before authority 0's rejoin")
	}
	cl.RunFor(2 * tau) // the slow instance flushes, and runs out its lease
	if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.fenced_io", ClientID(0))); n == 0 {
		t.Error("node 0's late flush was never refused: it did not reach a disk")
	}
	// Client 1's write overlaps node 0's exclusive window, which node 0's
	// clock stretches past the steal: a clock outside ε makes that
	// conflict by construction, and the fence exists for what comes of
	// it. Nothing else may show: no read of stale data, no acknowledged
	// write lost.
	for _, v := range cl.FinalCheck() {
		if v.Kind != checker.ConcurrentConflict {
			t.Errorf("violation: %v", v)
		}
	}
	return onDisk(t, cl, 1, "/s1/f")
}

// TestRejoinWithOneAuthorityLeavesAnothersFenceUp: both authorities
// steal from node 0 and fence it; node 0 then rejoins authority 0 alone.
// Its authority-1 I/O, at the epoch authority 1 fenced, is still refused.
func TestRejoinWithOneAuthorityLeavesAnothersFenceUp(t *testing.T) {
	if got := lateFlush(t, true); !bytes.Equal(got, block('Z')) {
		t.Fatalf("block 0 of /s1/f holds %q after node 0 rejoined authority 0: "+
			"its late authority-1 flush got past authority 1's fence", got[:1])
	}
}

// TestSlowInstanceLateFlushRefusedAfterAnotherAuthoritysRejoin:
// authority 1 alone steals and fences. Node 0's registration with
// authority 0, which never fenced it, does not let its slow authority-1
// instance's late flush through.
func TestSlowInstanceLateFlushRefusedAfterAnotherAuthoritysRejoin(t *testing.T) {
	if got := lateFlush(t, false); !bytes.Equal(got, block('Z')) {
		t.Fatalf("block 0 of /s1/f holds %q: the slow instance's late flush reached the disk", got[:1])
	}
}

// rejoinFenced has client 0 — stolen from and fenced, then isolated
// until its lease ran out — rejoin, while the authority's SAN datagrams
// are held back (blocked, so that they arrive only as retransmissions
// once hold ends); it then writes and syncs, and must not be fenced.
func rejoinFenced(t *testing.T, cl *Cluster, servers []msg.NodeID) {
	t.Helper()
	for _, s := range servers {
		for _, d := range cl.Disks {
			cl.SAN.BlockDir(s, d.ID())
		}
	}
	fenced := cl.Reg.CounterValue(fmt.Sprintf("client.%v.fenced_io", ClientID(0)))
	cl.HealControl()
	// The client rejoins, and the authority's grace window, if it has
	// one, runs out.
	cl.RunFor(cl.Opts.Core.StealDelay())
	deadline := cl.Sched.Now().Add(time.Minute)
	cl.Sched.RunWhile(func() bool {
		return cl.LeasePhases(0)[0] != core.Phase1Valid && cl.Sched.Now().Before(deadline)
	})
	h, _ := cl.MustOpen(0, "/f", true, false)
	if errno := cl.Write(0, h, 1, block('R')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("the rejoined client's Sync: %v", errno)
	}
	if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.fenced_io", ClientID(0))); n != fenced {
		t.Fatalf("%d SAN requests of the rejoined client refused", n-fenced)
	}
	for _, s := range servers {
		for _, d := range cl.Disks {
			cl.SAN.UnblockDir(s, d.ID())
		}
	}
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// stealAndFence has client 1 take /f from client 0, cut off from the
// control network, so that the authority steals and fences it.
func stealAndFence(t *testing.T, cl *Cluster) {
	t.Helper()
	h, _ := cl.MustOpen(0, "/f", true, true)
	if errno := cl.Write(0, h, 0, block('A')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.IsolateClient(0)
	take(t, cl, "/f")
}

// TestRejoinAfterServerRestartIsNotFenced: the server that fenced client
// 0 restarts, and client 0 rejoins it. The restarted server remembers
// no fence of its own, and its datagrams to the disks are held up; the
// client's first SAN requests after the rejoin are admitted all the same.
func TestRejoinAfterServerRestartIsNotFenced(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	stealAndFence(t, cl)
	cl.CrashServer(0)
	cl.RestartServer(0)
	rejoinFenced(t, cl, []msg.NodeID{ServerID(0)})
}

// TestRejoinAfterReplicaTakeoverIsNotFenced is the restart test across a
// takeover: the active replica that fenced client 0 crashes, and client 0
// rejoins its successor.
func TestRejoinAfterReplicaTakeoverIsNotFenced(t *testing.T) {
	opts := DefaultOptions()
	opts.Replicas = 3
	cl := New(opts)
	cl.Start()
	stealAndFence(t, cl)
	sh := &cl.Shards[0]
	for ri, srv := range sh.Replicas {
		if srv.ActiveAuthority() {
			cl.CrashReplica(0, ri)
		}
	}
	deadline := cl.Sched.Now().Add(time.Minute)
	cl.Sched.RunWhile(func() bool { return sh.Active() == nil && cl.Sched.Now().Before(deadline) })
	rejoinFenced(t, cl, sh.Group)
}
