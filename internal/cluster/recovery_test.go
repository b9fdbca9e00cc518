package cluster

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/msg"
)

// Tests for §6 server recovery: the metadata store survives on the
// server's private storage; lock state is rebuilt by client-driven
// reassertion during a grace window.

func TestServerRestartReassertionPreservesCache(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/persist", true, true)
	if errno := cl.Write(0, h0, 0, block('A')); errno != msg.OK {
		t.Fatal(errno)
	}
	// Dirty page in cache, exclusive lock held.
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 1 {
		t.Fatal("setup: no dirty page")
	}
	epochBefore := cl.Clients[0].Sub(0).Epoch()

	cl.CrashServer(0)
	cl.RunFor(time.Second)
	cl.RestartServer(0)
	graceEnds := cl.Sched.Now().Add(opts.Core.StealDelay())

	// The client's next ordinary request is NACKed (unknown epoch at the
	// restarted server) and triggers reassertion.
	recovered := false
	cl.Clients[0].Sub(0).OnRecovered = func(msg.Epoch) { recovered = true }
	probe(cl, 0)
	deadline := cl.Sched.Now().Add(5 * time.Second)
	cl.Sched.RunWhile(func() bool { return !recovered && !cl.Sched.Now().After(deadline) })
	if !recovered {
		t.Fatalf("client did not reassert (phase %v)", cl.Clients[0].Sub(0).Lease().Phase())
	}

	// THE point of reassertion: cache, dirty data, handles, and locks all
	// survived the server failure.
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 1 {
		t.Fatal("dirty cache lost across server restart")
	}
	if cl.Clients[0].Sub(0).Epoch() <= epochBefore {
		t.Fatal("epoch did not advance")
	}
	if cl.Shards[0].Server.Locks().Held(ClientID(0), inoOf(t, cl, "/persist")) != msg.LockExclusive {
		t.Fatal("lock not reinstalled at the restarted server")
	}
	// The old handle still works, and a write the file has room for
	// proceeds immediately (the reasserted lock needs no re-acquire).
	before := cl.Sched.Now()
	if errno := cl.Write(0, h0, 0, block('B')); errno != msg.OK {
		t.Fatalf("post-restart write: %v", errno)
	}
	if waited := cl.Sched.Now().Sub(before); waited != 0 {
		t.Fatalf("a write under the reasserted lock waited %v", waited)
	}
	// One that extends the file is the cost of caching names: an allocation
	// moves attributes that the parent directory's lock covers, nobody knows
	// who held that lock before the restart, and so the change waits —
	// like a new acquire, and like a create (TestNamesGraceDefersMutations)
	// — until every lease from before the restart has been reasserted or
	// has lapsed: to the end of the grace window, τ(1+ε) after the restart
	// at the most, and not a retry interval longer.
	if errno := cl.Write(0, h0, 1, block('C')); errno != msg.OK {
		t.Fatalf("post-restart extending write: %v", errno)
	}
	switch now := cl.Sched.Now(); {
	case now.Before(graceEnds):
		t.Fatalf("the file's attributes moved %v inside the grace window", graceEnds.Sub(now))
	case now.Sub(graceEnds) > opts.Core.RetryInterval:
		t.Fatalf("the extending write waited %v past the grace window", now.Sub(graceEnds))
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}

	// After the grace window, other clients can take locks as usual.
	cl.RunFor(opts.Core.StealDelay() + time.Second)
	h1, _ := cl.MustOpen(1, "/persist", false, false)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('B')) {
		t.Fatalf("cross-client read after recovery: %v", errno)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestServerRestartWithoutReassertionLosesCache(t *testing.T) {
	opts := DefaultOptions()
	opts.DisableReassert = true
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/persist", true, true)
	mustWrite(t, cl, 0, h0, 0, block('A'))
	cl.CrashServer(0)
	cl.RunFor(time.Second)
	cl.RestartServer(0)

	// Trigger the NACK; without reassertion the client must walk the full
	// lease recovery: quiesce, flush (the SAN is fine), expire, rejoin.
	probe(cl, 0)
	cl.RunFor(opts.Core.Tau + 2*time.Second)
	if !cl.Clients[0].Registered() {
		t.Fatalf("client did not rejoin (phase %v)", cl.Clients[0].Sub(0).Lease().Phase())
	}
	if cl.Clients[0].Sub(0).Cache().Len() != 0 {
		t.Fatal("cache survived although reassertion was disabled")
	}
	// Crucially, still no lost update: the phase-4 flush saved the dirty
	// data even on the slow path.
	cl.RunFor(opts.Core.StealDelay())
	h1, _ := cl.MustOpen(1, "/persist", false, false)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('A')) {
		t.Fatalf("data lost on non-reassert recovery: %v", errno)
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestReassertRefusedAfterGrace(t *testing.T) {
	opts := DefaultOptions()
	opts.GracePeriod = time.Second // unrealistically short, for the test
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/late", true, true)
	mustWrite(t, cl, 0, h0, 0, block('L'))
	// Let any traffic still in flight drain so the client is genuinely
	// silent when the server goes down. (The write owes its size, but only
	// a settle point would send it.)
	cl.RunFor(2 * time.Second)
	cl.CrashServer(0)
	cl.RunFor(time.Second)
	cl.RestartServer(0)
	// The client's first contact is its phase-2 keep-alive, which lands
	// well after the 1s grace window: the reassert is refused and the
	// client must fall back to full recovery.
	cl.RunFor(opts.Core.Tau + 4*time.Second)
	if !cl.Clients[0].Registered() {
		t.Fatal("client never recovered")
	}
	if cl.Clients[0].Sub(0).Cache().Len() != 0 {
		t.Fatal("cache survived a refused reassertion")
	}
}

func TestNewAcquiresDeferredDuringGrace(t *testing.T) {
	opts := DefaultOptions()
	opts.GracePeriod = 5 * time.Second
	cl := New(opts)
	cl.Start()
	// Client 0 holds the lock before the crash but never reasserts (it
	// stays silent): its lease protects the lock for τ.
	h0, _ := cl.MustOpen(0, "/contest", true, true)
	mustWrite(t, cl, 0, h0, 0, block('X'))

	cl.CrashServer(0)
	cl.RunFor(500 * time.Millisecond)
	cl.RestartServer(0)
	restart := cl.Sched.Now()

	// Client 1 re-registers (NACK → reassert with no claims → revive) and
	// then asks for the contested lock: the grant must wait out the grace
	// window, because client 0's lease may still cover it.
	probe(cl, 1)
	cl.RunFor(time.Second) // let the (empty) reassertion complete
	h1, _, errno := cl.Open(1, "/contest", true, false)
	if errno != msg.OK {
		t.Fatalf("open: %v", errno)
	}
	granted := false
	var grantAt time.Duration
	cl.Clients[1].Write(h1, 0, block('Y'), func(e msg.Errno) {
		granted = true
		grantAt = cl.Sched.Now().Sub(restart)
	})
	deadline := cl.Sched.Now().Add(30 * time.Second)
	cl.Sched.RunWhile(func() bool { return !granted && !cl.Sched.Now().After(deadline) })
	if !granted {
		t.Fatal("acquire never completed")
	}
	if grantAt < opts.GracePeriod {
		t.Fatalf("new acquire granted %v after restart, inside the %v grace window", grantAt, opts.GracePeriod)
	}
}

func inoOf(t *testing.T, cl *Cluster, path string) msg.ObjectID {
	t.Helper()
	return inode(t, cl, path).Ino
}

func mustWrite(t *testing.T, cl *Cluster, i int, h msg.Handle, idx uint64, data []byte) {
	t.Helper()
	if errno := cl.Write(i, h, idx, data); errno != msg.OK {
		t.Fatalf("write: %v", errno)
	}
}

// TestLateRejoinAckIsReissued: a client cut off for longer than its
// Rejoin can stay fresh (the request keeps its first send time through
// every retransmission, and a renewal dates from that send) must not come
// back registered without a lease. The ACK that finally arrives grants a
// lease that is already over; the client asks again and gets a live one.
func TestLateRejoinAckIsReissued(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()
	tau := opts.Core.Tau

	cl.IsolateClient(0)
	cl.RunFor(4 * tau) // lease runs out, the rejoin starts retransmitting into the partition
	cl.HealControl()
	cl.RunFor(2 * tau)

	c := cl.Clients[0].Sub(0)
	if !c.Registered() || !c.Lease().Valid() {
		t.Fatalf("stranded after heal: registered=%v lease phase %v", c.Registered(), c.Lease().Phase())
	}
	if _, _, errno := cl.Open(0, "/after-heal", true, true); errno != msg.OK {
		t.Fatalf("open after heal: %v", errno)
	}
	if v := cl.FinalCheck(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
