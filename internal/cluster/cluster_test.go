package cluster

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/trace"
)

// probe sends one ordinary request from client i to the server and waits
// for the answer: a lookup of a name nobody has asked about before, which
// the name cache cannot answer.
func probe(cl *Cluster, i int) {
	probes++
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Lookup(fmt.Sprintf("/probe-%d", probes), func(msg.Attr, msg.Errno) { done() })
	})
}

var probes int

func block(fill byte) []byte {
	b := make([]byte, 4096)
	for i := range b {
		b[i] = fill
	}
	return b
}

func TestStartRegistersAllClients(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	for i, c := range cl.Clients {
		if !c.Registered() || c.Sub(0).Epoch() == 0 {
			t.Fatalf("client %d not registered (epoch %d)", i, c.Sub(0).Epoch())
		}
		if !cl.Shards[0].Server.Registered(ClientID(i)) {
			t.Fatalf("server does not know client %d", i)
		}
	}
	if cl.Clients[0].Sub(0).Lease().Phase() != core.Phase1Valid {
		t.Fatalf("lease phase = %v after registration", cl.Clients[0].Sub(0).Lease().Phase())
	}
}

func TestWriteSyncReadAcrossClients(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h0, _ := cl.MustOpen(0, "/file1", true, true)
	if errno := cl.Write(0, h0, 0, block('A')); errno != msg.OK {
		t.Fatalf("write: %v", errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatalf("sync: %v", errno)
	}
	// Client 1 reads: triggers a demand that downgrades client 0 to
	// shared; data must match.
	h1, attr := cl.MustOpen(1, "/file1", false, false)
	if attr.Size != 4096 {
		t.Fatalf("size = %d, want 4096", attr.Size)
	}
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('A')) {
		t.Fatalf("read: %v, data[0]=%q", errno, data[:1])
	}
	cl.RunFor(time.Second)
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestDemandFlushesDirtyData(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	// Write WITHOUT sync: data lives only in client 0's cache.
	if errno := cl.Write(0, h0, 0, block('D')); errno != msg.OK {
		t.Fatalf("write: %v", errno)
	}
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 1 {
		t.Fatal("no dirty page in cache")
	}
	// Reader on client 1 forces the demand; the flush must happen before
	// the shared grant, so the read sees the dirty data.
	h1, _ := cl.MustOpen(1, "/f", false, false)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('D')) {
		t.Fatalf("read after demand: %v", errno)
	}
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 0 {
		t.Fatal("dirty data survived the demand")
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestExclusiveWriterHandoff(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	cl.Write(0, h0, 0, block('1'))
	h1, _ := cl.MustOpen(1, "/f", true, false)
	// Client 1 writes the same block: full revoke of client 0.
	if errno := cl.Write(1, h1, 0, block('2')); errno != msg.OK {
		t.Fatalf("write 2: %v", errno)
	}
	cl.Sync(1)
	// Client 0 reads it back (re-acquiring a lock).
	data, errno := cl.Read(0, h0, 0)
	if errno != msg.OK || !bytes.Equal(data, block('2')) {
		t.Fatalf("read-back: %v, got %q", errno, data[:1])
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestNormalOperationHasZeroLeaseOverhead(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()
	// Active clients: an op roughly every second for 6 lease periods.
	h := make([]msg.Handle, len(cl.Clients))
	for i := range cl.Clients {
		h[i], _ = cl.MustOpen(i, fmt.Sprintf("/wf%d", i), true, true)
	}
	for round := 0; round < 60; round++ {
		for i := range cl.Clients {
			if errno := cl.Write(i, h[i], uint64(round%4), block(byte(round))); errno != msg.OK {
				t.Fatalf("round %d client %d: %v", round, i, errno)
			}
			// An ordinary metadata message each round: the paper's model
			// of an active client, whose lock/metadata traffic renews the
			// lease opportunistically ("the frequency of lock and
			// metadata messages is much higher than the lease interval").
			probe(cl, i)
		}
		cl.RunFor(time.Second)
	}
	// The paper's headline: zero keep-alives, zero lease ops and memory
	// at the server, no NACKs, no expiries.
	if n := cl.Reg.CounterValue("net.control.sent.keepalive"); n != 0 {
		t.Fatalf("active clients sent %d keep-alives", n)
	}
	if n := cl.Reg.CounterValue("server.authority.ops"); n != 0 {
		t.Fatalf("authority performed %d ops", n)
	}
	if b := cl.Shards[0].Server.Authority().StateBytes(); b != 0 {
		t.Fatalf("authority holds %d bytes", b)
	}
	if n := cl.Reg.CounterValue("server.nacks_sent"); n != 0 {
		t.Fatalf("server sent %d NACKs", n)
	}
	for i := range cl.Clients {
		if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.expiries", ClientID(i))); n != 0 {
			t.Fatalf("client %d lease expired %d times", i, n)
		}
	}
}

func TestIdleClientPreservesCacheWithKeepAlives(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	cl.Write(0, h0, 0, block('K'))
	cl.Sync(0)
	// Then: total silence for 5 lease periods. The keep-alive machinery
	// must hold the lease; the cache must survive.
	cl.RunFor(50 * time.Second)
	c := cl.Clients[0].Sub(0)
	if !c.Lease().Valid() {
		t.Fatalf("idle client lost its lease (phase %v)", c.Lease().Phase())
	}
	if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.keepalives", ClientID(0))); n == 0 {
		t.Fatal("idle client sent no keep-alives")
	}
	if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.expiries", ClientID(0))); n != 0 {
		t.Fatal("idle client's lease expired")
	}
	if c.Cache().Object(0) == nil && c.Cache().Len() == 0 {
		t.Fatal("cache was dropped")
	}
}

// TestIsolatedClientLeaseRecovery is the paper's central scenario (Fig 2 +
// §3): a client holding an exclusive lock with dirty data is isolated on
// the control network. The protocol must (1) eventually grant the lock to
// another client, (2) get the dirty data to disk first (phase 4), and
// (3) produce zero consistency violations.
func TestIsolatedClientLeaseRecovery(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/shared", true, true)
	if errno := cl.Write(0, h0, 0, block('X')); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.Sync(0)
	// Re-dirty the block: v2 lives only in client 0's cache.
	if errno := cl.Write(0, h0, 0, block('Y')); errno != msg.OK {
		t.Fatal(errno)
	}
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 1 {
		t.Fatal("setup: no dirty data")
	}

	cl.IsolateClient(0)

	// Client 1 wants to write the same file. Under honor-locks this would
	// hang forever; under the lease protocol it completes after roughly
	// demand-retries + τ(1+ε).
	start := cl.Sched.Now()
	h1, _, errno := cl.Open(1, "/shared", true, false)
	if errno != msg.OK {
		t.Fatalf("open on survivor: %v", errno)
	}
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatalf("survivor write: %v", errno)
	}
	waited := cl.Sched.Now().Sub(start)
	tau := opts.Core.Tau
	if waited < tau {
		t.Fatalf("lock granted after %v — before the lease could expire (τ=%v)", waited, tau)
	}
	if waited > 2*tau {
		t.Fatalf("lock granted after %v — far beyond τ(1+ε)", waited)
	}

	// The survivor must read its own Z, and the isolated client's Y must
	// have reached disk before the steal (phase-4 flush): check the
	// version history shows no lost update and no stale read.
	cl.Sync(1)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('Z')) {
		t.Fatalf("survivor read: %v", errno)
	}

	// Isolated client: quiesced, flushed, expired, and now recovering.
	c0 := cl.Clients[0].Sub(0)
	if c0.Lease().Valid() {
		t.Fatal("isolated client still believes its lease is valid")
	}
	if c0.Cache().TotalDirty() != 0 {
		t.Fatal("dirty data stranded in the isolated client")
	}
	if n := cl.Reg.CounterValue(fmt.Sprintf("client.%v.lease.dirty_at_expiry", ClientID(0))); n != 0 {
		t.Fatal("phase-4 flush did not complete before expiry")
	}

	// Heal: the isolated client rejoins with a fresh epoch and can work
	// again.
	cl.HealControl()
	cl.Await(time.Minute, func(done func()) {
		prev := c0.OnRecovered
		c0.OnRecovered = func(e msg.Epoch) {
			if prev != nil {
				prev(e)
			}
			done()
		}
	})
	if !c0.Registered() {
		t.Fatal("isolated client did not rejoin after heal")
	}
	hA, _, errno := cl.Open(0, "/shared", false, false)
	if errno != msg.OK {
		t.Fatalf("post-rejoin open: %v", errno)
	}
	data, errno = cl.Read(0, hA, 0)
	if errno != msg.OK || !bytes.Equal(data, block('Z')) {
		t.Fatalf("post-rejoin read: %v (must see survivor's data)", errno)
	}

	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under the lease protocol: %v", got)
	}
}

// TestFenceOnlyViolatesConsistency reproduces §2.1: with fencing as the
// only recovery mechanism, the isolated client serves stale cache data
// and its dirty data is stranded.
func TestFenceOnlyViolatesConsistency(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.FenceOnly()
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/shared", true, true)
	cl.Write(0, h0, 0, block('X'))
	// Also commit a second block, then re-dirty it: this is the stranded
	// update.
	cl.Write(0, h0, 1, block('P'))
	cl.Sync(0)
	cl.Write(0, h0, 1, block('Q')) // dirty, stranded forever

	cl.IsolateClient(0)

	// Survivor takes the lock by fencing+stealing within ~1s.
	h1, _, errno := cl.Open(1, "/shared", true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.Sync(1)

	// The fenced client is unaware (§2.1): local processes keep reading
	// the stale cache.
	data, errno := cl.Read(0, h0, 0)
	if errno != msg.OK || !bytes.Equal(data, block('X')) {
		t.Fatalf("fenced client read: %v (expected stale X from cache)", errno)
	}

	if n := cl.Checkers[0].Count(checker.StaleRead); n == 0 {
		t.Fatal("no stale read detected — fencing-only should violate coherency")
	}
	cl.FinalCheck()
	if n := cl.Checkers[0].Count(checker.LostUpdate); n == 0 {
		t.Fatal("no lost update detected — dirty data should be stranded")
	}
}

// TestNaiveStealViolatesConsistency reproduces §1.2: stealing without
// fencing or leases lets two writers act concurrently.
func TestNaiveStealViolatesConsistency(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.NaiveSteal()
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/shared", true, true)
	cl.Write(0, h0, 0, block('X'))
	cl.Sync(0)
	cl.IsolateClient(0)

	h1, _, errno := cl.Open(1, "/shared", true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatal(errno)
	}
	// The isolated client still believes it holds exclusive and keeps
	// writing — directly to the SAN, which never failed.
	if errno := cl.Write(0, h0, 0, block('W')); errno != msg.OK {
		t.Fatalf("isolated client write refused: %v", errno)
	}
	cl.Sync(0) // and its flush reaches the disk: no fence stops it
	cl.Sync(1)

	if n := cl.Checkers[0].Count(checker.ConcurrentConflict); n == 0 {
		t.Fatal("no concurrent-conflict detected under naive steal")
	}
}

// TestHonorLocksUnavailableUntilHeal reproduces §2's availability
// problem: without stealing, the survivor waits for the partition.
func TestHonorLocksUnavailableUntilHeal(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.HonorLocks()
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/shared", true, true)
	cl.Write(0, h0, 0, block('X'))
	cl.IsolateClient(0)

	h1, _, errno := cl.Open(1, "/shared", true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	granted := false
	cl.Clients[1].Write(h1, 0, block('Z'), func(e msg.Errno) { granted = true })
	// Run well past τ(1+ε): still nothing.
	cl.RunFor(3 * opts.Core.Tau)
	if granted {
		t.Fatal("honor-locks granted a stolen lock")
	}
	// Heal: the demand finally reaches the holder, which complies.
	cl.HealControl()
	cl.Sched.RunWhile(func() bool { return !granted })
	if !granted {
		t.Fatal("write never completed after heal")
	}
	// Quiesce before the final audit: FinalCheck treats any acked write
	// still sitting dirty in a healthy cache as lost, so flush first.
	cl.Sync(0)
	cl.Sync(1)
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under honor-locks: %v", got)
	}
}

func TestCrashedClientRecovery(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	cl.Write(0, h0, 0, block('X'))
	cl.CrashClient(0)

	// Survivor acquires after the lease timeout; the crashed client's
	// dirty data is legitimately gone (no lost-update charge).
	h1, _, errno := cl.Open(1, "/f", true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	start := cl.Sched.Now()
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatal(errno)
	}
	if waited := cl.Sched.Now().Sub(start); waited < opts.Core.Tau {
		t.Fatalf("granted after %v, before timeout", waited)
	}
	cl.Sync(1)
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations after crash recovery: %v", got)
	}
}

func TestHeartbeatPolicyWorksAndRecovers(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.Frangipani()
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	cl.Write(0, h0, 0, block('H'))
	cl.Sync(0)
	cl.RunFor(20 * time.Second)
	// Heartbeats flowed even though the client was also active.
	if n := cl.Reg.CounterValue("net.control.sent.lease-admin"); n == 0 {
		t.Fatal("no heartbeats sent")
	}
	if cl.Reg.Gauge("server.lease_state_bytes").Value() == 0 {
		t.Fatal("heartbeat server holds no lease state — should always hold some")
	}
	// Isolate and let the survivor take over after the heartbeat TTL.
	cl.IsolateClient(0)
	h1, _, errno := cl.Open(1, "/f", true, false)
	if errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatalf("survivor write: %v", errno)
	}
	cl.Sync(1)
	cl.FinalCheck()
	// Heartbeat leases are also safe (client stops at TTL; steal waits
	// longer) — the difference vs the paper is the standing cost, not
	// correctness.
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under heartbeat policy: %v", got)
	}
}

func TestVLeasePolicyRenewsPerObject(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.VSystem()
	cl := New(opts)
	cl.Start()
	// Cache several objects, then idle: per-object renewals must flow and
	// scale with the number of cached objects.
	for i := 0; i < 5; i++ {
		h, _ := cl.MustOpen(0, fmt.Sprintf("/f%d", i), true, true)
		cl.Write(0, h, 0, block(byte('a'+i)))
	}
	cl.Sync(0)
	cl.RunFor(30 * time.Second)
	if n := cl.Reg.CounterValue("server.lease_ops"); n == 0 {
		t.Fatal("V server performed no per-object lease work")
	}
	if cl.Reg.Gauge("server.lease_state_bytes").Max() == 0 {
		t.Fatal("V server held no per-object lease state")
	}
	if n := cl.Reg.CounterValue("net.control.sent.lease-admin"); n == 0 {
		t.Fatal("no RenewObjects messages sent")
	}
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations under V leases: %v", got)
	}
}

func TestFunctionShipDataPath(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.FunctionShip()
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	if errno := cl.Write(0, h0, 0, block('F')); errno != msg.OK {
		t.Fatalf("write: %v", errno)
	}
	h1, _ := cl.MustOpen(1, "/f", false, false)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('F')) {
		t.Fatalf("read: %v", errno)
	}
	// File data moved through the server.
	if n := cl.Reg.CounterValue("server.data_bytes"); n < 8192 {
		t.Fatalf("server.data_bytes = %d, want >= 8192", n)
	}
}

func TestNFSPollPolicy(t *testing.T) {
	opts := DefaultOptions()
	opts.Policy = baselines.NFSPoll()
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	cl.Write(0, h0, 0, block('1'))
	h1, _ := cl.MustOpen(1, "/f", false, false)
	data, errno := cl.Read(1, h1, 0)
	if errno != msg.OK || !bytes.Equal(data, block('1')) {
		t.Fatalf("first read: %v", errno)
	}
	// Immediately after, client 0 rewrites; client 1's attr cache is
	// fresh so it serves the stale page — NFS weak consistency.
	cl.Write(0, h0, 0, block('2'))
	data, _ = cl.Read(1, h1, 0)
	if !bytes.Equal(data, block('1')) {
		t.Fatal("expected stale cached page within attribute TTL")
	}
	// After the attribute TTL the poll notices the new version.
	cl.RunFor(5 * time.Second)
	data, _ = cl.Read(1, h1, 0)
	if !bytes.Equal(data, block('2')) {
		t.Fatal("attribute poll did not refresh the cache")
	}
}

func TestStaleEpochNACKed(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	// Forge a message with a stale epoch directly.
	nacked := false
	cl.Control.Attach(ClientID(0), func(env msg.Envelope) {
		if r, ok := env.Payload.(*msg.Reply); ok && r.Status == msg.NACK {
			nacked = true
		}
	})
	cl.Control.Send(ClientID(0), ServerID(0), &msg.GetAttr{
		ReqHeader: msg.ReqHeader{Client: ClientID(0), Req: 9999, Epoch: 999},
		Ino:       1,
	})
	cl.RunFor(time.Second)
	if !nacked {
		t.Fatal("stale epoch was not NACKed")
	}
}

func TestDeterministicRuns(t *testing.T) {
	run := func() (uint64, uint64) {
		opts := DefaultOptions()
		cl := New(opts)
		cl.Start()
		h0, _ := cl.MustOpen(0, "/f", true, true)
		cl.Write(0, h0, 0, block('A'))
		cl.IsolateClient(0)
		h1, _, _ := cl.Open(1, "/f", true, false)
		cl.Write(1, h1, 0, block('B'))
		cl.HealControl()
		cl.RunFor(30 * time.Second)
		sent, _, _ := cl.Control.Counts()
		return sent, cl.Sched.Fired()
	}
	s1, f1 := run()
	s2, f2 := run()
	if s1 != s2 || f1 != f2 {
		t.Fatalf("non-deterministic: msgs %d vs %d, events %d vs %d", s1, s2, f1, f2)
	}

	// The cancel path replays as well: client 0 loses the SAN with two
	// block reads in flight and then the control network with two lookups
	// in flight, and its lease expires with all four. Two runs trace the
	// same events in the same order.
	cancelled := func() (sum [sha256.Size]byte) {
		h := sha256.New()
		opts := DefaultOptions()
		expired := 0
		opts.Tracer = trace.New(trace.NewJSONL(h), trace.SinkFunc(func(e trace.Event) {
			if e.Type == trace.EvExpire && e.Node == ClientID(0) {
				expired++
			}
		}))
		cl := New(opts)
		cl.Start()
		hw, _ := cl.MustOpen(1, "/g", true, true)
		for b := uint64(0); b < 2; b++ {
			cl.Write(1, hw, b, block('G'))
		}
		cl.Sync(1)
		hr, _ := cl.MustOpen(0, "/g", false, false)
		stale := 0
		cl.SAN.Isolate(ClientID(0))
		for b := uint64(0); b < 2; b++ {
			cl.Clients[0].Read(hr, b, func(_ []byte, e msg.Errno) {
				if e == msg.ErrStale {
					stale++
				}
			})
		}
		cl.RunFor(time.Second)
		cl.IsolateClient(0)
		for _, p := range []string{"/a", "/b"} {
			cl.Clients[0].Lookup(p, func(_ msg.Attr, e msg.Errno) {
				if e == msg.ErrStale {
					stale++
				}
			})
		}
		cl.RunFor(3 * opts.Core.Tau)
		if stale != 4 || expired != 1 {
			t.Fatalf("%d operations ended with %d expiries, want the 2 reads and 2 lookups in flight at one",
				stale, expired)
		}
		h.Sum(sum[:0])
		return sum
	}
	if d1, d2 := cancelled(), cancelled(); d1 != d2 {
		t.Fatalf("non-deterministic cancellation: trace digests %x vs %x", d1[:8], d2[:8])
	}
}
