package shard_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/shard"
)

func block(b byte) []byte {
	buf := make([]byte, 4096)
	for i := range buf {
		buf[i] = b
	}
	return buf
}

// shardOptions is the installation these tests start from: two shards
// with a disk each, two clients, skewed clocks.
func shardOptions() cluster.Options {
	opts := cluster.DefaultOptions()
	opts.Shards, opts.Clients, opts.Disks = 2, 2, 1
	return opts
}

// subtreeOptions splits the namespace by subtree — /s0 on shard 0, /s1
// on shard 1 — so a test can aim an operation at a specific authority
// by path. (DefaultOptions uses Hash, which is total: good for routing
// transparency, useless for aiming.)
func subtreeOptions() cluster.Options {
	opts := shardOptions()
	opts.Placement = shard.Subtree{Prefixes: map[string]int{"/s0": 0, "/s1": 1}}
	return opts
}

func TestRoutingAcrossShards(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()

	// One file per shard, written by node 0, read by node 1.
	h0, _ := inst.MustOpen(0, "/s0/a.txt", true, true)
	h1, _ := inst.MustOpen(0, "/s1/b.txt", true, true)
	if errno := inst.Write(0, h0, 0, block('A')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := inst.Write(0, h1, 0, block('B')); errno != msg.OK {
		t.Fatal(errno)
	}
	inst.Sync(0)

	r0, _ := inst.MustOpen(1, "/s0/a.txt", false, false)
	r1, _ := inst.MustOpen(1, "/s1/b.txt", false, false)
	if data, errno := inst.Read(1, r0, 0); errno != msg.OK || !bytes.Equal(data, block('A')) {
		t.Fatalf("shard 0 read: %v", errno)
	}
	if data, errno := inst.Read(1, r1, 0); errno != msg.OK || !bytes.Equal(data, block('B')) {
		t.Fatalf("shard 1 read: %v", errno)
	}
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestHashRoutingTransparent drives the default (hash) placement: the
// caller never names a shard, yet every path lands on some authority
// and reads back intact from another node.
func TestHashRoutingTransparent(t *testing.T) {
	opts := shardOptions()
	opts.Shards = 4
	inst := cluster.New(opts)
	inst.Start()
	paths := []string{"/a", "/deep/nested/file", "/b.txt", "/x/y", "/zzz"}
	for i, p := range paths {
		h, _ := inst.MustOpen(0, p, true, true)
		if errno := inst.Write(0, h, 0, block(byte('0'+i))); errno != msg.OK {
			t.Fatalf("write %s: %v", p, errno)
		}
	}
	inst.Sync(0)
	for i, p := range paths {
		h, _ := inst.MustOpen(1, p, false, false)
		if data, errno := inst.Read(1, h, 0); errno != msg.OK || data[0] != byte('0'+i) {
			t.Fatalf("read %s: %v %q", p, errno, data[0])
		}
	}
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

func TestUnroutablePath(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	errno := msg.OK
	inst.Clients[0].Open("/nowhere/x", true, true, func(_ msg.Handle, _ msg.Attr, e msg.Errno) { errno = e })
	inst.RunFor(time.Second)
	if errno != msg.ErrNoEnt {
		t.Fatalf("unroutable open = %v, want ErrNoEnt", errno)
	}
	var rerr msg.Errno
	inst.Clients[0].Read(999, 0, func(_ []byte, e msg.Errno) { rerr = e })
	if rerr != msg.ErrBadHandle {
		t.Fatalf("bad node handle = %v", rerr)
	}
}

// TestPerPairLeaseIndependence is §4's granularity argument as a test: a
// failure between a client and ONE authority invalidates exactly the
// locks and cache held with that authority; the client's leases with
// other shards — and its service on them, and their pages in the
// node's one page store — continue untouched.
func TestPerPairLeaseIndependence(t *testing.T) {
	opts := subtreeOptions()
	inst := cluster.New(opts)
	inst.Start()
	tau := opts.Core.Tau

	// Clean shard-1 pages on node 0: written by node 1, read by node 0.
	const cleanBlocks = 4
	g, _ := inst.MustOpen(1, "/s1/g", true, true)
	for i := uint64(0); i < cleanBlocks; i++ {
		if errno := inst.Write(1, g, i, block(byte('g'+i))); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	inst.Sync(1)
	g0, _ := inst.MustOpen(0, "/s1/g", false, false)
	readG := func() {
		t.Helper()
		for i := uint64(0); i < cleanBlocks; i++ {
			if data, errno := inst.Read(0, g0, i); errno != msg.OK || !bytes.Equal(data, block(byte('g'+i))) {
				t.Fatalf("read /s1/g block %d: %v", i, errno)
			}
		}
	}
	readG()

	h0, _ := inst.MustOpen(0, "/s0/f", true, true)
	h1, _ := inst.MustOpen(0, "/s1/f", true, true)
	if errno := inst.Write(0, h0, 0, block('X')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := inst.Write(0, h1, 0, block('Y')); errno != msg.OK {
		t.Fatal(errno)
	}

	// Partition ONLY the link between node 0 and shard 0.
	inst.IsolatePair(0, 0)

	// The shard-1 lease must stay valid throughout; use it actively.
	for i := 0; i < 12; i++ {
		inst.RunFor(time.Second)
		if errno := inst.Write(0, h1, uint64(i%4), block(byte('a'+i))); errno != msg.OK {
			t.Fatalf("shard-1 write during shard-0 partition: %v", errno)
		}
	}
	phases := inst.LeasePhases(0)
	if phases[0] == core.Phase1Valid {
		t.Fatalf("shard-0 lease still valid after %v of partition", 12*time.Second)
	}
	if phases[1] != core.Phase1Valid {
		t.Fatalf("shard-1 lease disturbed: %v", phases[1])
	}
	// Shard 0's episode has ended, and its instance's objects are gone
	// from the node's store; shard 1's dirty and clean pages are not.
	if n := inst.Reg.CounterValue("client.n10.lease.expiries"); n == 0 {
		t.Fatal("shard-0 lease never expired")
	}
	if n := inst.Clients[0].Sub(0).Cache().Len(); n != 0 {
		t.Fatalf("shard 0's instance still caches %d objects after its lease expired", n)
	}
	if n := inst.Clients[0].Sub(1).Cache().TotalDirty(); n != 4 {
		t.Fatalf("shard 1's instance holds %d dirty pages after shard 0's expiry, want 4", n)
	}
	before := inst.Reg.CounterValue("net.san.sent.san-io")
	readG()
	if n := inst.Reg.CounterValue("net.san.sent.san-io") - before; n != 0 {
		t.Fatalf("re-reading shard 1's cached blocks sent %d SAN messages, want 0", n)
	}

	// Shard 0's lock is recoverable by the other node after τ(1+ε); the
	// partitioned sub flushed its dirty X in phase 4 first.
	w, _ := inst.MustOpen(1, "/s0/f", true, false)
	if errno := inst.Write(1, w, 0, block('Z')); errno != msg.OK {
		t.Fatalf("survivor write on shard 0: %v", errno)
	}
	inst.Sync(1)

	// Heal; the node's shard-0 sub rejoins; everything audits clean.
	inst.HealControl()
	inst.RunFor(2 * tau)
	inst.Sync(0)
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
	// Shard-1 cache was never invalidated (no recovery on that pair), and
	// no acknowledged write on either pair was lost.
	if n := inst.Reg.CounterValue("client.n10.dirty_discarded"); n != 0 {
		t.Fatalf("%d dirty pages discarded", n)
	}
}

func TestShardNamespacesAreDisjoint(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	// Same basename on both shards: distinct objects.
	a, _ := inst.MustOpen(0, "/s0/same", true, true)
	b, _ := inst.MustOpen(0, "/s1/same", true, true)
	inst.Write(0, a, 0, block('1'))
	inst.Write(0, b, 0, block('2'))
	inst.Sync(0)
	ra, _ := inst.MustOpen(1, "/s0/same", false, false)
	rb, _ := inst.MustOpen(1, "/s1/same", false, false)
	da, _ := inst.Read(1, ra, 0)
	db, _ := inst.Read(1, rb, 0)
	if da[0] != '1' || db[0] != '2' {
		t.Fatalf("cross-shard bleed: %q %q", da[0], db[0])
	}
}

// TestLocksHeldGauge: each authority exports server.<id>.locks_held —
// the per-shard load signal the flag surface (tankd SIGUSR1) dumps.
func TestLocksHeldGauge(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	h, _ := inst.MustOpen(0, "/s0/locked", true, true)
	if errno := inst.Write(0, h, 0, block('L')); errno != msg.OK {
		t.Fatal(errno)
	}
	// The file's data lock, and the locks of the two directories on its
	// path, which came with the replies to the open's lookup and create.
	if v := inst.Reg.Gauge("server.n1.locks_held").Value(); v != 3 {
		t.Fatalf("shard 0 locks_held = %d, want 3", v)
	}
	if v := inst.Reg.Gauge("server.n2.locks_held").Value(); v != 0 {
		t.Fatalf("shard 1 locks_held = %d, want 0", v)
	}
}
