package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/msg"
	"repro/internal/shard"
	"repro/internal/trace"
)

// The sharded installation is this harness with Shards > 1, so whatever
// the harness observes or configures, it observes and configures on every
// shard. The separate sharded harness this replaced handed its tracer to
// neither disks nor networks, counted no traffic, and built its clients
// from the protocol parameters alone.

// twoShards splits the namespace by subtree — /s0 on shard 0, /s1 on
// shard 1 — with a disk per shard and two clients.
func twoShards() Options {
	opts := DefaultOptions()
	opts.Shards, opts.Clients, opts.Disks = 2, 2, 1
	opts.Placement = shard.Subtree{Prefixes: map[string]int{"/s0": 0, "/s1": 1}}
	return opts
}

func TestShardedRunIsObserved(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	opts := twoShards()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()

	for si := 0; si < opts.Shards; si++ {
		h, _ := cl.MustOpen(0, fmt.Sprintf("/s%d/f", si), true, true)
		for b := uint64(0); b < 4; b++ {
			if errno := cl.Write(0, h, b, block('a')); errno != msg.OK {
				t.Fatal(errno)
			}
		}
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.IsolatePair(0, 1)
	cl.RunFor(opts.Core.Tau) // keep-alives to shard 1 die on the cut link

	events := ring.Events()
	for _, d := range cl.Disks {
		if n := events.Count(trace.ByNode(d.ID()), trace.ByType(trace.EvDisk), trace.ByNotePrefix("writev")); n == 0 {
			t.Errorf("disk %v: no writev event in the trace", d.ID())
		}
	}
	if n := events.Count(trace.ByType(trace.EvTransport), trace.ByNotePrefix("drop:")); n == 0 {
		t.Error("no transport drop in the trace of a partitioned run")
	}
	for _, name := range []string{
		"net.control.sent." + msg.KindControlReq.String(),
		"net.control.delivered." + msg.KindControlReply.String(),
		"net.san.sent." + msg.KindSANIO.String(),
		"net.san.delivered." + msg.KindSANReply.String(),
		"net.control.bytes", "net.san.bytes",
	} {
		if cl.Reg.CounterValue(name) == 0 {
			t.Errorf("counter %s is zero", name)
		}
	}
}

func TestShardedClientOptionsReachEverySub(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	opts := twoShards()
	opts.Tracer = trace.New(ring)
	opts.FlushBatch = 1 // per-page write-back: no vectored write anywhere
	opts.Prefetch = -1
	opts.FlushInterval = 500 * time.Millisecond
	opts.CacheMaxPages = 8 // the node's, across both authorities
	cl := New(opts)
	cl.Start()

	const blocks = 16
	for si := 0; si < opts.Shards; si++ {
		path := fmt.Sprintf("/s%d/f", si)
		h, _ := cl.MustOpen(0, path, true, true)
		for b := uint64(0); b < blocks; b++ {
			if errno := cl.Write(0, h, b, block(byte('a'+b))); errno != msg.OK {
				t.Fatal(errno)
			}
		}
	}
	// No Sync: the flush timer alone must clean every sub's cache.
	cl.RunFor(4 * opts.FlushInterval)
	for si, sub := range cl.Clients[0].Subs() {
		if n := sub.Cache().TotalDirty(); n != 0 {
			t.Errorf("shard %d: %d pages still dirty: FlushInterval did not reach the sub", si, n)
		}
	}
	if n := ring.Events().Count(trace.ByType(trace.EvDisk), trace.ByNotePrefix("writev")); n != 0 {
		t.Errorf("%d vectored writes under FlushBatch 1", n)
	}

	// A sequential scan from the other client: no read-ahead, and no more
	// than the node's page budget left resident.
	for si := 0; si < opts.Shards; si++ {
		h, _ := cl.MustOpen(1, fmt.Sprintf("/s%d/f", si), false, false)
		for b := uint64(0); b < blocks; b++ {
			if _, errno := cl.Read(1, h, b); errno != msg.OK {
				t.Fatal(errno)
			}
		}
	}
	if n := cl.Reg.CounterValue("client.n11.prefetch_batches"); n != 0 {
		t.Errorf("%d read-ahead batches with Prefetch off", n)
	}
	for si, sub := range cl.Clients[1].Subs() {
		if n := sub.Cache().ResidentPages(); n > opts.CacheMaxPages {
			t.Errorf("shard %d: %d pages resident on the node, bound %d", si, n, opts.CacheMaxPages)
		}
	}
	if v := cl.FinalCheck(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

func TestShardedPolicyReachesEveryNode(t *testing.T) {
	opts := twoShards()
	opts.Policy = baselines.Frangipani()
	cl := New(opts)
	cl.Start()
	for si, sub := range cl.Clients[0].Subs() {
		if sub.Lease() != nil {
			t.Errorf("shard %d: sub runs the paper's lease under the heartbeat policy", si)
		}
	}
	h, _ := cl.MustOpen(0, "/s1/f", true, true)
	if errno := cl.Write(0, h, 0, block('p')); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.RunFor(opts.Core.Tau)
	if n := cl.Reg.CounterValue("net.control.delivered." + msg.KindLeaseAdmin.String()); n == 0 {
		t.Error("no heartbeat reached a server")
	}
}

// TestSyncClientRoutesByPath drives client 0's blocking client on both
// shards: each path-keyed call must reach the authority that owns its
// path, each handle-keyed call the instance that opened the handle, and
// an inode-keyed call asked of Owner(path) that path's authority. The
// files differ in size, so a Stat that reached the wrong shard — where
// the same inode number may name another file — cannot pass.
func TestSyncClientRoutesByPath(t *testing.T) {
	cl := New(twoShards())
	cl.Start()
	sc := cl.SyncClient(0)
	paths := []string{"/s0/f", "/s1/f"}
	inos := make([]msg.ObjectID, len(paths))
	for si, path := range paths {
		if _, err := sc.Create(path, false); err != nil {
			t.Fatalf("create %s: %v", path, err)
		}
		h, attr, err := sc.Open(path, true, false)
		if err != nil {
			t.Fatalf("open %s: %v", path, err)
		}
		inos[si] = attr.Ino
		for b := 0; b <= si; b++ {
			if err := sc.WriteAt(h, uint64(b), block(byte('a'+si))); err != nil {
				t.Fatalf("write %s: %v", path, err)
			}
		}
		if data, err := sc.ReadAt(h, 0); err != nil || data[0] != byte('a'+si) {
			t.Fatalf("read back %s: %v", path, err)
		}
	}
	if err := sc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	for si, path := range paths {
		for sj := range cl.Shards {
			_, errno := cl.Shards[sj].Server.Store().Lookup(path)
			if owns := errno == msg.OK; owns != (si == sj) {
				t.Errorf("%s in shard %d's store: %v", path, sj, errno)
			}
		}
		h, _, errno := cl.Open(1, path, false, false)
		if errno != msg.OK {
			t.Fatalf("client 1 opens %s: %v", path, errno)
		}
		if data, errno := cl.Read(1, h, 0); errno != msg.OK || data[0] != byte('a'+si) {
			t.Fatalf("client 1 reads %s: %v", path, errno)
		}
		want := uint64(si+1) * BlockSize
		if attr, err := sc.Owner(path).Stat(inos[si]); err != nil || attr.Ino != inos[si] || attr.Size != want {
			t.Fatalf("Owner(%s).Stat(%v) = %+v, %v; want size %d", path, inos[si], attr, err, want)
		}
	}
	if v := cl.FinalCheck(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}
