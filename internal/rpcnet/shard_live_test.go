package rpcnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/trace"
)

// TestLiveShardCrossRename drives the full cross-shard handoff over
// real TCP: write on shard 0, release the lock, mv into shard 1's
// namespace, read the bytes back through the other authority — then
// check the handshake order on the shared trace bus.
func TestLiveShardCrossRename(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	cfg := liveCore()
	lc := bootLive(t, 2, 1, cfg, nil, WithTracer(trace.New(ring)))
	if err := lc.clients[0].Start(0); err != nil {
		t.Fatal(err)
	}

	h := lc.open(t, 0, "/s0/file", true, true)
	payload := bytes.Repeat([]byte{'H'}, 512)
	lc.write(t, 0, h, 0, payload)
	sc := lc.sc(0)
	if err := sc.SyncAll(); err != nil {
		t.Fatalf("sync: %v", err)
	}
	attr, err := sc.Lookup("/s0/file")
	if err != nil {
		t.Fatalf("lookup: %v", err)
	}
	if err := sc.Owner("/s0/file").ReleaseLock(attr.Ino); err != nil {
		t.Fatalf("release: %v", err)
	}

	// The mv: routed to the authority owning the OLD path, which runs
	// the handoff with its peer before answering.
	if err := sc.Rename("/s0/file", "/s1/file"); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}

	// Old name gone (asked of shard 0), new name serves the bytes
	// (asked of shard 1 — a different TCP connection, different lease).
	if _, err := sc.Lookup("/s0/file"); err != msg.ErrNoEnt {
		t.Fatalf("old name after mv: %v, want ErrNoEnt", err)
	}
	rh := lc.open(t, 0, "/s1/file", false, false)
	if got := lc.read(t, 0, rh, 0); !bytes.Equal(got[:len(payload)], payload) {
		t.Fatal("payload corrupted across the handoff")
	}

	events := ring.Events()
	if n := events.Count(trace.ByNode(2), trace.ByType(trace.EvShardInstall)); n != 1 {
		t.Fatalf("installed %d times, want 1", n)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(1), trace.ByType(trace.EvShardHandoff)),
		trace.And(trace.ByNode(2), trace.ByType(trace.EvShardInstall))); err != nil {
		t.Fatalf("handoff/install ordering on live transport: %v", err)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(2), trace.ByType(trace.EvShardInstall)),
		trace.And(trace.ByNode(1), trace.ByType(trace.EvShardDone))); err != nil {
		t.Fatalf("install/done ordering on live transport: %v", err)
	}
}

// TestLiveShardTheorem31PerShard is the paper's safety theorem per
// authority on the live stack: a shard client dirty on BOTH shards is
// cut off; each authority independently steals, and each steal is
// preceded by the client's expiry of that specific pair's lease.
func TestLiveShardTheorem31PerShard(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	cfg := liveCore()
	cfg.Tau = 1500 * time.Millisecond
	lc := bootLive(t, 2, 2, cfg, nil, WithTracer(trace.New(ring)))
	for i := range lc.clients {
		if err := lc.clients[i].Start(0); err != nil {
			t.Fatal(err)
		}
	}

	h0 := lc.open(t, 0, "/s0/f", true, true)
	h1 := lc.open(t, 0, "/s1/f", true, true)
	lc.write(t, 0, h0, 0, []byte("dirty-on-shard-0"))
	lc.write(t, 0, h1, 0, []byte("dirty-on-shard-1"))

	// Cut client 0 off from BOTH authorities at once. Its executor,
	// clocks, and SAN stay alive: each sub's lease state machine walks
	// to expiry unattended and flushes to the disks.
	lc.clients[0].Ctrl.Close()

	// The survivor demands both files; opens complete only after each
	// authority's steal.
	g0 := lc.open(t, 1, "/s0/f", true, false)
	lc.write(t, 1, g0, 0, []byte("stolen-0"))
	g1 := lc.open(t, 1, "/s1/f", true, false)
	lc.write(t, 1, g1, 0, []byte("stolen-1"))

	events := ring.Events()
	isolated := msg.NodeID(10)
	for si := 0; si < 2; si++ {
		sid := msg.NodeID(1 + si)
		if n := events.Count(trace.ByNode(sid), trace.ByType(trace.EvStealFired),
			trace.ByPeer(isolated)); n != 1 {
			t.Fatalf("shard %d: steal fired %d times, want 1", si, n)
		}
		if err := events.Precedes(
			trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire), trace.ByPeer(sid)),
			trace.And(trace.ByNode(sid), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)),
		); err != nil {
			t.Fatalf("Theorem 3.1 on live shard %d: %v", si, err)
		}
		exp, _ := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire), trace.ByPeer(sid))
		if exp.Note == "dirty" {
			t.Fatalf("shard %d: expiry with the phase-4 flush incomplete", si)
		}
	}
}

// TestLiveSyncClientRoutesByPath is TestSyncClientRoutesByPath
// (internal/cluster) over real TCP: client 0's ClientNode.Sync creates,
// writes, syncs and reads back a file on each authority. Each file must
// be in its owner's store alone, client 1 must find both, and an
// inode-keyed call asked of Owner(path) must reach the path's authority
// (the files differ in size, so a Stat answered by the other authority,
// where the same inode number may name another file, cannot pass).
func TestLiveSyncClientRoutesByPath(t *testing.T) {
	lc := bootLive(t, 2, 2, liveCore(), nil)
	for _, cn := range lc.clients {
		if err := cn.Start(0); err != nil {
			t.Fatal(err)
		}
	}
	sc := lc.sc(0)
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
			if err := sc.WriteAt(h, uint64(b), bytes.Repeat([]byte{byte('a' + si)}, client.BlockSize)); err != nil {
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
		for sj, sn := range lc.srvs {
			// The store is the server's: read it on the server's executor.
			found := make(chan msg.Errno)
			sn.Exec.Submit(func() {
				_, errno := sn.Srv.Store().Lookup(path)
				found <- errno
			})
			if errno := <-found; (errno == msg.OK) != (si == sj) {
				t.Errorf("%s in authority %d's store: %v", path, sj, errno)
			}
		}
		h := lc.open(t, 1, path, false, false)
		if data := lc.read(t, 1, h, 0); data[0] != byte('a'+si) {
			t.Fatalf("client 1 reads %q from %s", data[0], path)
		}
		want := uint64(si+1) * client.BlockSize
		if attr, err := sc.Owner(path).Stat(inos[si]); err != nil || attr.Ino != inos[si] || attr.Size != want {
			t.Fatalf("Owner(%s).Stat(%v) = %+v, %v; want size %d", path, inos[si], attr, err, want)
		}
	}
}
