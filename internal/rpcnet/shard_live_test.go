package rpcnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
)

// liveShards boots a sharded installation over real TCP: two lease
// authorities (IDs 1 and 2) with one SAN disk each, the namespace split
// by subtree (/s0 → server 1, /s1 → server 2), and n client nodes. The
// shared Servers address book is what lets the authorities dial each
// other for cross-shard handoffs; the placement is set once, in the
// topology, and servers and clients both derive their maps from it.
type liveShards struct {
	srvs    []*ServerNode
	disks   []*DiskNode
	clients []*ClientNode
}

func startLiveShards(t *testing.T, nClients int, cfg core.Config, opts ...Option) *liveShards {
	t.Helper()
	ls := &liveShards{}
	// The book is complete before any node starts: placement is over the
	// authorities it lists.
	servers := map[msg.NodeID]string{1: freeAddr(t), 2: freeAddr(t)}
	topo := Topology{Servers: servers, Disks: map[msg.NodeID]string{},
		Placement: shard.Subtree{Prefixes: map[string]int{"/s0": 0, "/s1": 1}}}
	allCaps := map[msg.NodeID]uint64{}
	diskCaps := make([]map[msg.NodeID]uint64, 2)
	for si := 0; si < 2; si++ {
		id := msg.NodeID(1000 + si)
		topo.Disks[id] = Loopback()
		dn, err := StartDiskNode(NodeSpec{ID: id, Topo: topo}, disk.Config{Blocks: 1 << 12}, opts...)
		if err != nil {
			t.Fatalf("disk %d: %v", si, err)
		}
		ls.disks = append(ls.disks, dn)
		topo.Disks[id] = dn.Addr.String()
		allCaps[id] = 1 << 12
		diskCaps[si] = map[msg.NodeID]uint64{id: 1 << 12}
	}
	for si := 0; si < 2; si++ {
		id := msg.NodeID(1 + si)
		stopo := topo
		stopo.Server = id
		stopo.ServerAddr = servers[id]
		sn, err := StartServerNode(NodeSpec{ID: id, Topo: stopo}, server.Config{
			Core: cfg, Disks: diskCaps[si], FenceDisks: allCaps,
		}, opts...)
		if err != nil {
			t.Fatalf("server %d: %v", si, err)
		}
		ls.srvs = append(ls.srvs, sn)
	}
	for i := 0; i < nClients; i++ {
		cn, err := StartClientNode(NodeSpec{ID: msg.NodeID(10 + i), Topo: topo},
			client.Config{Core: cfg}, opts...)
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
		ls.clients = append(ls.clients, cn)
	}
	t.Cleanup(ls.close)
	return ls
}

func (ls *liveShards) close() {
	for _, c := range ls.clients {
		c.Close()
	}
	for _, s := range ls.srvs {
		s.Close()
	}
	for _, d := range ls.disks {
		d.Close()
	}
}

// sc is client i's blocking client: it routes each call as the node's
// Router does. An operation waits out a steal (τ(1+ε)) at most.
func (ls *liveShards) sc(i int) *client.SyncClient { return ls.clients[i].Sync(15 * time.Second) }

func (ls *liveShards) open(t *testing.T, i int, path string, write, create bool) msg.Handle {
	t.Helper()
	h, _, err := ls.sc(i).Open(path, write, create)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return h
}

func (ls *liveShards) write(t *testing.T, i int, path string, h msg.Handle, idx uint64, data []byte) {
	t.Helper()
	if err := ls.sc(i).WriteAt(h, idx, data); err != nil {
		t.Fatalf("write %s: %v", path, err)
	}
}

func (ls *liveShards) read(t *testing.T, i int, path string, h msg.Handle, idx uint64) []byte {
	t.Helper()
	data, err := ls.sc(i).ReadAt(h, idx)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	return data
}

// TestLiveShardCrossRename drives the full cross-shard handoff over
// real TCP: write on shard 0, release the lock, mv into shard 1's
// namespace, read the bytes back through the other authority — then
// check the handshake order on the shared trace bus.
func TestLiveShardCrossRename(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	cfg := liveCore()
	ls := startLiveShards(t, 1, cfg, WithTracer(trace.New(ring)))
	if err := ls.clients[0].Start(0); err != nil {
		t.Fatal(err)
	}

	h := ls.open(t, 0, "/s0/file", true, true)
	payload := bytes.Repeat([]byte{'H'}, 512)
	ls.write(t, 0, "/s0/file", h, 0, payload)
	sc := ls.sc(0)
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
	rh := ls.open(t, 0, "/s1/file", false, false)
	if got := ls.read(t, 0, "/s1/file", rh, 0); !bytes.Equal(got[:len(payload)], payload) {
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
	ls := startLiveShards(t, 2, cfg, WithTracer(trace.New(ring)))
	for i := range ls.clients {
		if err := ls.clients[i].Start(0); err != nil {
			t.Fatal(err)
		}
	}

	h0 := ls.open(t, 0, "/s0/f", true, true)
	h1 := ls.open(t, 0, "/s1/f", true, true)
	ls.write(t, 0, "/s0/f", h0, 0, []byte("dirty-on-shard-0"))
	ls.write(t, 0, "/s1/f", h1, 0, []byte("dirty-on-shard-1"))

	// Cut client 0 off from BOTH authorities at once. Its executor,
	// clocks, and SAN stay alive: each sub's lease state machine walks
	// to expiry unattended and flushes to the disks.
	ls.clients[0].Ctrl.Close()

	// The survivor demands both files; opens complete only after each
	// authority's steal.
	g0 := ls.open(t, 1, "/s0/f", true, false)
	ls.write(t, 1, "/s0/f", g0, 0, []byte("stolen-0"))
	g1 := ls.open(t, 1, "/s1/f", true, false)
	ls.write(t, 1, "/s1/f", g1, 0, []byte("stolen-1"))

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
	ls := startLiveShards(t, 2, liveCore())
	for _, cn := range ls.clients {
		if err := cn.Start(0); err != nil {
			t.Fatal(err)
		}
	}
	sc := ls.sc(0)
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
		for sj, sn := range ls.srvs {
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
		h := ls.open(t, 1, path, false, false)
		if data := ls.read(t, 1, path, h, 0); data[0] != byte('a'+si) {
			t.Fatalf("client 1 reads %q from %s", data[0], path)
		}
		want := uint64(si+1) * client.BlockSize
		if attr, err := sc.Owner(path).Stat(inos[si]); err != nil || attr.Ino != inos[si] || attr.Size != want {
			t.Fatalf("Owner(%s).Stat(%v) = %+v, %v; want size %d", path, inos[si], attr, err, want)
		}
	}
}
