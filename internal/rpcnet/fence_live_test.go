package rpcnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/server"
)

// floorAt reads authority's fence against client at disk i, on the
// disk's executor.
func (lc *liveCluster) floorAt(i int, authority, client msg.NodeID) msg.Epoch {
	got := make(chan msg.Epoch, 1)
	lc.disks[i].Exec.Submit(func() { got <- lc.disks[i].Disk.Media().Fences().Floor(authority, client) })
	return <-got
}

// TestLiveShardFencesEveryDisk: two authorities with a disk each, each
// started as tankd starts it — told only the disk it allocates from. A
// file written under authority 1 and handed to authority 2 keeps its
// block on authority 1's disk, and a client dirty on it is cut off. When
// authority 2 steals from it, its fence must reach authority 1's disk
// too: a late write stamped with the epoch the client held under
// authority 2 would otherwise land on the handed-off block.
func TestLiveShardFencesEveryDisk(t *testing.T) {
	cfg := liveCore()
	cfg.Tau = 1500 * time.Millisecond
	lc := bootLive(t, 2, 2, cfg, nil)
	lc.start(t, 0)
	lc.start(t, 1)

	sc := lc.sc(0)
	h := lc.open(t, 0, "/s0/f", true, true)
	lc.write(t, 0, h, 0, []byte("allocated by authority 1"))
	lc.sync(t, 0)
	attr, err := sc.Lookup("/s0/f")
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Owner("/s0/f").ReleaseLock(attr.Ino); err != nil {
		t.Fatal(err)
	}
	if err := sc.Rename("/s0/f", "/s1/f"); err != nil {
		t.Fatalf("cross-shard rename: %v", err)
	}
	h = lc.open(t, 0, "/s1/f", true, false)
	lc.write(t, 0, h, 0, []byte("dirty under authority 2"))
	epoch := make(chan msg.Epoch, 1)
	lc.clients[0].Do(func() { epoch <- lc.clients[0].Router.Sub(1).Epoch() })
	held := <-epoch

	// Cut client 0 off; the survivor's write waits out authority 2's steal.
	lc.clients[0].Ctrl.Close()
	g := lc.open(t, 1, "/s1/f", true, false)
	lc.write(t, 1, g, 0, []byte("stolen"))
	isolated := msg.NodeID(10)
	deadline := time.Now().Add(5 * time.Second)
	for lc.floorAt(1, 2, isolated) <= held {
		if time.Now().After(deadline) {
			t.Fatal("authority 2's steal raised no fence at its own disk")
		}
		time.Sleep(10 * time.Millisecond)
	}
	for lc.floorAt(0, 2, isolated) <= held {
		if time.Now().After(deadline) {
			t.Fatalf("authority 1's disk admits client %v's writes stamped (authority 2, epoch %d): authority 2 fenced only its own disk",
				isolated, held)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestForgetfulServerRestartAdmitsItsClients: a server with no
// MetaPersist steals from a client and fences it, then restarts over the
// same disks with its epoch counter back at zero. Before it registers
// anyone it learns from the disks how high its fences reach, and mints
// above them: the fenced client, restarted and registered anew, writes
// and reads through the disks that still hold the fence.
func TestForgetfulServerRestartAdmitsItsClients(t *testing.T) {
	cfg := liveCore()
	cfg.Tau = 1500 * time.Millisecond
	lc := startLiveCfg(t, 2, cfg)
	lc.start(t, 0)
	lc.start(t, 1)
	h0 := lc.open(t, 0, "/f", true, true)
	lc.write(t, 0, h0, 0, []byte("before"))
	lc.sync(t, 0)

	// Cut client 0 off; the survivor's write waits out the steal.
	lc.clients[0].Ctrl.Close()
	h1 := lc.open(t, 1, "/f", true, false)
	lc.write(t, 1, h1, 0, []byte("stolen"))
	lc.sync(t, 1)
	fenced := msg.NodeID(10)
	deadline := time.Now().Add(5 * time.Second)
	for lc.floorAt(0, 1, fenced) == 0 || lc.floorAt(1, 1, fenced) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the steal raised no fence at the disks")
		}
		time.Sleep(10 * time.Millisecond)
	}
	floor := max(lc.floorAt(0, 1, fenced), lc.floorAt(1, 1, fenced))

	// Restart the server with nothing of its state, and the fenced client
	// with it.
	lc.srvs[0].Close()
	lc.clients[0].Close()
	topo := Topology{Server: 1, ServerAddr: Loopback(), Disks: map[msg.NodeID]string{}}
	caps := map[msg.NodeID]uint64{}
	for _, d := range lc.disks {
		topo.Disks[d.Disk.ID()] = d.Addr.String()
		caps[d.Disk.ID()] = d.Disk.Capacity()
	}
	srv, err := StartServerNode(NodeSpec{ID: 1, Topo: topo}, server.Config{Core: cfg, Disks: caps})
	if err != nil {
		t.Fatal(err)
	}
	lc.srvs[0] = srv
	topo.ServerAddr = srv.Addr.String()
	cn, err := StartClientNode(NodeSpec{ID: fenced, Topo: topo}, client.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	lc.clients[0] = cn
	lc.start(t, 0)
	epoch := make(chan msg.Epoch, 1)
	cn.Do(func() { epoch <- cn.Client.Epoch() })
	if e := <-epoch; e < floor {
		t.Fatalf("the restarted server registered the client at epoch %d, below its fence at %d", e, floor)
	}

	h := lc.open(t, 0, "/g", true, true)
	for b := uint64(0); b < 4; b++ {
		lc.write(t, 0, h, b, []byte(fmt.Sprintf("after-%d", b)))
	}
	lc.sync(t, 0)
	lc.clients[0].Close() // a fresh node reads from the disks, not its cache
	cn, err = StartClientNode(NodeSpec{ID: 12, Topo: topo}, client.Config{Core: cfg})
	if err != nil {
		t.Fatal(err)
	}
	lc.clients[0] = cn
	lc.start(t, 0)
	h = lc.open(t, 0, "/g", false, false)
	for b := uint64(0); b < 4; b++ {
		if got, want := string(lc.read(t, 0, h, b)[:7]), fmt.Sprintf("after-%d", b); got != want {
			t.Fatalf("block %d reads %q, want %q", b, got, want)
		}
	}
}
