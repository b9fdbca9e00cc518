package rpcnet

import (
	"path/filepath"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/server"
)

// TestUnreplicatedServerRecoversMetadata restarts a sole, unreplicated
// server — what `tankd -meta-persist FILE` without -replicas runs — over
// the same files. The second incarnation must come back with the first
// one's namespace and inode counter, mint a strictly larger epoch, and
// open the grace window, because the durable epoch counter says clients
// had registered before it booted.
func TestUnreplicatedServerRecoversMetadata(t *testing.T) {
	cfg := server.Config{
		Core:        liveCore(),
		Disks:       map[msg.NodeID]uint64{1000: 1 << 12},
		MetaPersist: filepath.Join(t.TempDir(), "meta.json"),
	}
	type incarnation struct {
		srv   *ServerNode
		fs    *client.SyncClient
		epoch msg.Epoch
		grace bool
	}
	boot := func(clientID msg.NodeID) incarnation {
		t.Helper()
		topo := Topology{Server: 1, ServerAddr: Loopback(), Disks: map[msg.NodeID]string{}}
		srv, err := StartServerNode(NodeSpec{ID: 1, Topo: topo}, cfg)
		if err != nil {
			t.Fatalf("server: %v", err)
		}
		t.Cleanup(srv.Close)
		grace := make(chan bool, 1)
		srv.Exec.Submit(func() { grace <- srv.Srv.InGrace() })
		topo.ServerAddr = srv.Addr.String()
		cn, err := StartClientNode(NodeSpec{ID: clientID, Topo: topo}, client.Config{Core: cfg.Core})
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		t.Cleanup(cn.Close)
		epoch := make(chan msg.Epoch, 1)
		cn.Do(func() {
			cn.Client.OnRecovered = func(e msg.Epoch) {
				select {
				case epoch <- e:
				default:
				}
			}
			cn.Client.Start()
		})
		select {
		case e := <-epoch:
			return incarnation{srv: srv, fs: cn.Sync(5 * time.Second), epoch: e, grace: <-grace}
		case <-time.After(5 * time.Second):
			t.Fatalf("client %v registration timed out", clientID)
			return incarnation{}
		}
	}

	first := boot(10)
	if first.grace {
		t.Error("first boot over empty files opened a grace window")
	}
	if _, err := first.fs.Create("/d", true); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	made, err := first.fs.Create("/d/f", false)
	if err != nil {
		t.Fatalf("create: %v", err)
	}
	first.srv.Close()

	second := boot(11)
	if !second.grace {
		t.Error("restart over a store with a nonzero epoch opened no grace window")
	}
	if second.epoch <= first.epoch {
		t.Errorf("epoch after restart %d, before %d: not strictly larger", second.epoch, first.epoch)
	}
	got, err := second.fs.Lookup("/d/f")
	if err != nil {
		t.Fatalf("lookup after restart: %v", err)
	}
	if got.Ino != made.Ino {
		t.Errorf("/d/f is inode %v after restart, was %v", got.Ino, made.Ino)
	}
	fresh, err := second.fs.Create("/d/g", false)
	if err != nil {
		t.Fatalf("create after restart: %v", err)
	}
	if fresh.Ino <= made.Ino {
		t.Errorf("restart reissued inode numbers: new file is %v, old one %v", fresh.Ino, made.Ino)
	}
}
