package storagetank

import (
	"testing"
	"time"
)

// TestLiveBaselines runs comparison systems over TCP. WithPolicy sets both
// live ends, so each client keeps the lease its server counts: a
// Frangipani client heartbeats, a V client renews the leases of the
// objects it holds, and the paper's server keeps no lease state at all.
func TestLiveBaselines(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tau = 300 * time.Millisecond
	cfg.RetryInterval = 30 * time.Millisecond
	for _, pol := range []Policy{Frangipani(), VSystem(), StorageTank()} {
		t.Run(pol.Name, func(t *testing.T) {
			reg := NewStatsRegistry()
			opts := []Option{WithProtocol(cfg), WithPolicy(pol), WithRegistry(reg), WithDiskBlocks(1 << 10)}
			topo := Topology{Server: 1, ServerAddr: Loopback(), Disks: map[NodeID]string{1000: Loopback()}}
			dn, err := StartDisk(NodeSpec{ID: 1000, Topo: topo}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer dn.Close()
			topo.Disks[1000] = dn.Addr.String()
			srv, err := StartServer(NodeSpec{ID: 1, Topo: topo}, nil, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer srv.Close()
			topo.ServerAddr = srv.Addr.String()
			cn, err := StartClient(NodeSpec{ID: 10, Topo: topo}, opts...)
			if err != nil {
				t.Fatal(err)
			}
			defer cn.Close()

			// Hold locks: the file's, exclusive, and its directory's.
			sc := cn.Sync(2 * time.Second)
			h, _, err := sc.Open("/f", true, true)
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.WriteAt(h, 0, make([]byte, BlockSize)); err != nil {
				t.Fatal(err)
			}
			ops, bytes := reg.Counter("server.lease_ops"), reg.Gauge("server.lease_state_bytes")
			held := ops.Value()
			if pol.Name == StorageTank().Name {
				time.Sleep(cfg.Tau / 2)
				if ops.Value() != 0 || bytes.Max() != 0 {
					t.Fatalf("the paper's server did lease work: %d ops, %d bytes at most", ops.Value(), bytes.Max())
				}
				return
			}
			// A heartbeat goes every τ/3 and a renewal every τ/2; the
			// server counts each as lease work. A client whose lease ran
			// out would be counted too, as it registers again.
			for deadline := time.Now().Add(2 * cfg.Tau / 3); ops.Value() == held; time.Sleep(cfg.Tau / 30) {
				if time.Now().After(deadline) {
					t.Fatalf("no heartbeat or renewal counted within 2τ/3 (%d lease ops)", held)
				}
			}
			if n := reg.Counter("client.n10.recoveries").Value(); n != 1 {
				t.Fatalf("the client registered %d times", n)
			}
			if bytes.Value() == 0 {
				t.Fatal("the server holds no lease state for its client")
			}
		})
	}
}
