package storagetank

import (
	"bytes"
	"testing"
	"time"
)

// Tests of the unified With* construction vocabulary: the same option
// list must configure the simulated cluster, the simulated server
// cluster, and live TCP nodes.

func TestUnifiedOptionsProjectOntoCluster(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Tau = 5 * time.Second
	tr := NewTracer(NewTraceRing(64))
	b := Resolve(
		WithSeed(7),
		WithClients(2),
		WithDisks(1),
		WithDiskBlocks(1<<10),
		WithProtocol(cfg),
		WithPolicy(Frangipani()),
		WithFlushInterval(250*time.Millisecond),
		WithFlushBatch(4),
		WithCacheMaxPages(16),
		WithClockSkew(false),
		WithDiskService(time.Millisecond),
		WithoutChecker(),
		WithGracePeriod(2*time.Second),
		WithTracer(tr),
	)
	c := b.Cluster
	switch {
	case c.Seed != 7, c.Clients != 2, c.Disks != 1, c.DiskBlocks != 1<<10:
		t.Fatalf("topology knobs lost: %+v", c)
	case c.Core.Tau != 5*time.Second:
		t.Fatalf("protocol config lost: τ=%v", c.Core.Tau)
	case c.Policy.Name != Frangipani().Name:
		t.Fatalf("policy lost: %q", c.Policy.Name)
	case c.FlushInterval != 250*time.Millisecond, c.FlushBatch != 4, c.CacheMaxPages != 16:
		t.Fatalf("client knobs lost: %+v", c)
	case c.ClockSkew, !c.NoChecker, c.GracePeriod != 2*time.Second:
		t.Fatalf("toggles lost: %+v", c)
	case c.DiskService != time.Millisecond, c.Tracer != tr:
		t.Fatalf("disk/tracer knobs lost")
	}
}

func TestNewClusterWithRuns(t *testing.T) {
	cl := NewClusterWith(WithSeed(11), WithClients(2), WithDisks(1))
	cl.Start()
	sc := cl.SyncClient(0)
	h, _, err := sc.Open("/via-options", true, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, BlockSize)
	copy(payload, "unified vocabulary")
	if err := sc.WriteAt(h, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := sc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	got, err := cl.SyncClient(1).ReadAt(mustOpenRO(t, cl.SyncClient(1), "/via-options"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("read through the facade returned wrong bytes")
	}
	cl.FinalCheck()
	if n := len(cl.Violations()); n != 0 {
		t.Fatalf("%d violations", n)
	}
}

func mustOpenRO(t *testing.T, sc *SyncClient, path string) (h Handle) {
	t.Helper()
	h, _, err := sc.Open(path, false, false)
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestNewClusterWithShardsRuns(t *testing.T) {
	inst := NewClusterWith(WithShards(3), WithClients(1))
	inst.Start()
	h, _ := inst.MustOpen(0, "/s1/x", true, true)
	inst.Write(0, h, 0, make([]byte, BlockSize))
	inst.Sync(0)
	if v := inst.FinalCheck(); len(v) != 0 {
		t.Fatalf("violations: %v", v)
	}
}

// TestUnifiedOptionsLiveNodes drives one option list through the live
// TCP constructors: durable media, a shared registry, a shared tracer —
// the wiring cmd/tankd does by hand — then a write/read round trip over
// real sockets through the blocking client surface.
func TestUnifiedOptionsLiveNodes(t *testing.T) {
	reg := NewStatsRegistry()
	tr := NewTracer(NewTraceRing(256))
	media, err := OpenFileMedia(t.TempDir(), MediaOptions{Blocks: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	opts := []Option{
		WithDiskBlocks(1 << 10),
		WithTracer(tr),
		WithRegistry(reg),
	}

	topo := Topology{Server: 1, ServerAddr: Loopback(), Disks: map[NodeID]string{1000: Loopback()}}
	dn, err := StartDisk(NodeSpec{ID: 1000, Topo: topo}, append(opts, WithMedia(media))...)
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

	sc := cn.Sync(10 * time.Second)
	h, _, err := sc.Open("/live", true, true)
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, BlockSize)
	copy(payload, "same options, real sockets")
	if err := sc.WriteAt(h, 0, payload); err != nil {
		t.Fatal(err)
	}
	if err := sc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	got, err := sc.ReadAt(h, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("live round trip returned wrong bytes")
	}
}

// TestStartServerNeedsItsDisksAmongShards: with several authorities, a
// server started with no disk list would allocate from every disk, the
// others' included; it is refused before it listens.
func TestStartServerNeedsItsDisksAmongShards(t *testing.T) {
	topo := Topology{
		Servers: map[NodeID]string{1: Loopback(), 2: Loopback()},
		Disks:   map[NodeID]string{1000: Loopback(), 1001: Loopback()},
	}
	topo.Server, topo.ServerAddr = 1, Loopback()
	if srv, err := StartServer(NodeSpec{ID: 1, Topo: topo}, nil); err == nil {
		srv.Close()
		t.Fatal("a server of two authorities started with every disk to allocate from")
	}
	srv, err := StartServer(NodeSpec{ID: 1, Topo: topo}, map[NodeID]uint64{1000: 64})
	if err != nil {
		t.Fatal(err)
	}
	srv.Close()
}
