package rpcnet

import (
	"bytes"
	"fmt"
	"net"
	"slices"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/trace"
	"repro/internal/wire"
)

// liveCore returns protocol timing suited to loopback TCP tests.
func liveCore() core.Config {
	cfg := core.DefaultConfig()
	cfg.Tau = 3 * time.Second
	cfg.RetryInterval = 100 * time.Millisecond
	return cfg
}

// liveCluster is an installation over real TCP: lease authorities 1..S,
// SAN disks 1000.., and client nodes 10.., each node started as tankd and
// tankcli start theirs: a server is told only the disks it allocates from
// and derives the rest from the topology.
type liveCluster struct {
	srvs    []*ServerNode
	disks   []*DiskNode
	clients []*ClientNode
}

func startLive(t *testing.T, nClients int) *liveCluster {
	return startLiveCfg(t, nClients, liveCore())
}

// startLiveCfg boots one authority and two disks with an explicit
// protocol config and node options (e.g. WithTracer) applied to every
// node.
func startLiveCfg(t testing.TB, nClients int, cfg core.Config, opts ...Option) *liveCluster {
	t.Helper()
	return bootLive(t, 1, nClients, cfg, nil, opts...)
}

// bootLive boots S lease authorities over max(2, S) disks, disk j
// allocated from by authority j mod S, and nClients clients. Several
// authorities share one address book, which lets them dial each other
// for cross-shard handoffs, and split the namespace by subtree (/s<i> to
// authority i). Disk i serves media(i) instead of memory when media is
// not nil.
func bootLive(t testing.TB, authorities, nClients int, cfg core.Config, media func(i int) blockstore.Media, opts ...Option) *liveCluster {
	t.Helper()
	lc := &liveCluster{}
	t.Cleanup(lc.close)
	topo := Topology{Server: 1, ServerAddr: Loopback(), Disks: make(map[msg.NodeID]string)}
	if authorities > 1 {
		// The book is complete before any node starts: placement is over
		// the authorities it lists.
		topo.Servers = make(map[msg.NodeID]string, authorities)
		prefixes := make(map[string]int, authorities)
		for si := 0; si < authorities; si++ {
			topo.Servers[msg.NodeID(1+si)] = freeAddr(t)
			prefixes[fmt.Sprintf("/s%d", si)] = si
		}
		topo.Placement = shard.Subtree{Prefixes: prefixes}
	}
	diskCaps := make([]map[msg.NodeID]uint64, authorities)
	for i := 0; i < max(2, authorities); i++ {
		id := msg.NodeID(1000 + i)
		// Disks listen on ephemeral ports; fill the topology as they come
		// up so later nodes can dial them.
		topo.Disks[id] = Loopback()
		dopts := opts
		if media != nil {
			dopts = append(slices.Clip(opts), WithMedia(media(i)))
		}
		dn, err := StartDiskNode(NodeSpec{ID: id, Topo: topo}, disk.Config{Blocks: 1 << 12}, dopts...)
		if err != nil {
			t.Fatalf("disk: %v", err)
		}
		lc.disks = append(lc.disks, dn)
		topo.Disks[id] = dn.Addr.String()
		if diskCaps[i%authorities] == nil {
			diskCaps[i%authorities] = make(map[msg.NodeID]uint64)
		}
		diskCaps[i%authorities][id] = 1 << 12
	}
	for si := 0; si < authorities; si++ {
		stopo := topo
		stopo.Server = msg.NodeID(1 + si)
		if topo.Servers != nil {
			stopo.ServerAddr = topo.Servers[stopo.Server]
		}
		srv, err := StartServerNode(NodeSpec{ID: stopo.Server, Topo: stopo},
			server.Config{Core: cfg, Disks: diskCaps[si]}, opts...)
		if err != nil {
			t.Fatalf("server %d: %v", si, err)
		}
		lc.srvs = append(lc.srvs, srv)
	}
	topo.ServerAddr = lc.srvs[0].Addr.String()
	for i := 0; i < nClients; i++ {
		cn, err := StartClientNode(NodeSpec{ID: msg.NodeID(10 + i), Topo: topo},
			client.Config{Core: cfg}, opts...)
		if err != nil {
			t.Fatalf("client: %v", err)
		}
		lc.clients = append(lc.clients, cn)
	}
	return lc
}

func (lc *liveCluster) close() {
	for _, c := range lc.clients {
		c.Close()
	}
	for _, s := range lc.srvs {
		s.Close()
	}
	for _, d := range lc.disks {
		d.Close()
	}
}

// The helpers below are the node's own blocking surface: Start, and one
// call on Sync's client each, failing the test on an error or after 5 s.
const liveOpTimeout = 5 * time.Second

// sc is client i's blocking client: it routes each call as the node's
// Router does.
func (lc *liveCluster) sc(i int) *client.SyncClient { return lc.clients[i].Sync(liveOpTimeout) }

func (lc *liveCluster) start(t *testing.T, i int) {
	t.Helper()
	if err := lc.clients[i].Start(liveOpTimeout); err != nil {
		t.Fatalf("client %d: %v", i, err)
	}
}

func (lc *liveCluster) open(t *testing.T, i int, path string, write, create bool) msg.Handle {
	t.Helper()
	h, _, err := lc.sc(i).Open(path, write, create)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	return h
}

func (lc *liveCluster) write(t *testing.T, i int, h msg.Handle, idx uint64, data []byte) {
	t.Helper()
	if err := lc.sc(i).WriteAt(h, idx, data); err != nil {
		t.Fatalf("write: %v", err)
	}
}

func (lc *liveCluster) read(t *testing.T, i int, h msg.Handle, idx uint64) []byte {
	t.Helper()
	data, err := lc.sc(i).ReadAt(h, idx)
	if err != nil {
		t.Fatalf("read: %v", err)
	}
	return data
}

func (lc *liveCluster) sync(t *testing.T, i int) {
	t.Helper()
	if err := lc.sc(i).SyncAll(); err != nil {
		t.Fatalf("sync: %v", err)
	}
}

func TestLiveEndToEnd(t *testing.T) {
	lc := startLive(t, 2)
	lc.start(t, 0)
	lc.start(t, 1)

	h0 := lc.open(t, 0, "/live.txt", true, true)
	payload := bytes.Repeat([]byte("tank"), 1024)
	lc.write(t, 0, h0, 0, payload)
	lc.sync(t, 0)

	// Cross-client read over real TCP: demand → downgrade → SAN read.
	h1 := lc.open(t, 1, "/live.txt", false, false)
	got := lc.read(t, 1, h1, 0)
	if !bytes.Equal(got, payload) {
		t.Fatalf("cross-client read mismatch: %d bytes", len(got))
	}
}

func TestLiveWriteBackDemandFlush(t *testing.T) {
	lc := startLive(t, 2)
	lc.start(t, 0)
	lc.start(t, 1)

	h0 := lc.open(t, 0, "/dirty.txt", true, true)
	lc.write(t, 0, h0, 0, []byte("unflushed-dirty-data")) // stays in cache
	h1 := lc.open(t, 1, "/dirty.txt", false, false)
	got := lc.read(t, 1, h1, 0)
	if !bytes.HasPrefix(got, []byte("unflushed-dirty-data")) {
		t.Fatalf("demand did not flush dirty data: %q", got[:24])
	}
}

func TestLiveLeaseRenewalIsFree(t *testing.T) {
	lc := startLive(t, 1)
	lc.start(t, 0)
	cn := lc.clients[0]
	// Stay active for over a lease period (τ=3s) with ordinary metadata
	// traffic: it must renew the lease with zero keep-alives. (Pure
	// cache-hit activity would legitimately need keep-alives — the lease
	// is renewed by messages, not by local work.)
	deadline := time.Now().Add(3500 * time.Millisecond)
	for i := 0; time.Now().Before(deadline); i++ {
		// A name nobody has asked about: the one lookup the name cache
		// cannot answer, so a message every time.
		path := fmt.Sprintf("/absent-%d", i)
		ch := make(chan msg.Errno, 1)
		cn.Do(func() { cn.Client.Lookup(path, func(_ msg.Attr, e msg.Errno) { ch <- e }) })
		select {
		case e := <-ch:
			if e != msg.ErrNoEnt {
				t.Fatalf("lookup: %v", e)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("lookup timed out")
		}
		time.Sleep(150 * time.Millisecond)
	}
	// Read protocol state on the executor (stats are not synchronized).
	type snapshot struct {
		ka    uint64
		phase core.Phase
	}
	ch := make(chan snapshot, 1)
	cn.Do(func() {
		ch <- snapshot{
			ka:    cn.Reg.CounterValue("client.n10.lease.keepalives"),
			phase: cn.Client.Lease().Phase(),
		}
	})
	got := <-ch
	if got.ka != 0 {
		t.Fatalf("active client sent %d keep-alives", got.ka)
	}
	if got.phase != core.Phase1Valid {
		t.Fatalf("lease phase = %v, want valid", got.phase)
	}
}

// TestLiveTraceTheorem31 replays the Fig 2 isolation scenario over real
// TCP with one shared trace bus across all five processes-in-one: the
// partitioned client walks all four lease phases unattended, the server
// arms and fires the τ(1+ε) steal, and the client's expiry precedes the
// steal in the shared event order — Theorem 3.1, observed on the live
// transport rather than the simulator.
func TestLiveTraceTheorem31(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	tracer := trace.New(ring)
	cfg := liveCore()
	cfg.Tau = 1500 * time.Millisecond
	lc := startLiveCfg(t, 2, cfg, WithTracer(tracer))
	lc.start(t, 0)
	lc.start(t, 1)

	h0 := lc.open(t, 0, "/stolen.txt", true, true)
	lc.write(t, 0, h0, 0, []byte("dirty-at-isolation")) // stays in cache

	// Partition client 0 from the control network. Its executor, clock,
	// and SAN stay alive: the lease state machine runs unattended (its
	// keep-alives simply drop) and the phase-4 flush can still reach the
	// disks. The server side sees its demand go undelivered.
	lc.clients[0].Ctrl.Close()

	// The survivor demands the same file; open only completes after the
	// server's steal reassigns the lock, so no polling is needed.
	h1 := lc.open(t, 1, "/stolen.txt", true, false)
	lc.write(t, 1, h1, 0, []byte("new-owner"))

	isolated := msg.NodeID(10)
	events := ring.Events()

	phases := events.PhaseSequence(isolated)
	want := []string{"valid", "renewal", "suspect", "flush", "expired"}
	if !trace.HasSubsequence(phases, want) {
		t.Fatalf("client phase sequence %v missing subsequence %v", phases, want)
	}
	if n := events.Count(trace.ByNode(1), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)); n != 1 {
		t.Fatalf("steal fired %d times, want 1", n)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(1), trace.ByType(trace.EvStealFired))); err != nil {
		t.Fatalf("Theorem 3.1 ordering on live transport: %v", err)
	}
	if exp, ok := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire)); ok && exp.Note == "dirty" {
		t.Fatal("client expired with the phase-4 flush incomplete")
	}
}

func TestWireCodecRoundTrip(t *testing.T) {
	t.Run("binary", func(t *testing.T) {
		a, b := newPipe(t)
		type accepted struct {
			c   *wire.Codec
			err error
		}
		ch := make(chan accepted, 1)
		go func() {
			c, err := wire.Accept(b)
			ch <- accepted{c, err}
		}()
		ca, err := wire.Dial(a, wire.Binary)
		if err != nil {
			t.Fatal(err)
		}
		r := <-ch
		if r.err != nil {
			t.Fatal(r.err)
		}
		cb := r.c
		go func() {
			ca.SendHello(7)
			ca.Send(&msg.Envelope{From: 7, To: 1, Payload: &msg.KeepAlive{
				ReqHeader: msg.ReqHeader{Client: 7, Req: 3, Epoch: 2},
			}})
		}()
		from, err := cb.RecvHello()
		if err != nil || from != 7 {
			t.Fatalf("hello: %v %v", from, err)
		}
		env, err := cb.Recv()
		if err != nil {
			t.Fatal(err)
		}
		ka, ok := env.Payload.(*msg.KeepAlive)
		if !ok || ka.Req != 3 || ka.Epoch != 2 {
			t.Fatalf("payload = %#v", env.Payload)
		}
		env.Release()
	})
}

func newPipe(t *testing.T) (a, b net.Conn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	type res struct {
		c   net.Conn
		err error
	}
	ch := make(chan res, 1)
	go func() {
		c, err := l.Accept()
		ch <- res{c, err}
	}()
	c1, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() { c1.Close(); r.c.Close() })
	return c1, r.c
}
