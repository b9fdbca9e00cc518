package rpcnet

import (
	"fmt"
	"net"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Topology is the address book of a live installation: who the metadata
// server is, where it listens, and where each SAN disk listens. One
// Topology value describes the whole installation and is shared by every
// NodeSpec, replacing the per-call positional address arguments.
type Topology struct {
	// Server is the metadata server's node ID.
	Server msg.NodeID
	// ServerAddr is the control-network address the server listens on and
	// clients dial ("host:port"; port 0 picks an ephemeral port).
	ServerAddr string
	// Servers, when set, is the full address book of a sharded
	// installation: every lease authority's control address, including
	// this installation's own. Server nodes dial it for cross-shard
	// handoffs, and a client node runs one protocol instance per
	// authority in it. Nil for a single-authority installation. When
	// ReplicaGroups is set, Servers also carries every replica member's
	// address.
	Servers map[msg.NodeID]string
	// ReplicaGroups, when set, replicates lease authorities: each key is
	// a group's primary ID — the authority identity clients route and
	// hash placement by — and the value lists every member, primary
	// first, in an order all members agree on. StartServerNode gives
	// any node whose ID appears in a group the PaxosLease negotiator role
	// (see internal/replica); clients dial the whole group and follow
	// ErrNotActive redirects to whichever member holds the authority
	// lease. Every member needs an address in Servers.
	ReplicaGroups map[msg.NodeID][]msg.NodeID
	// Disks maps each disk's node ID to its SAN listen address.
	Disks map[msg.NodeID]string
	// Placement maps a path to the index of the authority that owns it,
	// counting in ServerIDs() order (nil = shard.Hash over them, and no
	// placement at all for one authority). It is set once, here: the
	// servers' ownership map and the clients' routing are both derived
	// from it (shard.Installation), so they cannot disagree.
	Placement shard.Placement
}

// GroupOf returns the replica group id belongs to (nil if id is not a
// member of any group).
func (t Topology) GroupOf(id msg.NodeID) []msg.NodeID {
	for _, members := range t.ReplicaGroups {
		for _, m := range members {
			if m == id {
				return members
			}
		}
	}
	return nil
}

// ServerIDs returns the sharded address book's authority IDs in sorted
// order — the canonical shard enumeration every node must agree on for
// hash placement to be consistent installation-wide. Replica members
// are folded into their group's primary: replication multiplies
// servers, not shards.
func (t Topology) ServerIDs() []msg.NodeID {
	ids := make([]msg.NodeID, 0, len(t.Servers))
	for id := range t.Servers {
		if _, primary := t.ReplicaGroups[id]; primary || t.GroupOf(id) == nil {
			ids = append(ids, id)
		}
	}
	slices.Sort(ids)
	return ids
}

// installation describes the installation as node self sees it: the
// authorities in placement order (ServerIDs(), or the one Server), every
// disk in Disks, and the placement. Of the disks each authority allocates
// from, a node knows only its own authority's: own.
func (t Topology) installation(self msg.NodeID, own map[msg.NodeID]uint64) shard.Installation {
	ids := []msg.NodeID{t.Server}
	if len(t.Servers) > 0 {
		ids = t.ServerIDs()
	}
	in := shard.Installation{
		Authorities: make([]shard.Authority, len(ids)),
		Disks:       make([]msg.NodeID, 0, len(t.Disks)),
		Placement:   t.Placement,
	}
	for id := range t.Disks {
		in.Disks = append(in.Disks, id)
	}
	slices.Sort(in.Disks)
	for i, id := range ids {
		in.Authorities[i].Authority = client.Authority{ID: id, Group: t.GroupOf(id)}
		if id == self || slices.Contains(in.Authorities[i].Group, self) {
			in.Authorities[i].Disks = own
		}
	}
	return in
}

// ParseAddrBook parses an address book as the commands take it on their
// flags, "id=addr,id=addr,...". The empty string is the empty book. An
// ID is a node ID, 1 to 2³¹−1, listed once, with a non-empty address.
func ParseAddrBook(s string) (map[msg.NodeID]string, error) {
	out := make(map[msg.NodeID]string)
	if s == "" {
		return out, nil
	}
	for _, part := range strings.Split(s, ",") {
		key, addr, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("bad entry %q (want id=addr)", part)
		}
		id, err := strconv.ParseInt(key, 10, 32)
		switch {
		case err != nil:
			return nil, fmt.Errorf("bad node id %q: %v", key, err)
		case id < 1:
			return nil, fmt.Errorf("bad node id %q: node IDs start at 1", key)
		case addr == "":
			return nil, fmt.Errorf("node %d: empty address", id)
		}
		if _, dup := out[msg.NodeID(id)]; dup {
			return nil, fmt.Errorf("node %d listed twice", id)
		}
		out[msg.NodeID(id)] = addr
	}
	return out, nil
}

// AddBooks adds to the topology the address books tankd and tankcli take
// as -shards and -replicas (ParseAddrBook's syntax; empty = none): every
// lease authority's control address, and the members of one replicated
// authority (ReplicaGroup). Unless self is msg.None, each book given must
// list it.
func (t *Topology) AddBooks(self msg.NodeID, shards, replicas string) error {
	for _, b := range [...]struct{ flag, book string }{{"-shards", shards}, {"-replicas", replicas}} {
		if b.book == "" {
			continue
		}
		members, err := ParseAddrBook(b.book)
		if _, ok := members[self]; err == nil && self != msg.None && !ok {
			err = fmt.Errorf("does not include this node (n%d)", self)
		}
		if err != nil {
			return fmt.Errorf("%s %q: %v", b.flag, b.book, err)
		}
		if t.Servers == nil {
			t.Servers = make(map[msg.NodeID]string, len(members))
		}
		for m, addr := range members {
			if _, ok := t.Servers[m]; !ok {
				t.Servers[m] = addr
			}
		}
		if b.flag == "-replicas" {
			group := ReplicaGroup(members)
			t.ReplicaGroups = map[msg.NodeID][]msg.NodeID{group[0]: group}
		}
	}
	return nil
}

// ReplicaGroup orders a replica group's address book by member ID. The
// first — the lowest — is the group's primary: the authority identity
// clients route by (ReplicaGroups' key). Every node of the installation
// derives the same ordering from the same book.
func ReplicaGroup(members map[msg.NodeID]string) []msg.NodeID {
	group := make([]msg.NodeID, 0, len(members))
	for m := range members {
		group = append(group, m)
	}
	slices.Sort(group)
	return group
}

// NodeSpec identifies one node within a topology.
type NodeSpec struct {
	// ID is this node's ID. For a disk node, Topo.Disks[ID] is its listen
	// address.
	ID msg.NodeID
	// Topo is the installation's shared address book.
	Topo Topology
}

// nodeOptions collects the cross-cutting facilities a node is started
// with; all have working defaults.
type nodeOptions struct {
	tracer     *trace.Tracer
	clock      sim.Clock
	reg        *stats.Registry
	ctrlFaults *faultnet.Faults
	sanFaults  *faultnet.Faults
	media      blockstore.Media
}

// Option customizes a node started by StartServerNode, StartClientNode,
// or StartDiskNode.
type Option func(*nodeOptions)

// WithTracer attaches a trace bus: the node's protocol components emit
// lease-lifecycle events and its transports emit EvTransport events.
// Sharing one Tracer across nodes in the same process yields a single
// totally-ordered event stream (see trace.Tracer).
func WithTracer(tr *trace.Tracer) Option {
	return func(o *nodeOptions) { o.tracer = tr }
}

// WithClock overrides the clock driving the node's protocol state
// machines (default: the control transport's wall clock, timers on the
// node's executor). The caller is responsible for the override firing
// its timers on the node's executor.
func WithClock(c sim.Clock) Option {
	return func(o *nodeOptions) { o.clock = c }
}

// WithRegistry supplies the metrics registry the node's instruments live
// in (default: a fresh private registry).
func WithRegistry(reg *stats.Registry) Option {
	return func(o *nodeOptions) { o.reg = reg }
}

// WithFaults installs fault-injection plans on the node's transports:
// ctrl on the control network, san on the SAN (either may be nil for a
// healthy fabric). Sharing one plan across every node of an in-process
// installation reproduces the simulator's network-wide failure controls
// — Partition, Isolate, per-link loss and latency — on real TCP, with
// drops emitted through the trace bus under the same DropReason
// taxonomy the simulator uses.
func WithFaults(ctrl, san *faultnet.Faults) Option {
	return func(o *nodeOptions) {
		o.ctrlFaults = ctrl
		o.sanFaults = san
	}
}

// WithMedia backs a disk node with the given storage (see
// internal/blockstore). The default is a fresh in-memory store that dies
// with the process; a file-backed store opened with blockstore.Open
// makes the node durable — acknowledged writes, version stamps, and the
// fence table survive a crash-restart from the same directory. Ignored
// by server and client nodes.
func WithMedia(m blockstore.Media) Option {
	return func(o *nodeOptions) { o.media = m }
}

func buildOptions(opts []Option) nodeOptions {
	var o nodeOptions
	for _, opt := range opts {
		opt(&o)
	}
	if o.reg == nil {
		o.reg = stats.NewRegistry()
	}
	return o
}

// transport makes one of node id's transports on its executor: it dials
// peers and delivers to deliver, with the node's tracer and clock, the
// fault plan of its network, and its gauges under prefix.
func (o nodeOptions) transport(id msg.NodeID, peers map[msg.NodeID]string, deliver func(msg.Envelope),
	exec *Executor, faults *faultnet.Faults, prefix string) *Transport {
	t := New(id, peers, deliver)
	t.UseExecutor(exec)
	if o.tracer != nil {
		t.SetTracer(o.tracer)
	}
	if o.clock != nil {
		t.SetClock(o.clock)
	}
	if faults != nil {
		t.SetFaults(faults)
	}
	t.Instrument(o.reg, prefix+"net.")
	return t
}

// protocolClock instruments a node's executor and returns the clock its
// protocol runs on: WithClock's, or the wall clock of t, its first
// transport.
func (o nodeOptions) protocolClock(exec *Executor, t *Transport, prefix string) sim.Clock {
	clock := o.clock
	if clock == nil {
		clock = t.Clock()
	}
	exec.Instrument(o.reg, prefix+"exec.", clock)
	return clock
}

// ServerNode is a live metadata server: a control listener, a SAN dialer
// for fencing/function-shipping, and the server state machine on one
// executor.
type ServerNode struct {
	Srv  *server.Server
	Ctrl *Transport
	SAN  *Transport
	Exec *Executor
	Addr net.Addr
	Reg  *stats.Registry
}

// StartServerNode launches the topology's server: it listens for clients
// on Topo.ServerAddr, dials the disks in Topo.Disks and fences on all of
// them, and allocates from cfg.Disks. A node whose ID appears in
// Topo.ReplicaGroups also runs the PaxosLease negotiator — passive,
// candidate and active are runtime roles of the same server — warming up
// at every boot (DESIGN §15.2). The rest of what the node agrees on with
// the others, its slice of the namespace included, comes from the
// topology too (shard.Installation.Server).
func StartServerNode(spec NodeSpec, cfg server.Config, opts ...Option) (*ServerNode, error) {
	o := buildOptions(opts)
	cfg = spec.Topo.installation(spec.ID, cfg.Disks).Server(spec.ID, cfg, true)
	n := &ServerNode{Exec: NewExecutor(), Reg: o.reg}
	prefix := fmt.Sprintf("server.%v.", spec.ID)
	// Peer authorities (if any) are dialable for cross-shard handoffs;
	// client connections are still learned from inbound Hello frames.
	n.Ctrl = o.transport(spec.ID, spec.Topo.Servers, func(env msg.Envelope) { n.Srv.Deliver(env) },
		n.Exec, o.ctrlFaults, prefix)
	n.SAN = o.transport(spec.ID, spec.Topo.Disks, func(env msg.Envelope) { n.Srv.DeliverSAN(env) },
		n.Exec, o.sanFaults, prefix)
	clock := o.protocolClock(n.Exec, n.Ctrl, prefix)
	n.Srv = server.New(spec.ID, cfg, clock, n.Ctrl.Send, n.SAN.Send, n.Reg, o.tracer)
	addr, err := n.Ctrl.Listen(spec.Topo.ServerAddr)
	if err != nil {
		n.Srv.Stop() // releases the metadata journal New may have opened
		return nil, err
	}
	n.Addr = addr
	go n.Exec.Run()
	return n, nil
}

// Close shuts the node down. The server is retired as the executor's last
// task, behind whatever is still queued there, and Close returns when that
// has run: the metadata journal is released, and a successor may open it.
func (n *ServerNode) Close() {
	n.Ctrl.Close()
	n.SAN.Close()
	n.Exec.Submit(n.Srv.Stop)
	n.Exec.Close()
}

// DiskNode is a live SAN block device.
type DiskNode struct {
	Disk *disk.Disk
	SAN  *Transport
	Exec *Executor
	Addr net.Addr
}

// StartDiskNode launches disk spec.ID listening on its Topo.Disks
// address.
func StartDiskNode(spec NodeSpec, cfg disk.Config, opts ...Option) (*DiskNode, error) {
	o := buildOptions(opts)
	n := &DiskNode{Exec: NewExecutor()}
	prefix := fmt.Sprintf("disk.%v.", spec.ID)
	n.SAN = o.transport(spec.ID, nil, func(env msg.Envelope) { n.Disk.Deliver(env) }, n.Exec, o.sanFaults, prefix)
	clock := o.protocolClock(n.Exec, n.SAN, prefix)
	n.Disk = disk.New(spec.ID, cfg, clock, n.SAN.Send, o.reg, disk.Observer{},
		disk.WithMedia(o.media), disk.WithTracer(o.tracer))
	addr, err := n.SAN.Listen(spec.Topo.Disks[spec.ID])
	if err != nil {
		n.Disk.Close()
		return nil, err
	}
	n.Addr = addr
	go n.Exec.Run()
	return n, nil
}

// Close shuts the node down and releases its media — in that order: the
// executor's Close returns only when no request is inside the media any
// more, on its loop or on a read loop's goroutine.
func (n *DiskNode) Close() {
	n.SAN.Close()
	n.Exec.Close()
	n.Disk.Close()
}

// ClientNode is a live file-system client: one protocol instance — lease,
// locks, cache, SAN request-ID space — per lease authority of the
// topology behind one node ID, one executor and two transports.
type ClientNode struct {
	// Router routes each operation to the instance for the authority that
	// owns its path, and each inbound message to the instance it is for.
	Router *client.Router
	// Client is the instance for the first authority: the whole client in
	// a single-authority installation.
	Client *client.Client
	Ctrl   *Transport
	SAN    *Transport
	Exec   *Executor
	Reg    *stats.Registry
	// tmo times Start's and Sync's completion deadlines. It deliberately
	// bypasses the executor-funneled protocol clock: the timeout must
	// still fire when the executor is the thing that is stuck. WithClock
	// overrides it.
	tmo sim.Clock
	// deadlines holds the Sync calls that wait, by when they time out on
	// tmo.
	deadlines client.Deadlines
	// closing makes Close idempotent.
	closing sync.Once
}

// StartClientNode launches client spec.ID against every authority of the
// topology: it dials them on the control network and the disks on the
// SAN. Where an authority is a replica group, the client dials every
// member and rotates across them on redirects and silence.
func StartClientNode(spec NodeSpec, cfg client.Config, opts ...Option) (*ClientNode, error) {
	o := buildOptions(opts)
	n := &ClientNode{Exec: NewExecutor(), Reg: o.reg}
	topo := spec.Topo
	peers := topo.Servers
	if len(peers) == 0 {
		peers = map[msg.NodeID]string{topo.Server: topo.ServerAddr}
	}
	auths, place := topo.installation(spec.ID, nil).Client()
	prefix := fmt.Sprintf("client.%v.", spec.ID)
	n.Ctrl = o.transport(spec.ID, peers, func(env msg.Envelope) { n.Router.Deliver(env) },
		n.Exec, o.ctrlFaults, prefix)
	n.SAN = o.transport(spec.ID, topo.Disks, func(env msg.Envelope) { n.Router.DeliverSAN(env) },
		n.Exec, o.sanFaults, prefix)
	clock := o.protocolClock(n.Exec, n.Ctrl, prefix)
	if n.tmo = o.clock; n.tmo == nil {
		n.tmo = sim.NewRealClock(nil)
	}
	n.Router = client.NewRouter(spec.ID, auths, cfg, clock,
		n.Ctrl.Send, n.SAN.Send, place, nil, n.Reg, o.tracer)
	n.Client = n.Router.Sub(0)
	go n.Exec.Run()
	return n, nil
}

// Do queues fn as a task of the client's executor and returns before it
// runs — the bridge from synchronous callers (CLI, tests) into the
// event-driven client. fn must arrange its own completion signalling.
func (n *ClientNode) Do(fn func()) { n.Exec.Submit(fn) }

// Start registers every protocol instance with its authority, blocking
// until all hold an epoch or timeout passes (0 = a default 30s).
func (n *ClientNode) Start(timeout time.Duration) error {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	subs := n.Router.Subs()
	ch := make(chan struct{}, len(subs))
	n.Exec.Submit(func() {
		for _, sub := range subs {
			sub.OnRecovered = func(msg.Epoch) {
				sub.OnRecovered = nil // the hook is the caller's again
				ch <- struct{}{}
			}
			sub.Start()
		}
	})
	deadline := sim.After(n.tmo, timeout)
	for range subs {
		select {
		case <-ch:
		case <-deadline:
			return fmt.Errorf("rpcnet: client %v got no lease from every authority within %v", n.Client.ID(), timeout)
		}
	}
	return nil
}

// Sync returns a blocking client over the node's Router, routing each
// call as the Router does (client.SyncClient). A call the caches answer
// is one call of its hit function, on the calling goroutine under the
// executor's token (Enter), when the executor is idle. Every other call
// starts its operation as a task of the executor (where all client
// callbacks run) — on the calling goroutine, too, when the executor is
// idle — and blocks the caller until the operation completes or timeout
// passes (0 = a default 30s). The timeout covers only the operations
// that wait: one that completes in the caller's own turn cannot time out,
// because a task does not block.
func (n *ClientNode) Sync(timeout time.Duration) *client.SyncClient {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return client.NewSyncInline(n.Router, func(c *client.Call, start func(done func())) bool {
		return n.pump(c, start, timeout)
	}, n.Exec)
}

// pump is Sync's pump. The branch that returns first is an operation
// that completed in the caller's turn — a failure the client gives at
// once, a hole, a sync with nothing to send, a hit that found the
// executor busy at first and idle by the time Do ran it: it waits for
// nothing. One that waits is an entry of the node's Deadlines until its
// done fires. Neither allocates: the call's completion is c, the
// SyncClient's record, reused from call to call.
func (n *ClientNode) pump(c *client.Call, start func(done func()), timeout time.Duration) bool {
	n.Exec.Do(c.Arm(start))
	return c.Completed() || c.Wait(&n.deadlines, n.tmo, timeout)
}

// closeWait bounds how long Close waits for the servers to acknowledge the
// locks it gives back before it closes anyway.
const closeWait = time.Second

// Close shuts the node down cleanly: it flushes what is dirty and gives
// every lock back first (client.Router.Shutdown), so that nobody has to
// wait out this client's lease for what it held, and waits for the
// acknowledgments — but not long: a server that does not answer gets the
// locks back when the lease runs out, as it would from a crash. The caller
// has stopped issuing operations.
func (n *ClientNode) Close() {
	n.closing.Do(func() {
		released := make(chan struct{})
		n.Exec.Submit(func() { n.Router.Shutdown(func() { close(released) }) })
		select {
		case <-released:
		case <-sim.After(n.tmo, closeWait):
		}
		n.Ctrl.Close()
		n.SAN.Close()
		n.Exec.Close()
	})
}

// Loopback returns "127.0.0.1:0" for ephemeral test listeners.
func Loopback() string { return "127.0.0.1:0" }
