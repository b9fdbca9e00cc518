package rpcnet

import (
	"fmt"
	"net"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/replica"
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
	// included, in an order all members agree on. StartServerNode gives
	// any node whose ID appears in a group the PaxosLease negotiator role
	// (see internal/replica); clients dial the whole group and follow
	// ErrNotActive redirects to whichever member holds the authority
	// lease. Every member needs an address in Servers.
	ReplicaGroups map[msg.NodeID][]msg.NodeID
	// Disks maps each disk's node ID to its SAN listen address.
	Disks map[msg.NodeID]string
	// Placement maps a path to the index of the authority that owns it,
	// counting in ServerIDs() order (nil = shard.Hash over them). It is set once,
	// here: the servers' ownership map and the clients' routing are both
	// derived from it, so they cannot disagree. An installation with one
	// authority places nothing.
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

// primaryOf maps a group member to its group's primary ID; IDs outside
// every group map to themselves.
func (t Topology) primaryOf(id msg.NodeID) msg.NodeID {
	for p, members := range t.ReplicaGroups {
		for _, m := range members {
			if m == id {
				return p
			}
		}
	}
	return id
}

// ServerIDs returns the sharded address book's authority IDs in sorted
// order — the canonical shard enumeration every node must agree on for
// hash placement to be consistent installation-wide. Replica members
// are folded into their group's primary: replication multiplies
// servers, not shards.
func (t Topology) ServerIDs() []msg.NodeID {
	ids := make([]msg.NodeID, 0, len(t.Servers))
	for id := range t.Servers {
		if t.primaryOf(id) == id {
			ids = append(ids, id)
		}
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// authorities returns the installation's lease authorities in the order
// placement indexes them: ServerIDs(), or the one Server when Servers
// lists none.
func (t Topology) authorities() []msg.NodeID {
	if len(t.Servers) == 0 {
		return []msg.NodeID{t.Server}
	}
	return t.ServerIDs()
}

// placement returns the map over n authorities, nil when there is nothing
// to place.
func (t Topology) placement(n int) shard.Placement {
	switch {
	case n < 2:
		return nil
	case t.Placement != nil:
		return t.Placement
	}
	return shard.Hash{N: n}
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

// applyTransport installs the node-level tracer and clock on a transport.
func (o nodeOptions) applyTransport(t *Transport) {
	if o.tracer != nil {
		t.SetTracer(o.tracer)
	}
	if o.clock != nil {
		t.SetClock(o.clock)
	}
}

// applyControl configures a control-network transport; applySAN a SAN
// one (they differ only in which fault plan applies).
func (o nodeOptions) applyControl(t *Transport) {
	o.applyTransport(t)
	if o.ctrlFaults != nil {
		t.SetFaults(o.ctrlFaults)
	}
}

func (o nodeOptions) applySAN(t *Transport) {
	o.applyTransport(t)
	if o.sanFaults != nil {
		t.SetFaults(o.sanFaults)
	}
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
// on Topo.ServerAddr and dials the disks in Topo.Disks. A node whose ID
// appears in Topo.ReplicaGroups additionally runs the PaxosLease
// negotiator — there is no separate replica entry point; passive,
// candidate, and active are runtime roles of the same server. In an
// installation of several authorities the server's slice of the namespace
// comes from Topo.Placement, unless cfg.PlaceOwner says otherwise.
func StartServerNode(spec NodeSpec, cfg server.Config, opts ...Option) (*ServerNode, error) {
	o := buildOptions(opts)
	ids := spec.Topo.authorities()
	if place := spec.Topo.placement(len(ids)); place != nil && cfg.PlaceOwner == nil {
		cfg.PlaceOwner = shard.OwnerID(place, ids)
	}
	if g := spec.Topo.GroupOf(spec.ID); g != nil {
		// The topology decides WHO replicates; cfg.Replica (when given)
		// only tunes HOW. Unset knobs inherit the protocol defaults.
		rc := replica.Config{}
		if cfg.Replica != nil {
			rc = *cfg.Replica
		}
		rc.Self = spec.ID
		if rc.Group == nil {
			rc.Group = g
		}
		if rc.LeaseTerm == 0 {
			rc.LeaseTerm = replica.DefaultLeaseTerm
		}
		if rc.RetryInterval == 0 {
			rc.RetryInterval = cfg.Core.RetryInterval
		}
		if rc.Bound.Eps == 0 {
			rc.Bound = cfg.Core.Bound
		}
		// A process cannot tell its first boot from a restart, and a
		// restarted diskless acceptor may already have vouched for the
		// window it boots into: every live negotiator sits out one
		// acquisition timeout before it votes or campaigns (DESIGN §15.2).
		rc.Warmup = true
		cfg.Replica = &rc
	}
	n := &ServerNode{Exec: NewExecutor(), Reg: o.reg}
	// Peer authorities (if any) are dialable for cross-shard handoffs;
	// client connections are still learned from inbound Hello frames.
	n.Ctrl = New(spec.ID, spec.Topo.Servers, func(env msg.Envelope) { n.Srv.Deliver(env) })
	n.SAN = New(spec.ID, spec.Topo.Disks, func(env msg.Envelope) { n.Srv.DeliverSAN(env) })
	n.Ctrl.UseExecutor(n.Exec)
	n.SAN.UseExecutor(n.Exec)
	o.applyControl(n.Ctrl)
	o.applySAN(n.SAN)
	clock := o.clock
	if clock == nil {
		clock = n.Ctrl.Clock()
	}
	prefix := fmt.Sprintf("server.%v.", spec.ID)
	n.Exec.Instrument(n.Reg, prefix+"exec.", clock)
	n.Ctrl.Instrument(n.Reg, prefix+"net.")
	n.SAN.Instrument(n.Reg, prefix+"net.")
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
	n.SAN = New(spec.ID, nil, func(env msg.Envelope) { n.Disk.Deliver(env) })
	n.SAN.UseExecutor(n.Exec)
	o.applySAN(n.SAN)
	clock := o.clock
	if clock == nil {
		clock = n.SAN.Clock()
	}
	prefix := fmt.Sprintf("disk.%v.", spec.ID)
	n.Exec.Instrument(o.reg, prefix+"exec.", clock)
	n.SAN.Instrument(o.reg, prefix+"net.")
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
	ids := topo.authorities()
	auths := make([]client.Authority, len(ids))
	for i, id := range ids {
		auths[i] = client.Authority{ID: id, Group: topo.GroupOf(id)}
	}
	var place func(path string) (int, bool)
	if p := topo.placement(len(ids)); p != nil {
		place = p.Owner
	}
	n.Ctrl = New(spec.ID, peers, func(env msg.Envelope) { n.Router.Deliver(env) })
	n.SAN = New(spec.ID, topo.Disks, func(env msg.Envelope) { n.Router.DeliverSAN(env) })
	n.Ctrl.UseExecutor(n.Exec)
	n.SAN.UseExecutor(n.Exec)
	o.applyControl(n.Ctrl)
	o.applySAN(n.SAN)
	clock := o.clock
	if clock == nil {
		clock = n.Ctrl.Clock()
		n.tmo = sim.NewRealClock(nil)
	} else {
		n.tmo = clock
	}
	prefix := fmt.Sprintf("client.%v.", spec.ID)
	n.Exec.Instrument(n.Reg, prefix+"exec.", clock)
	n.Ctrl.Instrument(n.Reg, prefix+"net.")
	n.SAN.Instrument(n.Reg, prefix+"net.")
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

// Sync returns a blocking wrapper over the node's first-authority
// instance. Each call starts its operation as a task of the executor
// (where all client callbacks run) — on the calling goroutine when the
// executor is idle, so that an operation the caches answer completes
// before the pump has anything to wait for — and otherwise blocks the
// caller until the operation completes or timeout passes (0 = a default
// 30s). The timeout covers only the operations that wait: one that
// completes in the caller's own turn cannot time out, because a task does
// not block.
func (n *ClientNode) Sync(timeout time.Duration) *client.SyncClient {
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	return client.NewSync(n.Client, func(start func(done func())) bool {
		return n.await(start, timeout)
	})
}

// await is Sync's pump. The branch that returns first is the cache hit:
// it makes no channel and arms no timer.
func (n *ClientNode) await(start func(done func()), timeout time.Duration) bool {
	c := &syncCall{start: start}
	n.Exec.Do(c.run)
	if c.state.Load() == callDone {
		return true
	}
	return c.wait(n.tmo, timeout)
}

// syncCall is one Sync call's completion token, shared by the caller and
// the task that runs the operation. It is made per call and never reused,
// so a done that fires late — after its call timed out — or twice finds
// only its own, finished, token.
type syncCall struct {
	start func(done func())
	state atomic.Uint32
	// ch is made by a caller that has to wait, before it moves state to
	// callWaiting; done sends on it only after seeing that state.
	ch chan bool
}

const (
	callRunning uint32 = iota
	callWaiting        // the caller is parked on ch
	callDone
)

func (c *syncCall) run() { c.start(c.done) }

func (c *syncCall) done() {
	if c.state.Swap(callDone) == callWaiting {
		c.ch <- true
	}
}

// wait parks the caller until done or the timeout, whichever is first. The
// timer is the one thing here that bypasses the executor, and is stopped
// when the operation completes first: an abandoned 30 s timer per
// operation is memory proportional to the operation rate.
func (c *syncCall) wait(clock sim.Clock, timeout time.Duration) bool {
	// Room for both senders, so that neither ever blocks: done at most
	// once, the timer at most once.
	c.ch = make(chan bool, 2)
	if !c.state.CompareAndSwap(callRunning, callWaiting) {
		return true // done fired on another goroutine meanwhile
	}
	tm := clock.AfterFunc(timeout, func() { c.ch <- false })
	defer tm.Stop()
	return <-c.ch
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
		if n.Router != nil { // nil in a node a test assembled by hand
			released := make(chan struct{})
			n.Exec.Submit(func() { n.Router.Shutdown(func() { close(released) }) })
			select {
			case <-released:
			case <-sim.After(n.tmo, closeWait):
			}
		}
		n.Ctrl.Close()
		n.SAN.Close()
		n.Exec.Close()
	})
}

// Loopback returns "127.0.0.1:0" for ephemeral test listeners.
func Loopback() string { return "127.0.0.1:0" }
