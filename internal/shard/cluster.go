package shard

import (
	"fmt"
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/client"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Options configures a sharded installation.
type Options struct {
	Seed int64
	// Shards is the number of independent lease authorities.
	Shards  int
	Clients int
	// DisksPerServer: each shard allocates from its own SAN devices (a
	// shard's allocator never mixes with another's), though handed-off
	// files keep blocks on their original disks.
	DisksPerServer int
	DiskBlocks     uint64
	Core           core.Config
	// Placement maps paths to shard indices (default: Hash over the
	// full path — total and balanced).
	Placement Placement
	// Tracer, when non-nil, receives lease-lifecycle and shard-handoff
	// events from every server and every per-pair protocol instance.
	Tracer *trace.Tracer
	// NoChecker disables the per-shard consistency oracles (benchmarks).
	NoChecker bool
	// ServerService models each authority as a single-threaded request
	// processor with this per-request service time (0 = infinite
	// capacity). The scale benchmark sets it so a single shard
	// saturates.
	ServerService time.Duration
	// DiskService is the per-operation disk latency.
	DiskService time.Duration
	// Replicas, when ≥ 2, gives every shard a replicated lease authority:
	// M diskless server replicas negotiate the active role PaxosLease-
	// style (internal/replica), sharing one metadata store (the paper's
	// highly-available server-private storage). 0 or 1 = sole authority,
	// behavior unchanged.
	Replicas int
	// ReplicaLeaseTerm is the authority-lease term for replicated shards
	// (default DefaultReplicaLeaseTerm). Takeover after an active crash is
	// bounded by this term stretched by ε plus negotiation slack.
	ReplicaLeaseTerm time.Duration
}

// DefaultOptions returns a 2-shard, 2-client installation.
func DefaultOptions() Options {
	cfg := core.DefaultConfig()
	cfg.Tau = 10 * time.Second
	cfg.RetryInterval = 200 * time.Millisecond
	return Options{
		Seed: 1, Shards: 2, Clients: 2,
		DisksPerServer: 1, DiskBlocks: 1 << 14,
		Core:        cfg,
		DiskService: 100 * time.Microsecond,
	}
}

// Node IDs: servers 1..S, clients 10.., replica peers 1001.., disks
// 100000.. — the disk base sits above any realistic client count (the
// scale benchmark runs 10k clients, i.e. IDs up to ~10010) and below the
// allocator's 1<<20 ID ceiling.
const diskBase msg.NodeID = 100000

// DefaultReplicaLeaseTerm is the authority-lease term when
// Options.ReplicaLeaseTerm is zero.
const DefaultReplicaLeaseTerm = replica.DefaultLeaseTerm

// ServerID returns the node ID of shard index i's lease authority.
func ServerID(i int) msg.NodeID { return msg.NodeID(1 + i) }

// ReplicaID returns the node ID of replica j of shard i's authority
// group: replica 0 is ServerID(i), higher replicas sit at +1000 strides —
// clear of client IDs (10..) and below the disk base.
func ReplicaID(i, j int) msg.NodeID { return ServerID(i) + msg.NodeID(1000*j) }

// ClientID returns the node ID of client index i.
func ClientID(i int) msg.NodeID { return msg.NodeID(10 + i) }

// Shard is one lease authority and its private resources.
type Shard struct {
	ID     msg.NodeID
	Server *server.Server
	// Disks lists the shard's own SAN devices and capacities.
	Disks map[msg.NodeID]uint64
	// Replicated-authority state (Options.Replicas ≥ 2). Replicas holds
	// every group member (Replicas[0] == Server); Group their node IDs in
	// ballot order; Store the shared metadata store that models the
	// paper's highly-available server-private storage.
	Replicas []*server.Server
	Group    []msg.NodeID
	Store    *meta.Store
}

// Active returns the replica currently holding the shard's authority
// lease, or nil if none does right now. For an unreplicated shard it is
// always the server.
func (sh *Shard) Active() *server.Server {
	if len(sh.Replicas) == 0 {
		return sh.Server
	}
	for _, srv := range sh.Replicas {
		if !srv.Stopped() && srv.ActiveAuthority() {
			return srv
		}
	}
	return nil
}

// Cluster is the full sharded installation.
type Cluster struct {
	Opts    Options
	Sched   *sim.Scheduler
	Control *simnet.Network
	SAN     *simnet.Network
	Shards  []Shard
	Nodes   []*Node
	// Checkers is one consistency oracle per shard: object IDs (inode
	// numbers) are per-authority, so histories must not mix.
	Checkers []*checker.Checker
	Reg      *stats.Registry
	// allDisks is the installation-wide disk set every shard fences on.
	allDisks map[msg.NodeID]uint64
}

// New builds the installation: S servers — each owning its disks and
// serving the slice of the namespace the placement map assigns it — and
// C client nodes with one protocol instance per server.
func New(opts Options) *Cluster {
	if opts.Shards < 1 || opts.Clients < 1 {
		panic("shard: need at least one shard and one client")
	}
	if opts.Placement == nil {
		opts.Placement = Hash{N: opts.Shards}
	}
	s := sim.NewScheduler(opts.Seed)
	reg := stats.NewRegistry()
	cl := &Cluster{
		Opts:     opts,
		Sched:    s,
		Control:  simnet.New(s, simnet.DefaultControlConfig()),
		SAN:      simnet.New(s, simnet.DefaultSANConfig()),
		Reg:      reg,
		allDisks: make(map[msg.NodeID]uint64),
	}

	nextDisk := diskBase
	diskMaps := make([]map[msg.NodeID]uint64, opts.Shards)
	for si := 0; si < opts.Shards; si++ {
		if opts.NoChecker {
			cl.Checkers = append(cl.Checkers, nil)
		} else {
			cl.Checkers = append(cl.Checkers, checker.New(s))
		}
		diskMap := make(map[msg.NodeID]uint64, opts.DisksPerServer)
		for d := 0; d < opts.DisksPerServer; d++ {
			id := nextDisk
			nextDisk++
			dev := disk.New(id, disk.Config{Blocks: opts.DiskBlocks, ServiceTime: opts.DiskService},
				s.NewClock(1, 0),
				func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
				reg, disk.Observer{})
			cl.SAN.Attach(id, dev.Deliver)
			diskMap[id] = opts.DiskBlocks
			cl.allDisks[id] = opts.DiskBlocks
		}
		diskMaps[si] = diskMap
	}
	for si := 0; si < opts.Shards; si++ {
		sid := ServerID(si)
		if opts.Replicas < 2 {
			srv := cl.bootServer(sid, cl.serverConfig(diskMaps[si], nil, nil))
			cl.Shards = append(cl.Shards, Shard{ID: sid, Server: srv, Disks: diskMaps[si]})
			continue
		}
		// Replicated authority: M diskless negotiators share one metadata
		// store (HA server-private storage) and elect the active.
		sh := Shard{ID: sid, Disks: diskMaps[si],
			Store: meta.NewStore(meta.NewAllocator(diskMaps[si]))}
		for j := 0; j < opts.Replicas; j++ {
			sh.Group = append(sh.Group, ReplicaID(si, j))
		}
		for j := 0; j < opts.Replicas; j++ {
			rid := ReplicaID(si, j)
			srv := cl.bootServer(rid,
				cl.serverConfig(diskMaps[si], sh.Store, cl.replicaConfig(&sh, rid, false)))
			sh.Replicas = append(sh.Replicas, srv)
		}
		sh.Server = sh.Replicas[0]
		cl.Shards = append(cl.Shards, sh)
	}

	for ci := 0; ci < opts.Clients; ci++ {
		node := &Node{
			cl:      cl,
			idx:     ci,
			subs:    make(map[msg.NodeID]*client.Client, opts.Shards),
			routes:  make(map[msg.NodeID]*client.Client, opts.Shards),
			handles: make(map[msg.Handle]routedHandle),
		}
		cid := ClientID(ci)
		// One protocol instance per authority — the paper's
		// one-lease-per-(client,server)-pair, exactly. All share the
		// node's network address; inbound control traffic routes by
		// source, SAN replies by request-ID base.
		for si := range cl.Shards {
			sh := &cl.Shards[si]
			var oracle checker.Oracle
			if cl.Checkers[si] != nil {
				oracle = cl.Checkers[si]
			}
			sub := client.New(cid, sh.ID, client.Config{
				Core: opts.Core, Policy: baselines.StorageTank(),
				SANReqBase: msg.ReqID(si+1) << 48,
				Replicas:   sh.Group,
			}, s.NewClock(1, 0),
				func(to msg.NodeID, m msg.Message) { cl.Control.Send(cid, to, m) },
				func(to msg.NodeID, m msg.Message) { cl.SAN.Send(cid, to, m) },
				oracle, reg, opts.Tracer)
			node.subs[sh.ID] = sub
			node.routes[sh.ID] = sub
			// Replies and demands may arrive from any member of a
			// replicated authority group; route them all to this sub.
			for _, rid := range sh.Group {
				node.routes[rid] = sub
			}
			node.byIdx = append(node.byIdx, sub)
		}
		cl.Nodes = append(cl.Nodes, node)
		cl.Control.Attach(cid, node.deliverControl)
		cl.SAN.Attach(cid, node.deliverSAN)
	}
	return cl
}

// serverConfig builds one shard's server configuration: the shard
// allocates from its own disks, serves the placement map's slice of the
// namespace (with auto-created parents — server.New enables them when
// PlaceOwner is set), and fences the installation-wide disk set, since a
// handed-off file's blocks may live on any shard's disks. store is
// non-nil on restart.
func (cl *Cluster) serverConfig(disks map[msg.NodeID]uint64, store *meta.Store,
	rep *replica.Config) server.Config {
	place := cl.Opts.Placement
	shards := cl.Opts.Shards
	return server.Config{
		Core: cl.Opts.Core, Policy: baselines.StorageTank(),
		Disks: disks, Store: store, Replica: rep,
		PlaceOwner: func(path string) msg.NodeID {
			idx, ok := place.Owner(path)
			if !ok || idx < 0 || idx >= shards {
				return msg.None
			}
			return ServerID(idx)
		},
		FenceDisks:  cl.allDisks,
		ServiceTime: cl.Opts.ServerService,
	}
}

// replicaConfig builds the negotiation parameters for one member of a
// shard's authority group.
func (cl *Cluster) replicaConfig(sh *Shard, self msg.NodeID, warmup bool) *replica.Config {
	term := cl.Opts.ReplicaLeaseTerm
	if term == 0 {
		term = DefaultReplicaLeaseTerm
	}
	return &replica.Config{
		Self: self, Group: sh.Group,
		LeaseTerm: term, Bound: cl.Opts.Core.Bound,
		RetryInterval: cl.Opts.Core.RetryInterval,
		Warmup:        warmup,
	}
}

// bootServer creates and attaches one server (or replica) node.
func (cl *Cluster) bootServer(id msg.NodeID, cfg server.Config) *server.Server {
	srv := server.New(id, cfg, cl.Sched.NewClock(1, 0),
		func(to msg.NodeID, m msg.Message) { cl.Control.Send(id, to, m) },
		func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
		cl.Reg, cl.Opts.Tracer)
	cl.Control.Attach(id, srv.Deliver)
	cl.SAN.Attach(id, srv.DeliverSAN)
	return srv
}

// Start registers every protocol instance with its authority (in shard
// order, for deterministic replay) and runs until all are registered.
func (cl *Cluster) Start() {
	var pending []*client.Client
	for _, node := range cl.Nodes {
		for _, sub := range node.byIdx {
			sub.Start()
			pending = append(pending, sub)
		}
	}
	deadline := cl.Sched.Now().Add(time.Minute)
	// Cursor over pending: registrations complete roughly in order, so
	// the predicate stays O(1) amortized even at 10k clients × 8 shards.
	i := 0
	cl.Sched.RunWhile(func() bool {
		if cl.Sched.Now().After(deadline) {
			panic("shard: registration hung")
		}
		for i < len(pending) && pending[i].Registered() {
			i++
		}
		return i < len(pending)
	})
}

// --- client-side router ------------------------------------------------------

// Node is one client machine: a router over per-authority protocol
// instances. Every sub-client has its own channel, lease state machine,
// lock set, cache, and SAN request-ID space.
type Node struct {
	cl   *Cluster
	idx  int
	subs map[msg.NodeID]*client.Client
	// routes maps EVERY node a sub-client may hear from — the primary
	// authority plus its replica peers — to that sub.
	routes map[msg.NodeID]*client.Client
	byIdx  []*client.Client

	// Node-level handles map to (server, sub-handle).
	nextH   msg.Handle
	handles map[msg.Handle]routedHandle
}

type routedHandle struct {
	sub *client.Client
	h   msg.Handle
}

// deliverControl routes inbound control traffic to the sub-client that
// owns the lease with the sending server.
func (n *Node) deliverControl(env msg.Envelope) {
	if sub, ok := n.routes[env.From]; ok {
		sub.Deliver(env)
	}
}

// deliverSAN routes a disk reply by the request ID's shard base. Disk
// identity cannot route here: after a cross-shard handoff a file's
// blocks live on the source shard's disks while the destination's
// sub-client reads them.
func (n *Node) deliverSAN(env msg.Envelope) {
	req, ok := msg.SANReplyReq(env.Payload)
	if !ok {
		return
	}
	if si := int(req>>48) - 1; si >= 0 && si < len(n.byIdx) {
		n.byIdx[si].DeliverSAN(env)
	}
}

// Sub returns the node's protocol instance for the given authority.
func (n *Node) Sub(server msg.NodeID) *client.Client { return n.subs[server] }

// owner resolves a path to the sub-client talking to its authority.
func (n *Node) owner(path string) (*client.Client, msg.Errno) {
	idx, ok := n.cl.Opts.Placement.Owner(path)
	if !ok || idx < 0 || idx >= len(n.byIdx) {
		return nil, msg.ErrNoEnt
	}
	return n.byIdx[idx], msg.OK
}

// Lookup resolves a path at its owning authority.
func (n *Node) Lookup(path string, cb func(attr msg.Attr, errno msg.Errno)) {
	sub, errno := n.owner(path)
	if errno != msg.OK {
		cb(msg.Attr{}, errno)
		return
	}
	sub.Lookup(path, cb)
}

// Create makes a file or directory at its owning authority.
func (n *Node) Create(path string, isDir bool, cb func(attr msg.Attr, errno msg.Errno)) {
	sub, errno := n.owner(path)
	if errno != msg.OK {
		cb(msg.Attr{}, errno)
		return
	}
	sub.Create(path, isDir, cb)
}

// Unlink removes a path at its owning authority.
func (n *Node) Unlink(path string, cb func(errno msg.Errno)) {
	sub, errno := n.owner(path)
	if errno != msg.OK {
		cb(errno)
		return
	}
	sub.Unlink(path, cb)
}

// Rename moves oldPath to newPath. The request goes to the authority
// owning oldPath; when newPath is placed on a different authority the
// source server runs the cross-shard handoff and answers only once the
// object durably lives at its new home.
func (n *Node) Rename(oldPath, newPath string, cb func(errno msg.Errno)) {
	sub, errno := n.owner(oldPath)
	if errno != msg.OK {
		cb(errno)
		return
	}
	sub.Rename(oldPath, newPath, cb)
}

// Open routes an open to the owning authority and returns a node-level
// handle.
func (n *Node) Open(path string, write, create bool, cb func(h msg.Handle, attr msg.Attr, errno msg.Errno)) {
	sub, errno := n.owner(path)
	if errno != msg.OK {
		cb(0, msg.Attr{}, errno)
		return
	}
	sub.Open(path, write, create, func(h msg.Handle, attr msg.Attr, e msg.Errno) {
		if e != msg.OK {
			cb(0, msg.Attr{}, e)
			return
		}
		n.nextH++
		nh := n.nextH
		n.handles[nh] = routedHandle{sub: sub, h: h}
		cb(nh, attr, msg.OK)
	})
}

// Read routes a block read through the owning sub-client.
func (n *Node) Read(h msg.Handle, idx uint64, cb client.DataCallback) {
	rh, ok := n.handles[h]
	if !ok {
		cb(nil, msg.ErrBadHandle)
		return
	}
	rh.sub.Read(rh.h, idx, cb)
}

// Write routes a block write through the owning sub-client.
func (n *Node) Write(h msg.Handle, idx uint64, data []byte, cb client.ErrnoCallback) {
	rh, ok := n.handles[h]
	if !ok {
		cb(msg.ErrBadHandle)
		return
	}
	rh.sub.Write(rh.h, idx, data, cb)
}

// Close closes a node-level handle.
func (n *Node) Close(h msg.Handle, cb client.ErrnoCallback) {
	rh, ok := n.handles[h]
	if !ok {
		cb(msg.ErrBadHandle)
		return
	}
	delete(n.handles, h)
	rh.sub.Close(rh.h, cb)
}

// SyncAll flushes every authority's dirty data.
func (n *Node) SyncAll(cb func()) {
	remaining := len(n.byIdx)
	for _, sub := range n.byIdx {
		sub.Sync(func(msg.Errno) {
			remaining--
			if remaining == 0 && cb != nil {
				cb()
			}
		})
	}
}

// --- fault injection ---------------------------------------------------------

// IsolatePair blocks the control-network link between client node ci
// and shard si only — the narrowest possible failure, invalidating
// exactly one lease.
func (cl *Cluster) IsolatePair(ci, si int) {
	cl.Control.Block(ClientID(ci), ServerID(si))
}

// IsolateServers blocks the server-to-server control link between
// shards si and sj (a handoff mid-flight stalls until HealAll).
func (cl *Cluster) IsolateServers(si, sj int) {
	cl.Control.Block(ServerID(si), ServerID(sj))
}

// HealAll removes all control partitions.
func (cl *Cluster) HealAll() { cl.Control.Heal() }

// CrashServer fails shard si: volatile state (locks, epochs, leases)
// is gone; the metadata store — including export records and the
// import ledger — survives on private storage (§6).
func (cl *Cluster) CrashServer(si int) {
	sh := &cl.Shards[si]
	sh.Server.Stop()
	cl.Control.Crash(sh.ID)
	cl.SAN.Crash(sh.ID)
}

// RestartServer brings a crashed shard back with its recovered store; a
// pending export found there is re-driven immediately (server.New).
func (cl *Cluster) RestartServer(si int) {
	sh := &cl.Shards[si]
	cl.Control.Restart(sh.ID)
	cl.SAN.Restart(sh.ID)
	srv := cl.bootServer(sh.ID, cl.serverConfig(sh.Disks, sh.Server.Store(), nil))
	sh.Server = srv
}

// CrashReplica fails member ri of shard si's authority group: its
// negotiator, volatile state, and network presence are gone; the shared
// store (HA server-private storage) survives.
func (cl *Cluster) CrashReplica(si, ri int) {
	sh := &cl.Shards[si]
	srv := sh.Replicas[ri]
	srv.Stop()
	cl.Control.Crash(srv.ID())
	cl.SAN.Crash(srv.ID())
}

// RestartReplica brings member ri of shard si's group back as a fresh
// diskless negotiator. It restarts in warmup: having forgotten its
// promises, it must sit out one acquisition timeout before voting or
// campaigning again (see replica.Config.Warmup).
func (cl *Cluster) RestartReplica(si, ri int) {
	sh := &cl.Shards[si]
	rid := sh.Group[ri]
	cl.Control.Restart(rid)
	cl.SAN.Restart(rid)
	srv := cl.bootServer(rid, cl.serverConfig(sh.Disks, sh.Store, cl.replicaConfig(sh, rid, true)))
	sh.Replicas[ri] = srv
	if ri == 0 {
		sh.Server = srv
	}
}

// IsolateReplica partitions member ri of shard si's group from its peers
// and from every client node — the replica stays up but can neither
// renew nor serve. HealAll lifts it.
func (cl *Cluster) IsolateReplica(si, ri int) {
	sh := &cl.Shards[si]
	rid := sh.Group[ri]
	for _, peer := range sh.Group {
		if peer != rid {
			cl.Control.Block(rid, peer)
		}
	}
	for ci := 0; ci < cl.Opts.Clients; ci++ {
		cl.Control.Block(rid, ClientID(ci))
	}
}

// --- synchronous conveniences (tests, experiments) ---------------------------

// Await runs the simulation until done fires or maxSim passes.
func (cl *Cluster) Await(maxSim time.Duration, start func(done func())) bool {
	finished := false
	deadline := cl.Sched.Now().Add(maxSim)
	start(func() { finished = true })
	cl.Sched.RunWhile(func() bool { return !finished && !cl.Sched.Now().After(deadline) })
	return finished
}

// MustOpen opens a path on node i.
func (cl *Cluster) MustOpen(i int, path string, write, create bool) msg.Handle {
	var h msg.Handle
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Nodes[i].Open(path, write, create, func(gh msg.Handle, _ msg.Attr, e msg.Errno) {
			h, errno = gh, e
			done()
		})
	})
	if errno != msg.OK {
		panic(fmt.Sprintf("shard: open %s: %v", path, errno))
	}
	return h
}

// Write writes one block on node i.
func (cl *Cluster) Write(i int, h msg.Handle, idx uint64, data []byte) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Nodes[i].Write(h, idx, data, func(e msg.Errno) { errno = e; done() })
	})
	return errno
}

// Read reads one block on node i.
func (cl *Cluster) Read(i int, h msg.Handle, idx uint64) ([]byte, msg.Errno) {
	var data []byte
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Nodes[i].Read(h, idx, func(d []byte, e msg.Errno) { data, errno = d, e; done() })
	})
	return data, errno
}

// Rename moves oldPath to newPath from node i.
func (cl *Cluster) Rename(i int, oldPath, newPath string) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Nodes[i].Rename(oldPath, newPath, func(e msg.Errno) { errno = e; done() })
	})
	return errno
}

// Sync flushes node i on all shards.
func (cl *Cluster) Sync(i int) {
	cl.Await(time.Minute, func(done func()) { cl.Nodes[i].SyncAll(done) })
}

// RunFor advances the simulation.
func (cl *Cluster) RunFor(d time.Duration) { cl.Sched.RunFor(d) }

// FinalCheck audits every shard's history and returns all violations.
func (cl *Cluster) FinalCheck() []checker.Violation {
	var out []checker.Violation
	for _, c := range cl.Checkers {
		if c == nil {
			continue
		}
		c.FinalCheck()
		out = append(out, c.Violations()...)
	}
	return out
}

// LeasePhases reports node i's lease phase per shard, in shard order.
func (cl *Cluster) LeasePhases(i int) []core.Phase {
	ids := make([]int, 0, len(cl.Nodes[i].subs))
	for id := range cl.Nodes[i].subs {
		ids = append(ids, int(id))
	}
	sort.Ints(ids)
	out := make([]core.Phase, 0, len(ids))
	for _, id := range ids {
		out = append(out, cl.Nodes[i].subs[msg.NodeID(id)].Lease().Phase())
	}
	return out
}
