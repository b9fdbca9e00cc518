// Package cluster wires a complete simulated Storage Tank installation —
// scheduler, rate-skewed clocks, control network, SAN, disks, one or more
// metadata servers (each optionally a replica group), client nodes, and
// the consistency oracles — the topology of the paper's Figure 1. The
// single-server installation is the one-shard case. Tests, examples, and
// every experiment build on this harness.
package cluster

import (
	"fmt"
	"math"
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
	"repro/internal/shard"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Node IDs: servers 1..S, clients 10.., replica peers 1001.., disks
// 100000.. — the disk base sits above any realistic client count (the
// scale benchmark runs 10k clients, i.e. IDs up to ~10010) and every
// replica stride, and below the allocator's 1<<20 ID ceiling.
const (
	FirstClient msg.NodeID = 10
	FirstDisk   msg.NodeID = 100000
)

// ServerID returns the node ID of shard index i's lease authority.
func ServerID(i int) msg.NodeID { return msg.NodeID(1 + i) }

// ReplicaID returns the node ID of replica j of shard i's authority
// group: replica 0 is ServerID(i), higher replicas sit at +1000 strides —
// clear of client IDs (10..) and below the disk base.
func ReplicaID(i, j int) msg.NodeID { return ServerID(i) + msg.NodeID(1000*j) }

// ClientID returns the node ID of client index i.
func ClientID(i int) msg.NodeID { return FirstClient + msg.NodeID(i) }

// Options configures an installation.
type Options struct {
	Seed int64
	// Shards is the number of independent lease authorities the namespace
	// is partitioned across (1 = the single-server installation).
	Shards  int
	Clients int
	// Disks is the number of SAN devices each authority allocates from (a
	// shard's allocator never mixes with another's, though handed-off
	// files keep blocks on their original disks).
	Disks      int
	DiskBlocks uint64
	// Core is the protocol configuration shared by all nodes.
	Core   core.Config
	Policy baselines.Policy
	// Placement maps paths to shard indices. Nil means Hash over the full
	// path when Shards > 1, and no placement at all at one shard: a lone
	// server is not a shard of anything (it does not materialize missing
	// parents, and a rename is always local).
	Placement shard.Placement
	// FlushInterval configures periodic client write-back (0 = off).
	FlushInterval time.Duration
	// ClockSkew draws client/server clock rates within the pairwise rate
	// bound Core.Bound.Eps when true; all clocks run at rate 1 otherwise.
	ClockSkew bool
	// Control/SAN override the network characteristics.
	Control, SAN simnet.Config
	// DiskService overrides per-op disk latency.
	DiskService time.Duration
	// ServerService models each authority as a single-threaded request
	// processor with this per-request service time (0 = infinite
	// capacity). The scale benchmark sets it so a single shard saturates.
	ServerService time.Duration
	// Replicas, when ≥ 2, gives every shard a replicated lease authority:
	// M diskless server replicas negotiate the active role PaxosLease-
	// style (internal/replica), sharing one metadata store (the paper's
	// highly-available server-private storage). 0 or 1 = sole authority.
	Replicas int
	// ReplicaLeaseTerm is the authority-lease term for replicated shards
	// (default replica.DefaultLeaseTerm). Takeover after an active crash
	// is bounded by this term stretched by ε plus negotiation slack.
	ReplicaLeaseTerm time.Duration
	// NoChecker disables the consistency oracles (benchmarks measuring raw
	// cost).
	NoChecker bool
	// NoNACK and DisableFence are protocol ablations (see server.Config).
	NoNACK       bool
	DisableFence bool
	// DisableReassert turns off §6 lock reassertion after server restarts
	// (clients then pay the full lease recovery).
	DisableReassert bool
	// GracePeriod overrides the restarted server's reassertion window.
	GracePeriod time.Duration
	// CacheMaxPages bounds each client node's resident cache (0 =
	// unbounded).
	CacheMaxPages int
	// CacheQuota bounds each client node's resident cache in bytes,
	// counted after content dedup (0 = unbounded).
	CacheQuota int64
	// FlushBatch bounds how many dirty pages one vectored SAN write may
	// carry (0 = client default; 1 = legacy per-page write-back).
	FlushBatch int
	// Prefetch is each client's client.Config.Prefetch: the largest
	// sequential read-ahead window.
	Prefetch int
	// ClientRates pins explicit clock rates per client (overrides
	// ClockSkew for those indices); ServerRate pins every server's.
	ClientRates []float64
	ServerRate  float64
	// Tracer, when non-nil, receives lease-lifecycle, disk, transport-drop
	// and shard-handoff events from every node. Simulated clocks make the
	// event timestamps deterministic.
	Tracer *trace.Tracer
}

// DefaultOptions returns a single-server, 3-client, 2-disk installation
// with the default protocol parameters (but a short τ suited to
// simulation runs).
func DefaultOptions() Options {
	cfg := core.DefaultConfig()
	cfg.Tau = 10 * time.Second
	cfg.RetryInterval = 200 * time.Millisecond
	return Options{
		Seed:        1,
		Shards:      1,
		Clients:     3,
		Disks:       2,
		DiskBlocks:  1 << 14,
		Core:        cfg,
		Policy:      baselines.StorageTank(),
		ClockSkew:   true,
		Control:     simnet.DefaultControlConfig(),
		SAN:         simnet.DefaultSANConfig(),
		DiskService: 100 * time.Microsecond,
	}
}

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

// Cluster is one running installation.
type Cluster struct {
	Opts    Options
	Sched   *sim.Scheduler
	Control *simnet.Network
	SAN     *simnet.Network
	Shards  []Shard
	// Clients are the client machines: one router each over a protocol
	// instance per shard.
	Clients []*client.Router
	// Disks lists every SAN device, shard by shard.
	Disks []*disk.Disk
	// Checkers is one consistency oracle per shard (nil entries with
	// NoChecker): object IDs are per authority, so histories must not mix.
	Checkers []*checker.Checker
	Reg      *stats.Registry
	// allDisks is the installation-wide disk set every shard fences on.
	allDisks map[msg.NodeID]uint64
}

// New builds an installation: S servers — each owning its disks and
// serving the slice of the namespace the placement map assigns it — and C
// client nodes with one protocol instance per server. Nothing runs until
// the scheduler does.
func New(opts Options) *Cluster {
	if opts.Shards < 1 || opts.Clients < 1 || opts.Disks < 1 {
		panic("cluster: need at least one shard, one client and one disk")
	}
	if opts.Placement == nil && opts.Shards > 1 {
		opts.Placement = shard.Hash{N: opts.Shards}
	}
	s := sim.NewScheduler(opts.Seed)
	cl := &Cluster{
		Opts:     opts,
		Sched:    s,
		Control:  simnet.New(s, opts.Control),
		SAN:      simnet.New(s, opts.SAN),
		Shards:   make([]Shard, 0, opts.Shards),
		Clients:  make([]*client.Router, 0, opts.Clients),
		Disks:    make([]*disk.Disk, 0, opts.Shards*opts.Disks),
		Checkers: make([]*checker.Checker, 0, opts.Shards),
		Reg:      stats.NewRegistry(),
		allDisks: make(map[msg.NodeID]uint64, opts.Shards*opts.Disks),
	}
	cl.observeNetworks()
	// Dropped messages land in the trace stream under the same DropReason
	// taxonomy the live fault injector (internal/faultnet) uses.
	cl.Control.SetTracer(opts.Tracer)
	cl.SAN.SetTracer(opts.Tracer)

	newClock := func() *sim.NodeClock {
		if opts.ClockSkew && opts.Core.Bound.Eps > 0 {
			// Draw each rate within sqrt(1+eps) of 1 so any PAIR of
			// clocks satisfies the bound eps.
			half := math.Sqrt(1+opts.Core.Bound.Eps) - 1
			lo := 1 / (1 + half)
			hi := 1 + half
			rate := lo + s.Rand().Float64()*(hi-lo)
			return s.NewClock(rate, sim.Duration(s.Rand().Int63n(int64(time.Hour))))
		}
		return s.NewClock(1, 0)
	}
	// A pinned rate replaces a clock that was drawn all the same, so that
	// pinning one node does not shift every later node's draw.
	serverClock := func() sim.Clock {
		clock := newClock()
		if opts.ServerRate > 0 {
			clock = s.NewClock(opts.ServerRate, 0)
		}
		return clock
	}

	// Disks, shard by shard.
	for si := 0; si < opts.Shards; si++ {
		diskMap := make(map[msg.NodeID]uint64, opts.Disks)
		for d := 0; d < opts.Disks; d++ {
			id := FirstDisk + msg.NodeID(len(cl.Disks))
			dev := disk.New(id, disk.Config{Blocks: opts.DiskBlocks, ServiceTime: opts.DiskService},
				s.NewClock(1, 0),
				func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
				cl.Reg, disk.Observer{}, disk.WithTracer(opts.Tracer))
			cl.Disks = append(cl.Disks, dev)
			cl.SAN.Attach(id, dev.Deliver)
			diskMap[id] = opts.DiskBlocks
			cl.allDisks[id] = opts.DiskBlocks
		}
		cl.Shards = append(cl.Shards, Shard{ID: ServerID(si), Disks: diskMap})
		if opts.NoChecker {
			cl.Checkers = append(cl.Checkers, nil)
		} else {
			cl.Checkers = append(cl.Checkers, checker.New(s))
		}
	}

	// Servers: attached to both networks (Fig 1).
	for si := range cl.Shards {
		sh := &cl.Shards[si]
		if opts.Replicas < 2 {
			sh.Server = cl.bootServer(sh.ID, cl.serverConfig(sh, nil, nil), serverClock())
			continue
		}
		// Replicated authority: M diskless negotiators share one metadata
		// store (HA server-private storage) and elect the active.
		sh.Store = meta.NewStore(meta.NewAllocator(sh.Disks))
		for j := 0; j < opts.Replicas; j++ {
			sh.Group = append(sh.Group, ReplicaID(si, j))
		}
		for _, rid := range sh.Group {
			sh.Replicas = append(sh.Replicas, cl.bootServer(rid,
				cl.serverConfig(sh, sh.Store, cl.replicaConfig(sh, rid, false)), serverClock()))
		}
		sh.Server = sh.Replicas[0]
	}

	// Client nodes: attached to both networks, one clock each — a machine
	// has one oscillator, whatever the number of authorities it faces.
	auths := make([]client.Authority, len(cl.Shards))
	oracles := make([]checker.Oracle, len(cl.Shards))
	for si, sh := range cl.Shards {
		auths[si] = client.Authority{ID: sh.ID, Group: sh.Group}
		if cl.Checkers[si] != nil {
			oracles[si] = cl.Checkers[si]
		}
	}
	var place func(path string) (int, bool)
	if opts.Placement != nil {
		place = opts.Placement.Owner
	}
	ccfg := client.Config{
		Core: opts.Core, Policy: opts.Policy,
		FlushInterval: opts.FlushInterval, DisableReassert: opts.DisableReassert,
		CacheMaxPages: opts.CacheMaxPages, CacheQuota: opts.CacheQuota,
		FlushBatch: opts.FlushBatch, Prefetch: opts.Prefetch,
	}
	for i := 0; i < opts.Clients; i++ {
		id := ClientID(i)
		var clock sim.Clock = newClock()
		if i < len(opts.ClientRates) && opts.ClientRates[i] > 0 {
			clock = s.NewClock(opts.ClientRates[i], 0)
		}
		c := client.NewRouter(id, auths, ccfg, clock,
			func(to msg.NodeID, m msg.Message) { cl.Control.Send(id, to, m) },
			func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
			place, oracles, cl.Reg, opts.Tracer)
		cl.Clients = append(cl.Clients, c)
		cl.Control.Attach(id, c.Deliver)
		cl.SAN.Attach(id, c.DeliverSAN)
	}
	return cl
}

// serverConfig builds one shard's server configuration: the shard
// allocates from its own disks and fences the installation-wide disk set,
// since a handed-off file's blocks may live on any shard's disks. Under a
// placement it serves the map's slice of the namespace (server.New then
// materializes missing parents). store is non-nil on restart and for
// replicas.
func (cl *Cluster) serverConfig(sh *Shard, store *meta.Store, rep *replica.Config) server.Config {
	o := &cl.Opts
	cfg := server.Config{
		Core: o.Core, Policy: o.Policy, Disks: sh.Disks, FenceDisks: cl.allDisks,
		NoNACK: o.NoNACK, DisableFence: o.DisableFence,
		Store: store, GracePeriod: o.GracePeriod, Replica: rep,
		ServiceTime: o.ServerService,
	}
	if c := cl.Checkers[sh.ID-ServerID(0)]; c != nil {
		cfg.Oracle = c // a nil *Checker in the interface would not be a nil Oracle
	}
	if o.Placement != nil {
		ids := make([]msg.NodeID, len(cl.Shards))
		for si := range ids {
			ids[si] = cl.Shards[si].ID
		}
		cfg.PlaceOwner = shard.OwnerID(o.Placement, ids)
	}
	return cfg
}

// replicaConfig builds the negotiation parameters for one member of a
// shard's authority group.
func (cl *Cluster) replicaConfig(sh *Shard, self msg.NodeID, warmup bool) *replica.Config {
	term := cl.Opts.ReplicaLeaseTerm
	if term == 0 {
		term = replica.DefaultLeaseTerm
	}
	return &replica.Config{
		Self: self, Group: sh.Group,
		LeaseTerm: term, Bound: cl.Opts.Core.Bound,
		RetryInterval: cl.Opts.Core.RetryInterval,
		Warmup:        warmup,
	}
}

// bootServer creates and attaches one server (or replica) node.
func (cl *Cluster) bootServer(id msg.NodeID, cfg server.Config, clock sim.Clock) *server.Server {
	srv := server.New(id, cfg, clock,
		func(to msg.NodeID, m msg.Message) { cl.Control.Send(id, to, m) },
		func(to msg.NodeID, m msg.Message) { cl.SAN.Send(id, to, m) },
		cl.Reg, cl.Opts.Tracer)
	cl.Control.Attach(id, srv.Deliver)
	cl.SAN.Attach(id, srv.DeliverSAN)
	return srv
}

// observeNetworks counts message traffic per network and kind, and the
// frame-body bytes the live codec would write for it. The
// observer runs once per simulated message, so a kind's counter handles
// are resolved once, at its first message — building the counter name per
// event would put two string concatenations and a mutex-guarded map
// lookup on the simulator's hottest path, and resolving every kind up
// front would charge each installation for counters it never moves. The
// arrays end at the last Kind; a Kind added after it must grow them.
func (cl *Cluster) observeNetworks() {
	count := func(net string) func(simnet.Event) {
		var sent, delivered [msg.KindReplica + 1]*stats.Counter
		bytes := cl.Reg.Counter(net + ".bytes")
		var coder msg.Coder
		return func(e simnet.Event) {
			k := e.Env.Payload.Kind()
			if sent[k] == nil {
				sent[k] = cl.Reg.Counter(net + ".sent." + k.String())
				delivered[k] = cl.Reg.Counter(net + ".delivered." + k.String())
			}
			sent[k].Inc()
			meta, tail, _ := coder.Size(&e.Env) // a message without a layout counts 0
			bytes.Add(uint64(meta + len(tail)))
			if e.Delivered {
				delivered[k].Inc()
			}
		}
	}
	cl.Control.Observer = count("net.control")
	cl.SAN.Observer = count("net.san")
}

// Start registers every protocol instance with its authority (client by
// client, in shard order, for deterministic replay) and runs the
// simulation until all are registered (panics after a generous bound —
// registration cannot hang on a healthy network).
func (cl *Cluster) Start() {
	for _, c := range cl.Clients {
		c.Start()
	}
	deadline := cl.Sched.Now().Add(time.Minute)
	// Cursor over the clients: registrations complete roughly in order, so
	// the predicate stays O(1) amortized even at 10k clients × 8 shards.
	i := 0
	cl.Sched.RunWhile(func() bool {
		if cl.Sched.Now().After(deadline) {
			panic("cluster: clients failed to register")
		}
		for i < len(cl.Clients) && cl.Clients[i].Registered() {
			i++
		}
		return i < len(cl.Clients)
	})
}

// Await runs the simulation until the operation started by start calls
// done, or the queue drains, or maxSim elapses. It reports completion.
func (cl *Cluster) Await(maxSim time.Duration, start func(done func())) bool {
	finished := false
	deadline := cl.Sched.Now().Add(maxSim)
	start(func() { finished = true })
	cl.Sched.RunWhile(func() bool {
		return !finished && !cl.Sched.Now().After(deadline)
	})
	return finished
}

// RunFor advances the installation by d of simulated time.
func (cl *Cluster) RunFor(d time.Duration) { cl.Sched.RunFor(d) }

// SyncClient returns a blocking wrapper over client i's protocol instance
// for the first authority — the whole client in a single-server
// installation — pumped by the simulator: each call advances the
// scheduler until the operation completes (at most a simulated minute).
func (cl *Cluster) SyncClient(i int) *client.SyncClient {
	return client.NewSync(cl.Clients[i].Sub(0), func(start func(done func())) bool {
		return cl.Await(time.Minute, start)
	})
}

// FinalCheck audits every shard's history and returns all violations.
func (cl *Cluster) FinalCheck() []checker.Violation {
	for _, c := range cl.Checkers {
		if c != nil {
			c.FinalCheck()
		}
	}
	return cl.Violations()
}

// Violations returns what every shard's oracle has recorded so far.
func (cl *Cluster) Violations() []checker.Violation {
	var out []checker.Violation
	for _, c := range cl.Checkers {
		if c != nil {
			out = append(out, c.Violations()...)
		}
	}
	return out
}

// LeasePhases reports client i's lease phase per shard, in shard order.
func (cl *Cluster) LeasePhases(i int) []core.Phase {
	subs := cl.Clients[i].Subs()
	out := make([]core.Phase, len(subs))
	for si, sub := range subs {
		out[si] = sub.Lease().Phase()
	}
	return out
}

// --- Synchronous convenience wrappers (tests, examples, experiments) --------

// MustOpen opens (optionally creating) a file on client i.
func (cl *Cluster) MustOpen(i int, path string, write, create bool) (msg.Handle, msg.Attr) {
	h, attr, errno := cl.Open(i, path, write, create)
	if errno != msg.OK {
		panic(fmt.Sprintf("cluster: open %s on client %d: %v", path, i, errno))
	}
	return h, attr
}

// Open opens a file and returns the errno (ErrStale if the simulation
// ran out first).
func (cl *Cluster) Open(i int, path string, write, create bool) (msg.Handle, msg.Attr, msg.Errno) {
	var h msg.Handle
	var attr msg.Attr
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Open(path, write, create, func(gh msg.Handle, a msg.Attr, e msg.Errno) {
			h, attr, errno = gh, a, e
			done()
		})
	})
	return h, attr, errno
}

// errnoOp drives one ErrnoCallback-shaped operation to completion.
func (cl *Cluster) errnoOp(start func(cb client.ErrnoCallback)) msg.Errno {
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		start(func(e msg.Errno) {
			errno = e
			done()
		})
	})
	return errno
}

// Write writes one block on client i and returns the errno (which
// reflects acceptance into the write-back cache).
func (cl *Cluster) Write(i int, h msg.Handle, idx uint64, data []byte) msg.Errno {
	return cl.errnoOp(func(cb client.ErrnoCallback) { cl.Clients[i].Write(h, idx, data, cb) })
}

// Read reads one block on client i.
func (cl *Cluster) Read(i int, h msg.Handle, idx uint64) ([]byte, msg.Errno) {
	var data []byte
	errno := msg.ErrStale
	cl.Await(time.Minute, func(done func()) {
		cl.Clients[i].Read(h, idx, func(d []byte, e msg.Errno) {
			data, errno = d, e
			done()
		})
	})
	return data, errno
}

// Sync flushes client i's dirty data on every shard.
func (cl *Cluster) Sync(i int) msg.Errno {
	return cl.errnoOp(cl.Clients[i].Sync)
}

// Rename moves oldPath to newPath from client i.
func (cl *Cluster) Rename(i int, oldPath, newPath string) msg.Errno {
	return cl.errnoOp(func(cb client.ErrnoCallback) { cl.Clients[i].Rename(oldPath, newPath, cb) })
}

// Close closes a handle on client i.
func (cl *Cluster) Close(i int, h msg.Handle) msg.Errno {
	return cl.errnoOp(func(cb client.ErrnoCallback) { cl.Clients[i].Close(h, cb) })
}

// --- Fault injection ----------------------------------------------------------

// IsolateClient cuts client i off the control network only — the paper's
// canonical failure (Fig 2): the SAN still works.
func (cl *Cluster) IsolateClient(i int) { cl.Control.Isolate(ClientID(i)) }

// IsolatePair blocks the control-network link between client ci and
// shard si only — the narrowest possible failure, invalidating exactly
// one lease.
func (cl *Cluster) IsolatePair(ci, si int) {
	cl.Control.Block(ClientID(ci), ServerID(si))
}

// IsolateServers blocks the server-to-server control link between shards
// si and sj (a handoff mid-flight stalls until HealControl).
func (cl *Cluster) IsolateServers(si, sj int) {
	cl.Control.Block(ServerID(si), ServerID(sj))
}

// HealControl removes all control-network partitions.
func (cl *Cluster) HealControl() { cl.Control.Heal() }

// CrashClient fails client i on both networks and discards its state.
func (cl *Cluster) CrashClient(i int) {
	cl.Clients[i].Crash()
	cl.Control.Crash(ClientID(i))
	cl.SAN.Crash(ClientID(i))
}

// CrashServer fails shard si's metadata server: volatile state (locks,
// epochs, lease bookkeeping) is gone; the metadata store — including
// export records and the import ledger — survives on the server's
// private highly-available storage (§6). While down, the server receives
// nothing.
func (cl *Cluster) CrashServer(si int) {
	sh := &cl.Shards[si]
	sh.Server.Stop()
	cl.Control.Crash(sh.ID)
	cl.SAN.Crash(sh.ID)
}

// RestartServer brings a crashed shard back with the recovered store and
// a reassertion grace window; clients rebuild its lock state (§6), and a
// pending export found in the store is re-driven immediately
// (server.New).
func (cl *Cluster) RestartServer(si int) {
	sh := &cl.Shards[si]
	cl.Control.Restart(sh.ID)
	cl.SAN.Restart(sh.ID)
	sh.Server = cl.bootServer(sh.ID, cl.serverConfig(sh, sh.Server.Store(), nil), cl.Sched.NewClock(1, 0))
}

// CrashReplica fails member ri of shard si's authority group: its
// negotiator, volatile state, and network presence are gone; the shared
// store (HA server-private storage) survives.
func (cl *Cluster) CrashReplica(si, ri int) {
	srv := cl.Shards[si].Replicas[ri]
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
	srv := cl.bootServer(rid, cl.serverConfig(sh, sh.Store, cl.replicaConfig(sh, rid, true)),
		cl.Sched.NewClock(1, 0))
	sh.Replicas[ri] = srv
	if ri == 0 {
		sh.Server = srv
	}
}

// BlockSize re-exports the installation's data block size.
const BlockSize = client.BlockSize
