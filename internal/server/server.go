// Package server implements the Storage Tank metadata server: metadata
// transactions, the locking authority, and — via internal/core — the
// passive lease authority. The server never touches file data on the
// default (direct) data path; with the function-ship policy it also
// performs disk I/O on clients' behalf, reproducing the traditional
// client/server architecture for comparison (F1).
package server

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/lock"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/replica"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sender transmits a message on one of the two networks.
type Sender func(to msg.NodeID, m msg.Message)

// Config parameterizes a server.
type Config struct {
	Core   core.Config
	Policy baselines.Policy
	// Disks lists the SAN block devices and their capacities.
	Disks map[msg.NodeID]uint64
	// NoNACK (ablation, F5): instead of negatively acknowledging suspect
	// clients, silently ignore their requests. Correct but wasteful —
	// §3.3's argument for the NACK.
	NoNACK bool
	// DisableFence (ablation, T6): skip the fence when stealing. Exposes
	// the slow-computer hazard §6 retains fencing for.
	DisableFence bool
	// Store, when non-nil, is the metadata store a restarted server
	// recovers (the paper's server-private storage is highly available,
	// §6); volatile state — locks, epochs, leases — is rebuilt by client
	// reassertion during the grace period.
	Store *meta.Store
	// GracePeriod is how long a restarted server accepts Reassert and
	// defers NEW lock acquires. Defaults to τ(1+ε): after that, every
	// pre-restart lease has provably expired, so unreasserted locks are
	// safe to hand out.
	GracePeriod time.Duration
	// PlaceOwner, when set, makes this server one shard of a partitioned
	// namespace: it maps an absolute path to the lease authority that
	// owns it. A Rename whose destination resolves to another authority
	// runs the cross-shard handoff (shard.go) instead of a local move,
	// and Create materializes missing parents (each shard sees only its
	// slice of the tree). Nil = sole authority, behavior unchanged.
	PlaceOwner func(path string) msg.NodeID
	// FenceDisks, when non-nil, is the full set of SAN disks fences are
	// administered on. A shard allocates only from its own Disks, but a
	// client it steals from may hold handed-off blocks on any disk, so
	// shards fence installation-wide. Nil = fence on Disks.
	FenceDisks map[msg.NodeID]uint64
	// ServiceTime, when positive, models the server as a single-threaded
	// request processor: control requests are serviced one at a time,
	// ServiceTime each, FIFO. This is what makes a one-shard metadata
	// authority saturate in the scale benchmark — with zero service time
	// the simulated server has infinite capacity and sharding shows no
	// curve. 0 preserves the immediate-execution behavior everywhere
	// else.
	ServiceTime time.Duration
	// Replica, when non-nil, makes this server one member of a replicated
	// authority group (replica.go): it boots passive and serves clients
	// only while it holds the PaxosLease-negotiated authority lease.
	// Nil = sole authority, behavior unchanged.
	Replica *replica.Config
	// MetaPersist, when set, makes the metadata store durable (a live
	// server is a process, so the paper's highly-available server-private
	// storage is modeled as files): it names the snapshot file, and
	// MetaPersist+".log" is the redo journal behind it (internal/meta,
	// persist.go). The server recovers from the pair — at boot, or at
	// activation when replicated, every member naming the same path —
	// and commits the journal before every message it sends. Empty =
	// in-memory only (the sim models HA by sharing the Store).
	MetaPersist string
	// Oracle, when non-nil, hears what every acknowledged mutation changed
	// in the namespace (the simulated installation's consistency checker;
	// nil = nobody listens).
	Oracle checker.Oracle
}

// withDefaults fills unset fields.
func (c Config) withDefaults() Config {
	if c.GracePeriod == 0 {
		c.GracePeriod = c.Core.StealDelay()
	}
	return c
}

// replyCacheKeep bounds the at-most-once reply cache per client.
const replyCacheKeep = 128

type objLeaseKey struct {
	client msg.NodeID
	ino    msg.ObjectID
}

// Server is one metadata server node.
type Server struct {
	id    msg.NodeID
	cfg   Config
	clock sim.Clock
	ctrl  Sender
	san   Sender

	store  *meta.Store
	locks  *lock.Table
	auth   *core.Authority
	rcache *core.ReplyCache

	// Replicated-authority state (replica.go). neg is nil for a sole
	// authority; activeFlg tracks whether this replica currently holds
	// the authority lease.
	neg       *replica.Negotiator
	activeFlg bool

	// Registration state (lock/FS state, not lease state): epoch per
	// registered client, open handles.
	epochs     map[msg.NodeID]msg.Epoch
	handles    map[msg.NodeID]map[msg.Handle]msg.ObjectID
	nextHandle msg.Handle

	// Outstanding demands awaiting transport-level DemandAck.
	demands map[msg.DemandID]*pendingDemand
	// The retransmission queues of demands, SAN requests and handoffs.
	demandRetry  *sim.Retries[*pendingDemand]
	sanRetry     *sim.Retries[*sanCall]
	handoffRetry *sim.Retries[*pendingHandoff]
	// parked holds the mutations waiting for a directory lock to come back
	// (namespace.go).
	parked map[dirWait][]*mutation

	// mustRejoin marks clients whose locks were stolen under non-lease
	// policies; they are NACKed until they Rejoin (a merged partition's
	// requests are "merely denied", §1.2).
	mustRejoin map[msg.NodeID]bool
	// fencedClients tracks who is fenced at the disks, so rejoin can lift
	// the fence.
	fencedClients map[msg.NodeID]bool
	// rejoining is the client whose Rejoin is being handled, if any.
	rejoining msg.NodeID

	// Heartbeat baseline state (always resident for that policy).
	lastHeard map[msg.NodeID]sim.Time
	hbTimers  map[msg.NodeID]sim.Timer

	// Per-object (V) baseline state.
	objLeases map[objLeaseKey]sim.Time
	vTimers   map[msg.NodeID]sim.Timer

	// Server-side SAN requests (fencing, function-ship I/O).
	sanPending map[msg.ReqID]*sanCall
	nextSANReq msg.ReqID

	// Outbound cross-shard handoffs awaiting the destination's answer
	// (shard.go), keyed by durable handoff ID.
	handoffs map[uint64]*pendingHandoff

	// busyUntil serializes request execution when ServiceTime is set
	// (the single-threaded-server model; see Config.ServiceTime).
	busyUntil sim.Time

	// graceUntil bounds the post-restart reassertion window (server
	// clock); zero for a fresh (first-boot) server.
	graceUntil sim.Time
	inRecovery bool
	// stopped marks a server instance that has been replaced after a
	// crash: it ignores deliveries and suppresses sends, so stale timers
	// on the shared clock cannot act on the dead incarnation.
	stopped bool

	reg    *stats.Registry
	tracer *trace.Tracer
	// Counters the experiments read.
	transactions *stats.Counter
	msgsIn       *stats.Counter
	msgsOut      *stats.Counter
	bytesIn      *stats.Counter
	bytesOut     *stats.Counter
	dataBytes    *stats.Counter // file data moved through the server
	leaseOps     *stats.Counter // lease-specific server work (baselines)
	leaseBytes   *stats.Gauge   // lease state held (baselines + authority)
	nacksSent    *stats.Counter
	demandsSent  *stats.Counter
	fences       *stats.Counter
	// locksHeld mirrors the lock table's holder-entry count, named
	// server.<id>.locks_held so a sharded installation's SIGUSR1 dump
	// shows each authority's load side by side.
	locksHeld *stats.Gauge
	// dirGrants counts directory locks handed out on replies, dirRevokes
	// the demands sent to take one back (both per server, like locks_held;
	// a directory demand is also a demand in demands_sent).
	dirGrants  *stats.Counter
	dirRevokes *stats.Counter
	// roleGauge/ballotGauge expose the replica role (a msg.Role* value)
	// and current negotiation ballot per server, same per-id naming.
	roleGauge     *stats.Gauge
	ballotGauge   *stats.Gauge
	redirectsSent *stats.Counter
}

// New creates a server. reg and tr may be nil; tr receives the server's
// lease-lifecycle events (steal timers, demands, fences, rejoins).
func New(id msg.NodeID, cfg Config, clock sim.Clock, ctrl, san Sender,
	reg *stats.Registry, tr *trace.Tracer) *Server {
	cfg = cfg.withDefaults()
	if err := cfg.Core.Validate(); err != nil {
		panic(err)
	}
	if err := cfg.Policy.Validate(); err != nil {
		panic(err)
	}
	if reg == nil {
		reg = stats.NewRegistry()
	}
	prefix := "server."
	s := &Server{
		id:            id,
		cfg:           cfg,
		clock:         clock,
		ctrl:          ctrl,
		san:           san,
		store:         meta.NewStore(meta.NewAllocator(cfg.Disks)),
		rcache:        core.NewReplyCache(replyCacheKeep, reg, prefix),
		epochs:        make(map[msg.NodeID]msg.Epoch),
		handles:       make(map[msg.NodeID]map[msg.Handle]msg.ObjectID),
		demands:       make(map[msg.DemandID]*pendingDemand),
		parked:        make(map[dirWait][]*mutation),
		mustRejoin:    make(map[msg.NodeID]bool),
		fencedClients: make(map[msg.NodeID]bool),
		lastHeard:     make(map[msg.NodeID]sim.Time),
		hbTimers:      make(map[msg.NodeID]sim.Timer),
		objLeases:     make(map[objLeaseKey]sim.Time),
		vTimers:       make(map[msg.NodeID]sim.Timer),
		sanPending:    make(map[msg.ReqID]*sanCall),
		handoffs:      make(map[uint64]*pendingHandoff),

		reg:           reg,
		transactions:  reg.Counter(prefix + "transactions"),
		msgsIn:        reg.Counter(prefix + "msgs_in"),
		msgsOut:       reg.Counter(prefix + "msgs_out"),
		bytesIn:       reg.Counter(prefix + "bytes_in"),
		bytesOut:      reg.Counter(prefix + "bytes_out"),
		dataBytes:     reg.Counter(prefix + "data_bytes"),
		leaseOps:      reg.Counter(prefix + "lease_ops"),
		leaseBytes:    reg.Gauge(prefix + "lease_state_bytes"),
		nacksSent:     reg.Counter(prefix + "nacks_sent"),
		demandsSent:   reg.Counter(prefix + "demands_sent"),
		fences:        reg.Counter(prefix + "fences"),
		locksHeld:     reg.Gauge(fmt.Sprintf("server.%v.locks_held", id)),
		dirGrants:     reg.Counter(fmt.Sprintf("server.%v.dir_grants", id)),
		dirRevokes:    reg.Counter(fmt.Sprintf("server.%v.dir_revokes", id)),
		roleGauge:     reg.Gauge(fmt.Sprintf("server.%v.role", id)),
		ballotGauge:   reg.Gauge(fmt.Sprintf("server.%v.ballot", id)),
		redirectsSent: reg.Counter(prefix + "redirects_sent"),
	}
	s.tracer = tr
	s.demandRetry = sim.NewRetries(clock, cfg.Core.RetryInterval, s.retransmitDemand)
	s.sanRetry = sim.NewRetries(clock, cfg.Core.RetryInterval, s.transmitSAN)
	s.handoffRetry = sim.NewRetries(clock, cfg.Core.RetryInterval, s.transmitHandoff)
	s.locks = lock.NewTable(demanderFunc(s.sendDemand))
	s.auth = core.NewAuthority(cfg.Core, clock, authorityActions{s},
		core.Env{Reg: reg, Prefix: prefix, Tracer: tr, Node: id})
	if cfg.Store != nil {
		s.store = cfg.Store
	}
	if cfg.Replica == nil {
		// A restart recovers the durable store — handed over by the sim
		// harness, or read back from MetaPersist, where a nonzero epoch
		// counter says clients registered before this boot — and opens
		// the grace window. (A replicated server defers this to
		// activation — see activate in replica.go.)
		restart := cfg.Store != nil
		if cfg.MetaPersist != "" {
			s.recoverMeta()
			restart = s.store.CurrentEpoch() > 0
		}
		if restart {
			s.inRecovery = true
			s.graceUntil = clock.Now().Add(cfg.GracePeriod)
			clock.AfterFunc(cfg.GracePeriod, func() {
				if s.stopped {
					// This incarnation crashed during its grace window and
					// was replaced; like every other timer path, a stale
					// callback must not act on the dead incarnation.
					return
				}
				s.inRecovery = false
			})
		}
	}
	if cfg.Replica != nil {
		s.neg = replica.New(*cfg.Replica, clock,
			func(to msg.NodeID, m msg.Message) { s.send(to, m) }, tr)
		s.neg.OnActive = s.activate
		s.neg.OnStepdown = s.deactivate
		s.neg.Start()
	} else {
		s.activeFlg = true
	}
	if cfg.PlaceOwner != nil {
		s.store.SetAutoParents(true)
		// Re-drive handoffs interrupted by a crash: the durable export
		// records survive in the store, the destination's import ledger
		// makes retransmission idempotent. The requesting client's reply
		// is gone with the crash; it retries and attaches to the export.
		// A passive replica defers this to activation.
		if s.authorityHeld() {
			for _, e := range s.store.PendingExports() {
				s.resumeHandoff(e)
			}
		}
	}
	s.syncRoleGauges()
	return s
}

// Stop retires this server instance (crash simulation): deliveries are
// ignored and outbound messages suppressed, so timers still pending on
// the shared clock cannot act for the dead incarnation.
func (s *Server) Stop() {
	s.stopped = true
	if s.neg != nil {
		s.neg.Stop()
	}
	s.closeJournal()
}

// Stopped reports whether this incarnation has been retired by Stop.
func (s *Server) Stopped() bool { return s.stopped }

// InGrace reports whether the post-restart reassertion window is open.
func (s *Server) InGrace() bool {
	return s.inRecovery && s.clock.Now().Before(s.graceUntil)
}

// Recovering reports whether this incarnation still considers itself in
// post-restart recovery. For a stopped (crashed) incarnation the flag is
// frozen at its crash-time value: the stale grace timer must not mutate
// a retired server.
func (s *Server) Recovering() bool { return s.inRecovery }

type demanderFunc func(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID)

func (f demanderFunc) Demand(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID) {
	f(holder, ino, to, id)
}

type authorityActions struct{ s *Server }

func (a authorityActions) StealLocks(client msg.NodeID) {
	a.s.stealAndFence(client, client != a.s.rejoining)
}

// ID returns the server's node ID.
func (s *Server) ID() msg.NodeID { return s.id }

// Store exposes the metadata store to tests and the cluster harness.
func (s *Server) Store() *meta.Store { return s.store }

// Locks exposes the lock table to tests.
func (s *Server) Locks() *lock.Table { return s.locks }

// Authority exposes the lease authority to tests and experiments.
func (s *Server) Authority() *core.Authority { return s.auth }

// Registered reports whether the client currently holds a valid epoch.
func (s *Server) Registered(c msg.NodeID) bool { return s.epochs[c] != 0 }

// Deliver is the server's control-network handler.
func (s *Server) Deliver(env msg.Envelope) {
	if s.stopped {
		return
	}
	s.msgsIn.Inc()
	s.bytesIn.Add(uint64(env.Payload.Size()))
	switch m := env.Payload.(type) {
	case msg.Request:
		s.withService(func() {
			s.handleRequest(m)
			s.syncLocksHeld()
		})
	case *msg.DemandAck:
		s.retireDemand(m.ID, m.Client)
	case *msg.ShardMigrate:
		s.handleShardMigrate(m)
	case *msg.ShardMigrateRes:
		s.handleShardMigrateRes(m)
	case *msg.ReplicaPrepare, *msg.ReplicaPromise, *msg.ReplicaPropose, *msg.ReplicaAccept:
		if s.neg != nil {
			s.neg.Deliver(env.Payload)
			s.syncRoleGauges()
		}
	default:
		// Unknown control traffic is dropped, like any datagram service.
	}
}

// withService models the single-threaded request processor when
// Config.ServiceTime is set: one request at a time, FIFO, like
// disk.withService models the single actuator. Zero service time keeps
// the historical execute-on-delivery behavior.
func (s *Server) withService(fn func()) {
	if s.cfg.ServiceTime <= 0 {
		fn()
		return
	}
	now := s.clock.Now()
	start := now
	if s.busyUntil.After(start) {
		start = s.busyUntil
	}
	s.busyUntil = start.Add(s.cfg.ServiceTime)
	s.clock.AfterFunc(s.busyUntil.Sub(now), func() {
		if s.stopped {
			return
		}
		fn()
	})
}

// syncLocksHeld refreshes the per-shard locks_held gauge (O(1): the
// table maintains the count incrementally).
func (s *Server) syncLocksHeld() {
	s.locksHeld.Set(int64(s.locks.HeldCount()))
}

// DeliverSAN is the server's SAN handler (fence acks, function-ship I/O
// replies).
func (s *Server) DeliverSAN(env msg.Envelope) {
	if s.stopped {
		return
	}
	switch m := env.Payload.(type) {
	case *msg.FenceRes:
		s.handleSANReply(m.Req, m, msg.OK)
	case *msg.DiskReadRes:
		s.handleSANReply(m.Req, m, m.Err)
	case *msg.DiskWriteRes:
		s.handleSANReply(m.Req, m, m.Err)
	}
}

// send wraps the control-network sender with accounting. It commits the
// metadata journal first: no mutation a message acknowledges — a reply
// to a client, a ShardMigrateRes to a peer authority — may die with this
// process (persist-before-send; tanklint's ackdurable pass checks it).
// The commit is a no-op when nothing mutated or no journal is attached.
// A server that cannot persist must not answer, and has no one to report
// to: it fails stop, and its clients fail over or retry after a restart.
func (s *Server) send(to msg.NodeID, m msg.Message) {
	if s.stopped {
		return
	}
	if err := s.store.Commit(); err != nil {
		panic(fmt.Sprintf("server %v: committing metadata journal: %v", s.id, err))
	}
	s.msgsOut.Inc()
	s.bytesOut.Add(uint64(m.Size()))
	s.ctrl(to, m)
}

// reply completes a request through the at-most-once cache.
func (s *Server) reply(client msg.NodeID, req msg.ReqID, r *msg.Reply) {
	r.Client = client
	r.Req = req
	s.rcache.Complete(client, req, r)
	s.send(client, r)
}

// nack refuses service without executing or caching: a NACK is not an
// answer, and the client may legitimately retry after rejoining.
func (s *Server) nack(client msg.NodeID, req msg.ReqID) {
	s.nacksSent.Inc()
	s.emit(trace.Event{Type: trace.EvNACKSent, Peer: client})
	s.send(client, &msg.Reply{Client: client, Req: req, Status: msg.NACK})
}

// emit stamps ev with the server's identity and clock reading and hands
// it to the tracer, if any.
func (s *Server) emit(ev trace.Event) {
	if !s.tracer.Enabled() {
		return
	}
	ev.Node = s.id
	ev.Time = s.clock.Now()
	s.tracer.Emit(ev)
}

func (s *Server) String() string {
	return fmt.Sprintf("server %v (%s)", s.id, s.cfg.Policy.Name)
}

// BlockSize re-exports the device block size for convenience.
const BlockSize = disk.BlockSize
