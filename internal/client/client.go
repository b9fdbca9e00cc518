// Package client implements the Storage Tank file-system client: the
// write-back cache, direct SAN data path, lock caching, demand
// compliance, and — through internal/core — the four-phase lease state
// machine that makes caching safe when the control network fails.
//
// The client is fully event-driven: every file-system operation is
// asynchronous, completing through a callback, so the same code runs
// under the deterministic simulator and under the live TCP transport.
// Baseline behaviours (heartbeat leases, per-object leases, no lease,
// function-shipped data, NFS-style polling) are selected by
// baselines.Policy so that comparisons exercise identical code paths
// everywhere except the safety mechanism under test.
package client

import (
	"fmt"
	"time"

	"repro/internal/baselines"
	"repro/internal/bufpool"
	"repro/internal/cache"
	"repro/internal/checker"
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Sender transmits a message on one of the two networks.
type Sender func(to msg.NodeID, m msg.Message)

// Config parameterizes a client.
type Config struct {
	Core   core.Config
	Policy baselines.Policy
	// FlushInterval, when nonzero, write-backs dirty data periodically
	// even without demands (bounds the at-risk window).
	FlushInterval time.Duration
	// HeartbeatInterval/HeartbeatTTL drive the Frangipani baseline
	// (defaults: TTL = Core.Tau, interval = TTL/3).
	HeartbeatInterval time.Duration
	HeartbeatTTL      time.Duration
	// PerObjectTTL/PerObjectRenewInterval drive the V baseline
	// (defaults: TTL = Core.Tau, interval = TTL/2).
	PerObjectTTL           time.Duration
	PerObjectRenewInterval time.Duration
	// AttrTTL drives the NFS-poll baseline's attribute cache (default
	// 3s, NFS's classic actimeo floor).
	AttrTTL time.Duration
	// DisableReassert (ablation): skip lock reassertion after a server
	// restart and always run the full lease recovery (cache loss).
	DisableReassert bool
	// CacheMaxPages bounds the resident data cache; clean pages are
	// evicted LRU beyond it (0 = unbounded). Dirty pages are pinned.
	CacheMaxPages int
	// CacheQuota bounds the resident data cache in bytes, counted after
	// content dedup — pages sharing one content block cost its size once
	// (0 = unbounded). Clean pages are evicted LRU beyond it; dirty
	// pages are pinned. Both CacheMaxPages and CacheQuota may be set.
	CacheQuota int64
	// FlushBatch bounds how many dirty pages one vectored SAN write may
	// carry (per target disk). 0 selects DefaultFlushBatch; 1 disables
	// coalescing and restores the per-page DiskWrite flush path.
	FlushBatch int
	// Prefetch is the largest read-ahead window, in blocks: 0 selects
	// DefaultPrefetch, negative disables read-ahead, n caps the window at
	// n. A run of consecutive reads starts with a small window and doubles
	// it up to this (prefetch.go); whatever is set here, the window never
	// exceeds a quarter of the cache's page budget (CacheMaxPages,
	// CacheQuota).
	Prefetch int
	// SANReqBase offsets the client's SAN request-ID sequence and marks
	// the handles it gives out. A node runs one Client per lease authority
	// behind a single SAN identity (Router sets this); disjoint bases keep
	// request IDs from colliding and let the router find the issuing
	// instance of a disk reply or a handle in the ID's high bits
	// (DESIGN.md §14).
	SANReqBase msg.ReqID
	// Replicas, when the authority is replicated, lists the full replica
	// group for this client's server (including the primary). The channel
	// rotates among them on ErrNotActive redirects and on silent targets
	// (DESIGN.md §15).
	Replicas []msg.NodeID
}

// DefaultFlushBatch is the flush coalescing bound used when
// Config.FlushBatch is zero.
const DefaultFlushBatch = 32

// DefaultPrefetch is the largest read-ahead window when Config.Prefetch
// is zero.
const DefaultPrefetch = 32

func (c Config) withDefaults() Config {
	if c.HeartbeatTTL == 0 {
		c.HeartbeatTTL = c.Core.Tau
	}
	if c.HeartbeatInterval == 0 {
		c.HeartbeatInterval = c.HeartbeatTTL / 3
	}
	if c.PerObjectTTL == 0 {
		c.PerObjectTTL = c.Core.Tau
	}
	if c.PerObjectRenewInterval == 0 {
		c.PerObjectRenewInterval = c.PerObjectTTL / 2
	}
	if c.AttrTTL == 0 {
		c.AttrTTL = 3 * time.Second
	}
	return c
}

type handleInfo struct {
	ino   msg.ObjectID
	write bool
}

type sanPending struct {
	cb    func(reply msg.Message, errno msg.Errno)
	timer sim.Timer
	// tries counts retransmissions. buf (set for flush writes whose
	// payload lives in a pooled buffer) is recycled on acknowledgment
	// ONLY when tries is still zero: once a retransmission exists, a
	// duplicate delivery may sit in a disk's deferred service queue — or
	// a second writev may be in flight — still aliasing the buffer, so
	// the pool never gets it back (the garbage collector does). A plain
	// slice rather than a release closure: flushing allocates nothing
	// per page beyond the message itself.
	tries int
	buf   []byte
}

// Client is one file-system client node.
type Client struct {
	id     msg.NodeID
	cfg    Config
	clock  sim.Clock
	ctrl   Sender
	san    Sender
	server msg.NodeID
	oracle checker.Oracle

	chn   *core.Channel
	lease *core.LeaseClient // non-nil only for LeaseStorageTank
	cache *cache.Cache

	registered bool
	quiesced   bool
	recovering bool
	crashedFlg bool
	// reassertTried limits lock reassertion (§6 server recovery) to one
	// attempt per lease episode.
	reassertTried bool

	handles    map[msg.Handle]handleInfo
	sanCalls   map[msg.ReqID]*sanPending
	nextSANReq msg.ReqID
	inflight   int
	// lockedInos tracks the data locks this client believes it holds.
	lockedInos map[msg.ObjectID]msg.LockMode
	// ioCount/ioWaiters reference-count in-flight data operations per
	// object: lock downgrades (demand compliance, V-lease purges) wait
	// until operations started under the lock drain, so an in-flight read
	// can never complete into a revoked cache.
	ioCount   map[msg.ObjectID]int
	ioWaiters map[msg.ObjectID][]func()
	// demandBusy/demandNext serialize demand compliance per object: a
	// second demand arriving while one is being complied with (flush in
	// flight) is deferred — and coalesced to the strongest target — so
	// a weaker compliance can never finish after, and undo, a stronger
	// one.
	demandBusy map[msg.ObjectID]bool
	demandNext map[msg.ObjectID]*msg.Demand
	// arriving is the demand being delivered in this executor turn, until
	// its LockDowngraded leaves: still set when the turn ends, the demand
	// is acknowledged on its own (handleDemand).
	arriving *msg.Demand
	// demandSeq counts demands processed per object. A lock grant that
	// was in flight while a demand arrived may already have been revoked
	// (the client, not knowing, reported the demand "complied"); such
	// grants are discarded and re-acquired. See ensureLock.
	demandSeq map[msg.ObjectID]uint64
	// downgrading counts in-flight LockDowngraded/LockRelease exchanges
	// per object. New acquires for the object wait until these are
	// acknowledged: over a datagram network an acquire could otherwise
	// overtake the downgrade and be answered from pre-downgrade state.
	downgrading     map[msg.ObjectID]int
	acquireDeferred map[msg.ObjectID][]func()
	// askDeferred holds the namespace requests waiting for every such
	// exchange to end (behindDowngrades).
	askDeferred []func()
	// sizePush holds what each object owes the server about its size
	// (append.go).
	sizePush map[msg.ObjectID]*sizePush
	// readAhead holds each object's sequential detector and read-ahead
	// window (prefetch.go); maxWindow is Config.Prefetch resolved.
	readAhead map[msg.ObjectID]*readAhead
	maxWindow int
	// names is what the client caches of the namespace under shared
	// directory locks (names.go).
	names nameCache
	// changes counts this client's own changes to what directory locks
	// cover that are in flight (changeBegin).
	changes int
	// prefetchInflight tracks the block indexes a read-ahead batch is
	// already fetching, and the block each was issued for, so overlapping
	// windows are not re-requested.
	prefetchInflight map[msg.ObjectID]map[uint64]msg.BlockRef
	// pfWaiters parks demand reads for blocks an in-flight read-ahead
	// batch already covers: the read completes off the batch instead of
	// duplicating the SAN round trip.
	pfWaiters map[msg.ObjectID]map[uint64][]DataCallback

	// Heartbeat baseline.
	hbLastAck sim.Time
	hbTimer   sim.Timer
	hbExpire  sim.Timer
	hbWarn    sim.Timer
	hbHave    bool
	// hbSuspect: the heartbeat lease is close to lapsing with no recent
	// ACKs; the client has stopped new operations and flushed dirty data
	// (our stand-in for Frangipani's write-ahead-log recovery).
	hbSuspect bool

	// Per-object (V) baseline.
	objExpiry map[msg.ObjectID]sim.Time
	vRenew    sim.Timer
	vSweep    sim.Timer

	// NFS baseline attribute cache.
	attrFetched map[msg.ObjectID]sim.Time

	flushTimer sim.Timer

	// OnPhase, if set, observes lease phase transitions (F4 traces).
	OnPhase func(from, to core.Phase)
	// OnRecovered, if set, fires when a rejoin completes.
	OnRecovered func(epoch msg.Epoch)

	reg       *stats.Registry
	tracer    *trace.Tracer
	opsOK     *stats.Counter
	opsFailed *stats.Counter
	reads     *stats.Counter
	writes    *stats.Counter
	staleEps  *stats.Counter // ops refused because isolated/unregistered
	recovers  *stats.Counter
	lostDirty *stats.Counter
	fencedIO  *stats.Counter
	nfsPolls  *stats.Counter
	// prefetchBatches counts read-ahead batches issued to the SAN (each
	// one vectored read: a window's blocks on one disk).
	prefetchBatches *stats.Counter
}

// New creates a client talking to server. reg, oracle, and tr may be
// nil; tr receives the client's lease-lifecycle events.
func New(id, server msg.NodeID, cfg Config, clock sim.Clock, ctrl, san Sender,
	oracle checker.Oracle, reg *stats.Registry, tr *trace.Tracer) *Client {
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
	if oracle == nil {
		oracle = checker.Nop{}
	}
	prefix := fmt.Sprintf("client.%v.", id)
	c := &Client{
		id:               id,
		cfg:              cfg,
		clock:            clock,
		ctrl:             ctrl,
		san:              san,
		server:           server,
		oracle:           oracle,
		cache:            cache.NewWithLimits(reg, prefix, cfg.CacheMaxPages, cfg.CacheQuota),
		names:            newNameCache(cfg.Policy.CachesNames(), reg, prefix),
		handles:          make(map[msg.Handle]handleInfo),
		sanCalls:         make(map[msg.ReqID]*sanPending),
		lockedInos:       make(map[msg.ObjectID]msg.LockMode),
		ioCount:          make(map[msg.ObjectID]int),
		ioWaiters:        make(map[msg.ObjectID][]func()),
		demandSeq:        make(map[msg.ObjectID]uint64),
		demandBusy:       make(map[msg.ObjectID]bool),
		demandNext:       make(map[msg.ObjectID]*msg.Demand),
		downgrading:      make(map[msg.ObjectID]int),
		acquireDeferred:  make(map[msg.ObjectID][]func()),
		sizePush:         make(map[msg.ObjectID]*sizePush),
		readAhead:        make(map[msg.ObjectID]*readAhead),
		maxWindow:        cfg.maxWindow(),
		prefetchInflight: make(map[msg.ObjectID]map[uint64]msg.BlockRef),
		pfWaiters:        make(map[msg.ObjectID]map[uint64][]DataCallback),
		objExpiry:        make(map[msg.ObjectID]sim.Time),
		attrFetched:      make(map[msg.ObjectID]sim.Time),
		reg:              reg,
		opsOK:            reg.Counter(prefix + "ops_ok"),
		opsFailed:        reg.Counter(prefix + "ops_failed"),
		reads:            reg.Counter(prefix + "reads"),
		writes:           reg.Counter(prefix + "writes"),
		staleEps:         reg.Counter(prefix + "ops_refused"),
		recovers:         reg.Counter(prefix + "recoveries"),
		lostDirty:        reg.Counter(prefix + "dirty_discarded"),
		fencedIO:         reg.Counter(prefix + "fenced_io"),
		nfsPolls:         reg.Counter(prefix + "nfs_polls"),
		prefetchBatches:  reg.Counter(prefix + "prefetch_batches"),
	}
	c.nextSANReq = cfg.SANReqBase
	c.tracer = tr
	env := core.Env{
		Reg:    reg,
		Prefix: prefix,
		Tracer: tr,
		Node:   id,
		Peer:   server,
		// The channel is created below; by the time any event fires it
		// exists, so the closure can read the live epoch.
		Epoch: func() msg.Epoch {
			if c.chn == nil {
				return 0
			}
			return c.chn.Epoch()
		},
	}
	if cfg.Policy.Lease == baselines.LeaseStorageTank {
		c.lease = core.NewLeaseClient(cfg.Core, clock, leaseActions{c}, env)
	}
	c.chn = core.NewChannel(id, server, cfg.Core, clock, c.sendCtrl, c.lease, env)
	if len(cfg.Replicas) > 0 {
		c.chn.SetTargets(cfg.Replicas)
	}
	return c
}

// emit stamps ev with the client's identity, epoch, and clock reading and
// hands it to the tracer, if any.
func (c *Client) emit(ev trace.Event) {
	if !c.tracer.Enabled() {
		return
	}
	ev.Node = c.id
	ev.Time = c.clock.Now()
	if ev.Epoch == 0 && c.chn != nil {
		ev.Epoch = c.chn.Epoch()
	}
	if ev.Peer == 0 {
		ev.Peer = c.server
	}
	c.tracer.Emit(ev)
}

func (c *Client) sendCtrl(to msg.NodeID, m msg.Message) {
	if c.crashedFlg {
		return
	}
	c.ctrl(to, m)
}

// ID returns the client's node ID.
func (c *Client) ID() msg.NodeID { return c.id }

// Cache exposes the cache for tests and experiments.
func (c *Client) Cache() *cache.Cache { return c.cache }

// Lease exposes the lease machine (nil for baseline policies).
func (c *Client) Lease() *core.LeaseClient { return c.lease }

// Epoch returns the current registration epoch (0 = not registered).
func (c *Client) Epoch() msg.Epoch { return c.chn.Epoch() }

// Registered reports whether the client currently holds an epoch.
func (c *Client) Registered() bool { return c.registered }

// Quiesced reports whether the client has stopped accepting new requests.
func (c *Client) Quiesced() bool { return c.quiesced }

// Inflight returns the number of in-progress file-system operations.
func (c *Client) Inflight() int { return c.inflight }

// Start registers with the server. Call once after the networks are up.
func (c *Client) Start() { c.rejoin() }

// Crash simulates a machine failure: all volatile state is gone and the
// client stops responding. The owner should also Crash the node on both
// networks. Restart by creating a new Client.
func (c *Client) Crash() {
	c.crashedFlg = true
	c.chn.CancelAll()
	c.cancelSAN()
	c.stopBaselineTimers()
	if c.lease != nil {
		c.lease.Reset()
	}
	for ino := range c.allCachedObjects() {
		c.oracle.LockInactive(c.id, ino)
	}
	c.invalidateAll()
	c.oracle.ClientCrashed(c.id)
}

// Deliver is the client's control-network handler.
func (c *Client) Deliver(env msg.Envelope) {
	if c.crashedFlg {
		return
	}
	switch m := env.Payload.(type) {
	case *msg.Reply:
		c.chn.HandleReply(m)
	case *msg.Demand:
		c.handleDemand(m)
	}
}

// DeliverSAN is the client's SAN handler.
func (c *Client) DeliverSAN(env msg.Envelope) {
	if c.crashedFlg {
		return
	}
	switch m := env.Payload.(type) {
	case *msg.DiskReadRes:
		c.completeSAN(m.Req, m, m.Err)
	case *msg.DiskWriteRes:
		c.completeSAN(m.Req, m, m.Err)
	case *msg.DiskWriteVRes:
		c.completeSAN(m.Req, m, m.Err)
	case *msg.DiskReadVRes:
		c.completeSAN(m.Req, m, m.Err)
	case *msg.DLockRes:
		c.completeSAN(m.Req, m, m.Err)
	}
}

// admitted reports whether a new file-system request may be serviced
// under the active policy's safety contract.
func (c *Client) admitted() bool {
	if c.crashedFlg || !c.registered || c.quiesced {
		return false
	}
	switch c.cfg.Policy.Lease {
	case baselines.LeaseStorageTank:
		return c.lease.Valid()
	case baselines.LeaseHeartbeat:
		return c.hbValid() && !c.hbSuspect
	default:
		return true
	}
}

// call wraps Channel.Call with the NACK hooks: for leaseless policies a
// NACK means our locks are gone and the cache must be discarded; for the
// paper's policy a NACK while our lease is still running may mean the
// server restarted and lost its volatile state — worth one reassertion
// attempt (§6) before completing the ordinary lease recovery. (A request
// that was in flight across a reassertion is refused for the epoch it was
// stamped with, which is history: the channel does not tell the lease, the
// lease stays valid, and maybeReassert finds nothing to do — its operation
// fails, and the registration that replaced that epoch, with everything in
// flight under it, perhaps waiting out the server's grace window, is left
// alone.)
func (c *Client) call(req msg.Request, cb core.ReplyCallback) {
	c.chn.Call(req, func(r *msg.Reply) {
		if r != nil && r.Status == msg.NACK {
			if c.lease == nil {
				c.recoverLeaseless()
			} else {
				c.maybeReassert()
			}
		}
		if cb != nil {
			cb(r)
		}
	})
}

// --- SAN I/O ---------------------------------------------------------------

func (c *Client) sanCall(d msg.NodeID, build func(req msg.ReqID) msg.Message,
	cb func(reply msg.Message, errno msg.Errno)) {
	c.sanCallBuf(d, build, nil, cb)
}

// sanCallBuf is sanCall for requests whose payload lives in a pooled
// buffer: buf (if non-nil) is returned to the pool when the call is
// acknowledged without ever having been retransmitted. See sanPending.
//
//tank:owns buf
func (c *Client) sanCallBuf(d msg.NodeID, build func(req msg.ReqID) msg.Message,
	buf []byte, cb func(reply msg.Message, errno msg.Errno)) {
	c.nextSANReq++
	id := c.nextSANReq
	p := &sanPending{cb: cb, buf: buf} //tank:adopt(returned on un-retransmitted ack; see completeSAN)
	c.sanCalls[id] = p
	var transmit func()
	transmit = func() {
		if c.crashedFlg {
			return
		}
		c.san(d, build(id))
		p.timer = c.clock.AfterFunc(c.cfg.Core.RetryInterval, func() {
			if c.sanCalls[id] != p {
				return
			}
			p.tries++
			transmit()
		})
	}
	transmit()
}

func (c *Client) completeSAN(req msg.ReqID, reply msg.Message, errno msg.Errno) {
	p, ok := c.sanCalls[req]
	if !ok {
		return
	}
	delete(c.sanCalls, req)
	if p.timer != nil {
		p.timer.Stop()
	}
	if errno == msg.ErrFenced {
		c.fencedIO.Inc()
		// Discovering the fence is how a fenced client learns anything at
		// all (§2.1). Leaseless clients recover; the paper's clients
		// normally never hit this (their lease expired first) except as
		// the slow-computer backstop (T6).
		if c.lease == nil {
			defer c.recoverLeaseless()
		}
	}
	if p.cb != nil {
		p.cb(reply, errno)
	}
	if p.buf != nil && p.tries == 0 {
		bufpool.Put(p.buf)
	}
}

func (c *Client) cancelSAN() {
	// Cancellation never runs release hooks: a cancelled request's send
	// (or a duplicate in a disk's service queue) may still alias the
	// payload buffer, so recycling it here could corrupt an in-flight
	// write. The buffers are simply garbage.
	for id, p := range c.sanCalls {
		delete(c.sanCalls, id)
		if p.timer != nil {
			p.timer.Stop()
		}
		if p.cb != nil {
			p.cb(nil, msg.ErrStale)
		}
	}
}

// ioBegin marks a data operation in flight under ino's lock.
func (c *Client) ioBegin(ino msg.ObjectID) { c.ioCount[ino]++ }

// ioEnd completes a data operation, releasing any deferred downgrades.
func (c *Client) ioEnd(ino msg.ObjectID) {
	c.ioCount[ino]--
	if c.ioCount[ino] > 0 {
		return
	}
	delete(c.ioCount, ino)
	waiters := c.ioWaiters[ino]
	delete(c.ioWaiters, ino)
	for _, w := range waiters {
		w()
	}
}

// whenIdle runs fn once no data operation is in flight on ino.
func (c *Client) whenIdle(ino msg.ObjectID, fn func()) {
	if c.ioCount[ino] == 0 {
		fn()
		return
	}
	c.ioWaiters[ino] = append(c.ioWaiters[ino], fn)
}

// downgradeBegin marks a downgrade/release exchange in flight for ino. A
// directory grant in a reply that this exchange may overtake, or be
// overtaken by, cannot be trusted (nameGuard).
func (c *Client) downgradeBegin(ino msg.ObjectID) {
	c.downgrading[ino]++
	c.names.gen++
}

// downgradeEnd completes the exchange and releases deferred acquires.
func (c *Client) downgradeEnd(ino msg.ObjectID) {
	c.downgrading[ino]--
	if c.downgrading[ino] > 0 {
		return
	}
	delete(c.downgrading, ino)
	deferred := c.acquireDeferred[ino]
	delete(c.acquireDeferred, ino)
	for _, fn := range deferred {
		fn()
	}
	for len(c.downgrading) == 0 && len(c.askDeferred) > 0 {
		fn := c.askDeferred[0]
		c.askDeferred = c.askDeferred[1:]
		fn()
	}
}

// behindDowngrades reports whether a downgrade exchange is in flight on any
// object. A request whose reply may grant directory locks goes out behind
// them all — its sender queues itself on askDeferred, which downgradeEnd
// drains: which directories the reply will name is not known until it
// comes back, and over a datagram network it could overtake the release
// of one of them and be answered from before it.
func (c *Client) behindDowngrades() bool { return len(c.downgrading) > 0 }

// afterDowngrades runs fn once no downgrade exchange is in flight on ino.
func (c *Client) afterDowngrades(ino msg.ObjectID, fn func()) {
	if c.downgrading[ino] == 0 {
		fn()
		return
	}
	c.acquireDeferred[ino] = append(c.acquireDeferred[ino], fn)
}

// allCachedObjects returns the set of inos with cache entries.
func (c *Client) allCachedObjects() map[msg.ObjectID]bool {
	out := make(map[msg.ObjectID]bool)
	for _, h := range c.handles {
		out[h.ino] = true
	}
	for _, ino := range c.cache.DirtyObjects() {
		out[ino] = true
	}
	for ino := range c.objExpiry {
		out[ino] = true
	}
	for ino := range c.lockedInos {
		out[ino] = true
	}
	return out
}
