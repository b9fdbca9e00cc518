// Package client implements the Storage Tank file-system client: the
// write-back cache, direct SAN data path, lock caching, demand
// compliance, and — through internal/core — the four-phase lease state
// machine that makes caching safe when the control network fails.
//
// The client is fully event-driven: every file-system operation is
// asynchronous, completing through a callback, so the same code runs
// under the deterministic simulator and under the live TCP transport.
// The comparison systems (heartbeat leases, per-object leases, no lease,
// function-shipped data, NFS-style polling, disk locks) sit behind two
// seams the constructor picks, so that comparisons exercise identical
// code paths everywhere except the mechanism under test.
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
	Core core.Config
	// Policy is the system the client runs (zero: the paper's protocol).
	Policy baselines.Policy
	// FlushInterval, when nonzero, write-backs dirty data periodically
	// even without demands (bounds the at-risk window). The baselines'
	// lease terms are not configured here: they derive from Core.Tau, as
	// the server's do (core.Config.HeartbeatInterval).
	FlushInterval time.Duration
	// DisableReassert (ablation): skip lock reassertion after a server
	// restart and always run the full lease recovery (cache loss).
	DisableReassert bool
	// CacheMaxPages bounds the machine's resident data cache, one for all
	// its authorities (Router); clean pages are evicted LRU beyond it (0 =
	// unbounded). Dirty pages are pinned.
	CacheMaxPages int
	// CacheQuota bounds the machine's data cache in bytes, after dedup —
	// pages sharing one content block, under any authority, cost its size
	// once (0 = unbounded). Clean pages are evicted LRU beyond it; dirty
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

type handleInfo struct {
	ino   msg.ObjectID
	write bool
}

// Client is one file-system client node.
type Client struct {
	id     msg.NodeID
	cfg    Config
	clock  sim.Clock
	ctrl   Sender
	server msg.NodeID
	oracle checker.Oracle

	chn *core.Channel
	// lease and data are the seams the policy picks (newClient).
	lease clientLease
	data  dataPath
	cache *cache.Cache

	registered bool
	quiesced   bool
	recovering bool
	crashedFlg bool
	// reassertTried limits lock reassertion (§6 server recovery) to one
	// attempt per lease episode.
	reassertTried bool

	handles  map[msg.Handle]handleInfo
	sanCalls *core.Calls[core.SANCall]
	inflight int
	// objs is what the client keeps about each object (object.go).
	objs map[msg.ObjectID]*object
	// demands counts the demands received: each stamps its object's
	// record, so a lock grant can tell whether a demand crossed it.
	demands uint64
	// arriving is the demand being delivered in this executor turn, until
	// its LockDowngraded leaves: still set when the turn ends, the demand
	// is acknowledged on its own (handleDemand).
	arriving *msg.Demand
	// downgrades counts the downgrade exchanges in flight on every object,
	// and askDeferred holds the namespace requests waiting for them all to
	// end. A request whose reply may grant directory locks goes out behind
	// them all: which directories the reply will name is not known until it
	// comes back, and over a datagram network it could overtake the release
	// of one of them and be answered from before it.
	downgrades  int
	askDeferred []func()
	// maxWindow is Config.Prefetch resolved (prefetch.go).
	maxWindow int
	// names is what the client caches of the namespace under shared
	// directory locks (names.go).
	names nameCache
	// changes counts this client's own changes to what directory locks
	// cover that are in flight (changeBegin).
	changes int

	// flushTimer writes dirty data back every Config.FlushInterval.
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
	// prefetchBatches counts read-ahead batches issued to the SAN (each
	// one vectored read: a window's blocks on one disk).
	prefetchBatches *stats.Counter

	// scratch is reused by every flush while it collects its dirty pages
	// (demand.go); nothing keeps it past the executor turn.
	scratch flushScratch
}

// New creates a client talking to server, with a page store of its own.
// reg, oracle, and tr may be nil; tr receives lease-lifecycle events.
func New(id, server msg.NodeID, cfg Config, clock sim.Clock, ctrl, san Sender,
	oracle checker.Oracle, reg *stats.Registry, tr *trace.Tracer) *Client {
	return newClient(id, server, cfg, clock, ctrl, san, oracle, reg, tr, nil)
}

// newClient is New over pages, another instance's cache on the same
// machine (nil: a store of the client's own).
func newClient(id, server msg.NodeID, cfg Config, clock sim.Clock, ctrl, san Sender,
	oracle checker.Oracle, reg *stats.Registry, tr *trace.Tracer, pages *cache.Cache) *Client {
	if err := cfg.Core.Validate(); err != nil {
		panic(err)
	}
	if reg == nil {
		reg = stats.NewRegistry()
	}
	if oracle == nil {
		oracle = checker.Nop{}
	}
	prefix := fmt.Sprintf("client.%v.", id)
	if pages == nil {
		pages = cache.NewWithLimits(reg, prefix, cfg.CacheMaxPages, cfg.CacheQuota)
	}
	c := &Client{
		id:              id,
		cfg:             cfg,
		clock:           clock,
		ctrl:            ctrl,
		server:          server,
		oracle:          oracle,
		cache:           pages,
		handles:         make(map[msg.Handle]handleInfo),
		objs:            make(map[msg.ObjectID]*object),
		maxWindow:       cfg.maxWindow(),
		reg:             reg,
		opsOK:           reg.Counter(prefix + "ops_ok"),
		opsFailed:       reg.Counter(prefix + "ops_failed"),
		reads:           reg.Counter(prefix + "reads"),
		writes:          reg.Counter(prefix + "writes"),
		staleEps:        reg.Counter(prefix + "ops_refused"),
		recovers:        reg.Counter(prefix + "recoveries"),
		lostDirty:       reg.Counter(prefix + "dirty_discarded"),
		fencedIO:        reg.Counter(prefix + "fenced_io"),
		prefetchBatches: reg.Counter(prefix + "prefetch_batches"),
	}
	c.sanCalls = core.NewSANCalls(cfg.SANReqBase, clock, cfg.Core.RetryInterval, san,
		func() bool { return !c.crashedFlg })
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
	// The policy picks the seams, once.
	var lc *core.LeaseClient
	switch cfg.Policy.Lease() {
	case baselines.LeaseStorageTank:
		lc = core.NewLeaseClient(cfg.Core, clock, leaseActions{c}, env)
		c.lease = paperLease{noLease{c}, lc}
	case baselines.LeaseHeartbeat:
		c.lease = &heartbeat{noLease: noLease{c}}
	case baselines.LeasePerObject:
		c.lease = &objectLeases{noLease: noLease{c}}
	default:
		c.lease = noLease{c}
	}
	switch cfg.Policy.Data {
	case baselines.DataDirect:
		c.data = direct{}
	case baselines.DataFunctionShip:
		c.data = shipped{}
	case baselines.DataNFSPoll:
		if cfg.Policy.Lease() == baselines.LeasePerObject {
			panic("client: per-object leases and NFS polls cannot share object.base")
		}
		c.data = shipped{reg.Counter(prefix + "nfs_polls")}
	case baselines.DataDLock:
		c.data = dlocks{}
	default:
		panic(fmt.Sprintf("client: unknown data path %v", cfg.Policy.Data))
	}
	c.names = newNameCache(c.data.caches(), reg, prefix)
	c.chn = core.NewChannel(id, server, cfg.Core, clock, c.sendCtrl, lc, env)
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

// Lease exposes the paper's lease machine (nil for baseline policies).
func (c *Client) Lease() *core.LeaseClient {
	l, _ := c.lease.(paperLease)
	return l.LeaseClient
}

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
	c.cancelCalls()
	stopTimers(&c.flushTimer)
	c.lease.teardown()
	c.names.purge()
	c.cache.InvalidateAll()
	c.oracle.ClientCrashed(c.id) // every lock it held with it
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
	// A flush write's pooled payload goes back to the pool ONLY if the
	// write was never retransmitted: once a retransmission exists, a
	// duplicate delivery may sit in a disk's deferred service queue — or a
	// second writev may be in flight — still aliasing the buffer, so the
	// pool never gets it back (the garbage collector does). A plain slice
	// rather than a release closure: flushing allocates nothing per page
	// beyond the message itself.
	p, errno, ok := core.Answer(c.sanCalls, env.Payload)
	if ok && p.Val.Buf != nil && p.Tries == 0 {
		bufpool.Put(p.Val.Buf)
	}
	if ok && errno == msg.ErrFenced {
		// Discovering the fence is how a fenced client learns anything at
		// all (§2.1); the lease hears of it once the caller has.
		c.fencedIO.Inc()
		c.lease.refused(true)
	}
}

// admitted reports whether a new file-system request may be serviced
// under the lease's safety contract.
func (c *Client) admitted() bool {
	return !c.crashedFlg && c.registered && !c.quiesced && c.lease.admits()
}

// call wraps Channel.Call with the NACK hook: a NACK tells the lease that
// the server may no longer honour the client's locks (clientLease.refused).
func (c *Client) call(req msg.Request, cb core.ReplyCallback) {
	c.chn.Call(req, func(r *msg.Reply) {
		if r != nil && r.Status == msg.NACK {
			c.lease.refused(false)
		}
		if cb != nil {
			cb(r)
		}
	})
}

// --- SAN I/O ---------------------------------------------------------------

// sanCall issues a SAN request. build makes each transmission of it,
// stamped with c.server — the authority this instance registered with —
// and the epoch passed in: the registration's when the request was issued,
// so that a retransmission still speaks for the registration the request
// belonged to (msg/san.go). buf is a flush write's pooled payload, or nil.
func (c *Client) sanCall(d msg.NodeID, build func(req msg.ReqID, epoch msg.Epoch) msg.Message,
	buf []byte, cb func(reply msg.Message, errno msg.Errno)) {
	c.sanCalls.Send(c.sanCalls.Add(core.SANCall{Disk: d, Epoch: c.chn.Epoch(), Build: build, Done: cb, Buf: buf}))
}

// cancelCalls cancels every control call in flight, then every SAN call
// (with msg.ErrStale), each in the order they were issued, and traces
// each (EvCancel). It never recycles a payload buffer: a cancelled
// request's send (or a duplicate in a disk's service queue) may still
// alias it. The buffers are garbage.
func (c *Client) cancelCalls() {
	c.chn.CancelAll()
	c.sanCalls.Cancel(func(p core.Call[core.SANCall]) {
		c.emit(trace.Event{Type: trace.EvCancel, Req: p.ID, Peer: p.Val.Disk, Note: "san"})
		if p.Val.Done != nil {
			p.Val.Done(nil, msg.ErrStale)
		}
	})
}

// ioBegin marks a data operation in flight under the lock on ino and
// returns its record, which ioEnd takes.
func (c *Client) ioBegin(ino msg.ObjectID) *object {
	o := c.objs[ino]
	o.io++
	return o
}

// ioEnd completes a data operation on ino, whose record is o, releasing
// any deferred downgrades.
func (c *Client) ioEnd(ino msg.ObjectID, o *object) {
	if o.io--; o.io > 0 {
		return
	}
	waiters := o.idle
	o.idle = nil
	c.tidy(ino, o)
	for _, w := range waiters {
		w()
	}
}

// whenIdle runs fn once no data operation is in flight on ino.
func (c *Client) whenIdle(ino msg.ObjectID, fn func()) {
	o := c.objs[ino]
	if o == nil || o.io == 0 {
		fn()
		return
	}
	o.idle = append(o.idle, fn)
}

// downgradeBegin marks a downgrade/release exchange in flight for ino and
// returns its record, which downgradeEnd takes. A directory grant in a
// reply that this exchange may overtake, or be overtaken by, cannot be
// trusted (nameGuard).
func (c *Client) downgradeBegin(ino msg.ObjectID) *object {
	o := c.obj(ino)
	o.downgrades++
	c.downgrades++
	c.names.gen++
	return o
}

// downgradeEnd completes the exchange and releases deferred acquires.
func (c *Client) downgradeEnd(ino msg.ObjectID, o *object) {
	c.downgrades--
	if o.downgrades--; o.downgrades > 0 {
		return
	}
	deferred := o.deferred
	o.deferred = nil
	c.tidy(ino, o)
	for _, fn := range deferred {
		fn()
	}
	for c.downgrades == 0 && len(c.askDeferred) > 0 {
		fn := c.askDeferred[0]
		c.askDeferred = c.askDeferred[1:]
		fn()
	}
}
