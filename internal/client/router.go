package client

import (
	"repro/internal/cache"
	"repro/internal/checker"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// Authority names one lease authority a client node faces.
type Authority struct {
	// ID is the identity the node leases from and placement resolves to: a
	// lone server, or a replica group's primary.
	ID msg.NodeID
	// Group lists every member of a replicated authority, primary
	// included, in ballot order; nil for a sole server.
	Group []msg.NodeID
}

// Router is one client machine: S ≥ 1 instances of the protocol — one
// lease, lock set, cached-object table and request-ID space per (client,
// server) pair, exactly the paper's §4 — over one page store, behind one
// network identity. The single-server installation is S = 1. Like the
// Client it is transport-agnostic: the simulated harness and the live node both
// attach Deliver and DeliverSAN to their networks and call the rest.
//
// Inode numbers are per authority, so the three inode-keyed calls (Stat,
// Readdir, ReleaseLock) are not routed here: ask Owner(path) or Sub(i)
// for the instance and call it.
type Router struct {
	subs []*Client
	// routes maps every node a sub may hear from — its authority and the
	// authority's replica peers — to that sub.
	routes map[msg.NodeID]*Client
	place  func(path string) (int, bool)
}

// subShift splits a 64-bit request ID or handle into the issuing sub
// (high bits, index+1) and the sub's own sequence (low bits).
const subShift = 48

// NewRouter creates the node's protocol instances, one per authority in
// order. place maps a path to an authority index (nil: everything is
// authority 0's); oracles, when given, is one consistency oracle per
// authority, since object IDs are per-authority and histories must not
// mix. Every sub shares the node's clock — a machine has one oscillator
// — its two senders, and its page store: the first sub's cache, under
// the node's whole CacheQuota and CacheMaxPages, with an object table
// per sub (cache.Cache.Sibling).
func NewRouter(id msg.NodeID, auths []Authority, cfg Config, clock sim.Clock, ctrl, san Sender,
	place func(path string) (int, bool), oracles []checker.Oracle,
	reg *stats.Registry, tr *trace.Tracer) *Router {
	if len(auths) == 0 {
		panic("client: a router needs at least one authority")
	}
	if reg == nil {
		reg = stats.NewRegistry()
	}
	r := &Router{
		subs:   make([]*Client, 0, len(auths)),
		routes: make(map[msg.NodeID]*Client, len(auths)),
		place:  place,
	}
	for i, a := range auths {
		sub := cfg
		// Disk identity cannot route a SAN reply (after a cross-shard
		// handoff a file's blocks live on the source shard's disks while
		// the destination's sub reads them); the request ID's base can.
		sub.SANReqBase = msg.ReqID(i+1) << subShift
		if a.Group != nil {
			sub.Replicas = a.Group
		}
		var oracle checker.Oracle
		if i < len(oracles) {
			oracle = oracles[i]
		}
		var pages *cache.Cache
		if i > 0 {
			pages = r.subs[0].cache.Sibling()
		}
		c := newClient(id, a.ID, sub, clock, ctrl, san, oracle, reg, tr, pages)
		r.subs = append(r.subs, c)
		r.routes[a.ID] = c
		for _, m := range a.Group {
			r.routes[m] = c
		}
	}
	return r
}

// Deliver is the node's control-network handler: a message belongs to
// the sub that holds the lease with its sender (or the sender's group).
func (r *Router) Deliver(env msg.Envelope) {
	if sub, ok := r.routes[env.From]; ok {
		sub.Deliver(env)
	}
}

// DeliverSAN is the node's SAN handler: a disk reply belongs to the sub
// whose request-ID base it carries.
func (r *Router) DeliverSAN(env msg.Envelope) {
	if req, _, ok := msg.SANReplyReq(env.Payload); ok {
		r.issuer(uint64(req)).DeliverSAN(env)
	}
}

// issuer returns the sub whose base a request ID or handle carries. One
// that carries no sub's base goes to the first, which knows no such ID
// either and says so exactly as a lone client would.
func (r *Router) issuer(id uint64) *Client {
	if i := int(id>>subShift) - 1; i >= 0 && i < len(r.subs) {
		return r.subs[i]
	}
	return r.subs[0]
}

// Subs returns the protocol instances in authority order.
func (r *Router) Subs() []*Client { return r.subs }

// Sub returns the protocol instance for authority index i.
func (r *Router) Sub(i int) *Client { return r.subs[i] }

// Owner returns the instance talking to the authority that owns path,
// or nil when the placement routes it nowhere.
func (r *Router) Owner(path string) *Client {
	if r.place == nil {
		return r.subs[0]
	}
	if i, ok := r.place(path); ok && i >= 0 && i < len(r.subs) {
		return r.subs[i]
	}
	return nil
}

// Start registers every instance with its authority, in authority order.
func (r *Router) Start() {
	for _, sub := range r.subs {
		sub.Start()
	}
}

// Registered reports whether every instance holds an epoch.
func (r *Router) Registered() bool {
	for _, sub := range r.subs {
		if !sub.Registered() {
			return false
		}
	}
	return true
}

// Shutdown gives back every lock every instance holds (Client.Shutdown)
// and calls done when all have been acknowledged.
func (r *Router) Shutdown(done func()) {
	step := gather(len(r.subs), func(msg.Errno) { done() })
	for _, sub := range r.subs {
		sub.Shutdown(func() { step(msg.OK) })
	}
}

// Crash fails the machine: every instance loses its volatile state.
func (r *Router) Crash() {
	for _, sub := range r.subs {
		sub.Crash()
	}
}

// Lookup resolves a path at its owning authority.
func (r *Router) Lookup(path string, cb AttrCallback) {
	if sub := r.Owner(path); sub != nil {
		sub.Lookup(path, cb)
		return
	}
	cb(msg.Attr{}, msg.ErrNoEnt)
}

// Create makes a file or directory at its owning authority.
func (r *Router) Create(path string, isDir bool, cb AttrCallback) {
	if sub := r.Owner(path); sub != nil {
		sub.Create(path, isDir, cb)
		return
	}
	cb(msg.Attr{}, msg.ErrNoEnt)
}

// Unlink removes a path at its owning authority.
func (r *Router) Unlink(path string, cb ErrnoCallback) {
	if sub := r.Owner(path); sub != nil {
		sub.Unlink(path, cb)
		return
	}
	cb(msg.ErrNoEnt)
}

// Rename moves oldPath to newPath. The request goes to the authority
// owning oldPath; when newPath is placed on another, that server runs the
// cross-shard handoff and answers only once the object durably lives at
// its new home.
func (r *Router) Rename(oldPath, newPath string, cb ErrnoCallback) {
	if sub := r.Owner(oldPath); sub != nil {
		sub.Rename(oldPath, newPath, cb)
		return
	}
	cb(msg.ErrNoEnt)
}

// Open opens a path at its owning authority. The handle names the sub
// that issued it (its high bits are the sub's base), so Read, Write,
// Truncate and Close need no table here.
func (r *Router) Open(path string, write, create bool, cb OpenCallback) {
	if sub := r.Owner(path); sub != nil {
		sub.Open(path, write, create, cb)
		return
	}
	cb(0, msg.Attr{}, msg.ErrNoEnt)
}

// Read reads a block through the sub that opened h.
func (r *Router) Read(h msg.Handle, idx uint64, cb DataCallback) {
	r.issuer(uint64(h)).Read(h, idx, cb)
}

// Write writes a block through the sub that opened h.
func (r *Router) Write(h msg.Handle, idx uint64, data []byte, cb ErrnoCallback) {
	r.issuer(uint64(h)).Write(h, idx, data, cb)
}

// Truncate resizes the file open at h to nBlocks blocks.
func (r *Router) Truncate(h msg.Handle, nBlocks uint32, cb ErrnoCallback) {
	r.issuer(uint64(h)).Truncate(h, nBlocks, cb)
}

// Close closes a handle at the sub that opened it.
func (r *Router) Close(h msg.Handle, cb ErrnoCallback) {
	r.issuer(uint64(h)).Close(h, cb)
}

// Sync flushes every authority's dirty data and reports the first
// failure, if any, once all have answered.
func (r *Router) Sync(cb ErrnoCallback) {
	done := gather(len(r.subs), cb)
	for _, sub := range r.subs {
		sub.Sync(done)
	}
}
