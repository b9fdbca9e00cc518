package client

import (
	"sort"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Baseline client seams (DESIGN §26): the lease work prior systems impose
// on clients, which the paper's protocol eliminates, and the data paths
// that ship data through the server. A heartbeat lease and a per-object
// lease each run τ, as the server counts them.

// attrTTL is how long the NFS-poll baseline trusts fetched attributes:
// 3 s, NFS's classic actimeo floor.
const attrTTL = 3 * time.Second

// recoverLeaseless is the baselines' recovery: the client has learned (a
// NACK, a fenced I/O, its heartbeat lease lapsing) that the server stopped
// honoring its locks, perhaps after it served stale reads and stranded
// dirty data — exactly what the experiments count.
func (c *Client) recoverLeaseless() {
	if c.crashedFlg || c.recovering {
		return
	}
	c.endEpisode()
	c.lease.teardown()
	stopTimers(&c.flushTimer)
	c.rejoin()
}

// noLease is the leaseless baselines' client: it trusts its locks until a
// NACK or a fence says otherwise. The other leases build on it.
type noLease struct{ c *Client }

func (noLease) admits() bool        { return true }
func (noLease) serves(*object) bool { return true }
func (noLease) locked(*object)      {}
func (noLease) registered() bool    { return true }
func (noLease) teardown()           {}
func (l noLease) refused(bool)      { l.c.recoverLeaseless() }

// heartbeat is Frangipani's lease (§5): one per client, running τ from the
// send of its last ACKed heartbeat (lastAck). suspect: it is close to
// lapsing with no recent ACKs, and the client has stopped new operations
// and flushed dirty data (a stand-in for Frangipani's write-ahead log).
type heartbeat struct {
	noLease
	lastAck             sim.Time
	suspect             bool
	timer, expire, warn sim.Timer
}

func (h *heartbeat) admits() bool { return h.valid() && !h.suspect }

func (h *heartbeat) registered() bool {
	h.lastAck, h.suspect = h.c.clock.Now(), false
	h.arm()
	return true
}

func (h *heartbeat) teardown() { stopTimers(&h.timer, &h.expire, &h.warn) }

func (h *heartbeat) valid() bool { return h.c.clock.Now().Sub(h.lastAck) < h.c.cfg.Core.Tau }

// arm sends heartbeats every interval, forever. Unlike the paper's
// opportunistic renewal, these messages flow even when the client is
// completely idle or fully busy — that is the measured difference.
func (h *heartbeat) arm() {
	c := h.c
	h.armExpiry()
	h.armWarn()
	h.timer = c.clock.AfterFunc(c.cfg.Core.HeartbeatInterval(), func() {
		if c.crashedFlg || !c.registered {
			return
		}
		sent := c.clock.Now()
		c.call(&msg.Heartbeat{}, func(r *msg.Reply) {
			// The lease runs from the heartbeat's SEND time (same
			// ordered-events argument as the paper's §3.1).
			if r != nil && r.Status == msg.ACK && sent.After(h.lastAck) {
				h.lastAck = sent
				h.suspect = false
				h.armExpiry()
			}
		})
		h.arm()
	})
}

// armWarn schedules the early-warning check: with no heartbeat ACKed for
// 60% of the TTL, the client stops new operations and flushes its dirty
// data while the lease still runs, so no acknowledged update is lost when
// it is isolated (§5) — what Frangipani's write-ahead log ensures.
func (h *heartbeat) armWarn() {
	c := h.c
	stopTimers(&h.warn)
	warnAfter := time.Duration(float64(c.cfg.Core.Tau) * 0.6)
	delay := max(h.lastAck.Add(warnAfter).Sub(c.clock.Now()), time.Microsecond)
	h.warn = c.clock.AfterFunc(delay, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if c.clock.Now().Sub(h.lastAck) < warnAfter {
			h.armWarn() // renewed meanwhile (or rounding); re-check later
			return
		}
		h.suspect = true
		c.flushAll(nil)
	})
}

// armExpiry schedules the local lease-lapse check for exactly TTL after
// the last acknowledged heartbeat: the client must stop trusting its
// locks and cache before the server's TTL(1+ε) steal.
func (h *heartbeat) armExpiry() {
	c := h.c
	stopTimers(&h.expire)
	// Clock-rate conversions round; never arm a zero/negative delay or the
	// timer can fire marginally early and spin.
	delay := max(h.lastAck.Add(c.cfg.Core.Tau).Sub(c.clock.Now()), time.Microsecond)
	h.expire = c.clock.AfterFunc(delay, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if h.valid() {
			// Fired a hair early (rounding) or the lease was renewed
			// concurrently: re-arm for the true boundary.
			h.armExpiry()
			return
		}
		c.recoverLeaseless()
	})
}

// objectLeases are the V system's leases (§4): one per cached object, out
// at its record's base; a lapsed one's lock serves once ensureLock renews.
type objectLeases struct {
	noLease
	renew, sweep sim.Timer
}

func (v *objectLeases) teardown() { stopTimers(&v.renew, &v.sweep) }

func (v *objectLeases) registered() bool {
	v.armRenew()
	v.armSweep()
	return true
}

func (v *objectLeases) serves(o *object) bool { return o.base != 0 && v.c.clock.Now().Before(o.base) }

// locked leases a granted lock afresh, and forgets a given-up one's.
func (v *objectLeases) locked(o *object) {
	o.base = 0
	if o.mode != msg.LockNone {
		o.base = v.c.clock.Now().Add(v.c.cfg.Core.Tau)
	}
}

// armRenew renews every cached object's lease each interval — the
// per-object message cost §4 describes ("the renewal has a message
// cost"), proportional to cache size.
func (v *objectLeases) armRenew() {
	c := v.c
	v.renew = c.clock.AfterFunc(c.cfg.Core.ObjectRenewInterval(), func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if inos := c.locked(); len(inos) > 0 {
			sent := c.clock.Now()
			c.call(&msg.RenewObjects{Inos: inos}, func(r *msg.Reply) {
				if r != nil && r.Status == msg.ACK {
					for _, ino := range inos {
						if o := c.objs[ino]; o != nil && o.mode != msg.LockNone {
							o.base = sent.Add(c.cfg.Core.Tau)
						}
					}
				}
			})
		}
		v.armRenew()
	})
}

// armSweep purges objects whose leases are about to expire ("purge its
// cache of that object", §4). The purge — flush, stop using the lock, drop
// the pages — must COMPLETE before the server may steal, so the sweep acts
// a TTL/4 margin early, often; renewals keep healthy objects far from it.
func (v *objectLeases) armSweep() {
	c := v.c
	margin := c.cfg.Core.Tau / 4
	v.sweep = c.clock.AfterFunc(c.cfg.Core.ObjectRenewInterval()/4, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		horizon := c.clock.Now().Add(margin)
		var expired []msg.ObjectID
		for ino, o := range c.objs {
			if o.base != 0 && !horizon.Before(o.base) {
				expired = append(expired, ino)
			}
		}
		sort.Slice(expired, func(i, j int) bool { return expired[i] < expired[j] })
		for _, ino := range expired {
			// Stop handing out the cached lock immediately; the flush and
			// drop follow once in-flight operations drain.
			c.unlock(ino)
			c.dropDir(ino)
			c.whenIdle(ino, func() {
				c.flushObject(ino, func(msg.Errno) {
					c.oracle.LockInactive(c.id, ino)
					c.dropObject(ino)
				})
			})
		}
		v.armSweep()
	})
}

// shipped is the function-ship data path (§1.1). With polls set it is
// NFS's (§5): pages are reused while attributes polled every attrTTL (the
// record's base) say the file has not changed.
type shipped struct{ polls *stats.Counter } // nil: no NFS

func (shipped) caches() bool { return false }

// read ships the read to the server; under NFS, a fresh GetAttr first
// invalidates stale pages, the classic close-to-open-ish weak consistency.
func (s shipped) read(c *Client, ino msg.ObjectID, idx uint64, cb DataCallback) {
	nfs := s.polls != nil
	done := func(data []byte, errno msg.Errno) {
		c.finish(errno)
		cb(data, errno)
	}
	fetch := func() {
		if p := c.cache.Lookup(ino, idx); p != nil && nfs {
			c.oracle.Read(c.id, ino, idx, p.Ver)
			done(append([]byte(nil), p.Bytes()...), msg.OK)
			return
		}
		c.call(&msg.FuncRead{Ino: ino, Offset: idx * BlockSize, Length: BlockSize}, func(r *msg.Reply) {
			errno := errnoOf(r)
			if errno != msg.OK {
				done(nil, errno)
				return
			}
			// Server-mediated reads see committed data: no client-side
			// write versions exist for the oracle to compare against.
			data := r.Body.(msg.FuncReadRes).Data
			if nfs {
				c.cache.Fill(ino, idx, data, 0)
			}
			done(data, msg.OK)
		})
	}
	// NFS attribute polling: trust cached attrs for attrTTL.
	if o := c.objs[ino]; !nfs || o != nil && o.base != 0 && c.clock.Now().Sub(o.base) < attrTTL {
		fetch()
		return
	}
	s.polls.Inc()
	c.getAttr(ino, func(attr msg.Attr, errno msg.Errno) {
		if errno != msg.OK {
			done(nil, errno)
			return
		}
		c.obj(ino).base = c.clock.Now()
		if o := c.cache.Object(ino); o != nil && o.HaveAttr && o.Attr.Version != attr.Version {
			c.cache.Drop(ino) // file changed: invalidate pages
		}
		o := c.cache.Ensure(ino)
		o.Attr = attr
		o.HaveAttr = true
		fetch()
	})
}

// write ships the write to the server (write-through).
func (s shipped) write(c *Client, ino msg.ObjectID, idx uint64, data []byte, cb ErrnoCallback) {
	c.call(&msg.FuncWrite{Ino: ino, Offset: idx * BlockSize, Data: data}, func(r *msg.Reply) {
		errno := errnoOf(r)
		if errno == msg.OK && s.polls != nil {
			// NFS caches what it wrote.
			c.cache.Fill(ino, idx, data, 0)
		}
		c.finish(errno)
		cb(errno)
	})
}
