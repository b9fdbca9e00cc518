package client

import (
	"sort"
	"time"

	"repro/internal/baselines"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Baseline client behaviours: the lease-maintenance work prior systems
// impose on clients, which the paper's protocol eliminates. Each runs
// only under its policy. A heartbeat lease and a per-object lease each
// run τ, as the server counts them (core.Config.HeartbeatInterval).

// attrTTL is how long the NFS-poll baseline trusts fetched attributes:
// 3 s, NFS's classic actimeo floor.
const attrTTL = 3 * time.Second

// startBaselineTimers arms the periodic machinery after (re)registration.
func (c *Client) startBaselineTimers() {
	switch c.cfg.Policy.Lease {
	case baselines.LeaseHeartbeat:
		c.hbLastAck = c.clock.Now()
		c.hbHave = true
		c.hbSuspect = false
		c.armHeartbeat()
	case baselines.LeasePerObject:
		c.armVRenew()
		c.armVSweep()
	}
}

func (c *Client) stopBaselineTimers() {
	for _, t := range []*sim.Timer{&c.hbTimer, &c.hbExpire, &c.hbWarn, &c.vRenew, &c.vSweep, &c.flushTimer} {
		if *t != nil {
			(*t).Stop()
			*t = nil
		}
	}
}

// --- Heartbeat (Frangipani) -------------------------------------------------

// hbValid reports whether the heartbeat lease is current: the client may
// only use locks while its last ACKed heartbeat is younger than the TTL.
func (c *Client) hbValid() bool {
	return c.hbHave && c.clock.Now().Sub(c.hbLastAck) < c.cfg.Core.Tau
}

// armHeartbeat sends heartbeats every interval, forever. Unlike the
// paper's opportunistic renewal, these messages flow even when the client
// is completely idle or fully busy — that is the measured difference.
func (c *Client) armHeartbeat() {
	if c.cfg.Policy.Lease != baselines.LeaseHeartbeat {
		return
	}
	c.armHBExpiry()
	c.armHBWarn()
	c.hbTimer = c.clock.AfterFunc(c.cfg.Core.HeartbeatInterval(), func() {
		if c.crashedFlg || !c.registered {
			return
		}
		sent := c.clock.Now()
		c.call(&msg.Heartbeat{}, func(r *msg.Reply) {
			// The lease runs from the heartbeat's SEND time (same
			// ordered-events argument as the paper's §3.1).
			if r != nil && r.Status == msg.ACK && sent.After(c.hbLastAck) {
				c.hbLastAck = sent
				c.hbSuspect = false
				c.armHBExpiry()
			}
		})
		c.armHeartbeat()
	})
}

// armHBWarn schedules the early-warning check: when no heartbeat has
// been ACKed for 60% of the TTL, the client stops accepting operations
// and flushes its dirty data while the lease is still valid. Frangipani
// itself relies on write-ahead logging plus log recovery by another node;
// flushing before the lease lapses preserves the same observable property
// (no acknowledged update is lost when a client is isolated, §5).
func (c *Client) armHBWarn() {
	if c.hbWarn != nil {
		c.hbWarn.Stop()
	}
	warnAfter := time.Duration(float64(c.cfg.Core.Tau) * 0.6)
	delay := c.hbLastAck.Add(warnAfter).Sub(c.clock.Now())
	if delay < time.Microsecond {
		delay = time.Microsecond
	}
	c.hbWarn = c.clock.AfterFunc(delay, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if c.clock.Now().Sub(c.hbLastAck) < warnAfter {
			c.armHBWarn() // renewed meanwhile (or rounding); re-check later
			return
		}
		c.hbSuspect = true
		c.flushAll(nil)
	})
}

// armHBExpiry schedules the local lease-lapse check for exactly TTL after
// the last acknowledged heartbeat: the client must stop trusting its
// locks and cache before the server's TTL(1+ε) steal.
func (c *Client) armHBExpiry() {
	if c.hbExpire != nil {
		c.hbExpire.Stop()
	}
	delay := c.hbLastAck.Add(c.cfg.Core.Tau).Sub(c.clock.Now())
	if delay < time.Microsecond {
		// Clock-rate conversions round; never arm a zero/negative delay
		// or the timer can fire marginally early and spin.
		delay = time.Microsecond
	}
	c.hbExpire = c.clock.AfterFunc(delay, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if c.hbValid() {
			// Fired a hair early (rounding) or the lease was renewed
			// concurrently: re-arm for the true boundary.
			c.armHBExpiry()
			return
		}
		c.recoverLeaseless()
	})
}

// --- Per-object leases (V system) --------------------------------------------

// vLeaseNote records a fresh per-object lease on o's object after a lock
// grant.
func (c *Client) vLeaseNote(o *object) {
	if c.cfg.Policy.Lease != baselines.LeasePerObject {
		return
	}
	o.vExpiry = c.clock.Now().Add(c.cfg.Core.Tau)
}

// vLeaseValid reports whether the V baseline's lease on the object whose
// record is o still runs; under every other policy there is none to run
// out. A lock whose object lease lapsed is used only after a fresh acquire
// (ensureLock), which renews it.
func (c *Client) vLeaseValid(o *object) bool {
	return c.cfg.Policy.Lease != baselines.LeasePerObject ||
		o.vExpiry != 0 && c.clock.Now().Before(o.vExpiry)
}

// armVRenew renews every cached object's lease each interval — the
// per-object message cost §4 describes ("the renewal has a message
// cost"), proportional to cache size.
func (c *Client) armVRenew() {
	if c.cfg.Policy.Lease != baselines.LeasePerObject {
		return
	}
	c.vRenew = c.clock.AfterFunc(c.cfg.Core.ObjectRenewInterval(), func() {
		if c.crashedFlg || !c.registered {
			return
		}
		if inos := c.locked(); len(inos) > 0 {
			sent := c.clock.Now()
			c.call(&msg.RenewObjects{Inos: inos}, func(r *msg.Reply) {
				if r != nil && r.Status == msg.ACK {
					for _, ino := range inos {
						if o := c.objs[ino]; o != nil && o.mode != msg.LockNone {
							o.vExpiry = sent.Add(c.cfg.Core.Tau)
						}
					}
				}
			})
		}
		c.armVRenew()
	})
}

// armVSweep purges objects whose leases are about to expire ("purge its
// cache of that object", §4). The purge — flush dirty data, stop using
// the lock, drop the pages — must COMPLETE before the lease runs out,
// because the server may steal the object the moment it has provably
// expired; so the sweep acts a TTL/4 margin early and runs at fine
// granularity. Renewals keep healthy objects far from the margin.
func (c *Client) armVSweep() {
	if c.cfg.Policy.Lease != baselines.LeasePerObject {
		return
	}
	margin := c.cfg.Core.Tau / 4
	c.vSweep = c.clock.AfterFunc(c.cfg.Core.ObjectRenewInterval()/4, func() {
		if c.crashedFlg || !c.registered {
			return
		}
		horizon := c.clock.Now().Add(margin)
		var expired []msg.ObjectID
		for ino, o := range c.objs {
			if o.vExpiry != 0 && !horizon.Before(o.vExpiry) {
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
		c.armVSweep()
	})
}

// --- Function-ship + NFS-style polling ---------------------------------------

// funcShipRead ships the read to the server. In NFS mode the attribute
// cache is consulted first; a fresh GetAttr invalidates stale pages, the
// classic close-to-open-ish weak consistency (§5: "this scheme cannot
// keep caches coherent").
func (c *Client) funcShipRead(ino msg.ObjectID, idx uint64, cb DataCallback) {
	done := func(data []byte, errno msg.Errno) {
		c.finish(errno)
		cb(data, errno)
	}
	fetch := func() {
		if p := c.cache.Lookup(ino, idx); p != nil && c.cfg.Policy.NFS {
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
			data := r.Body.(msg.FuncReadRes).Data
			// Server-mediated reads see committed data; the oracle is not
			// consulted on the function-ship path (no client-side write
			// versions exist to compare against). NFS mode caches the
			// page for TTL-bounded reuse.
			if c.cfg.Policy.NFS {
				c.cache.Fill(ino, idx, data, 0)
			}
			done(data, msg.OK)
		})
	}
	if !c.cfg.Policy.NFS {
		fetch()
		return
	}
	// NFS attribute polling: trust cached attrs for AttrTTL.
	if o := c.objs[ino]; o != nil && o.attrAt != 0 && c.clock.Now().Sub(o.attrAt) < attrTTL {
		fetch()
		return
	}
	c.nfsPolls.Inc()
	c.getAttr(ino, func(attr msg.Attr, errno msg.Errno) {
		if errno != msg.OK {
			done(nil, errno)
			return
		}
		c.obj(ino).attrAt = c.clock.Now()
		o := c.cache.Ensure(ino)
		if o.HaveAttr && o.Attr.Version != attr.Version {
			c.cache.Drop(ino) // file changed: invalidate pages
			o = c.cache.Ensure(ino)
		}
		o.Attr = attr
		o.HaveAttr = true
		fetch()
	})
}

// funcShipWrite ships the write to the server (write-through).
func (c *Client) funcShipWrite(ino msg.ObjectID, idx uint64, data []byte, cb ErrnoCallback) {
	c.call(&msg.FuncWrite{Ino: ino, Offset: idx * BlockSize, Data: data}, func(r *msg.Reply) {
		errno := errnoOf(r)
		if errno == msg.OK && c.cfg.Policy.NFS {
			// NFS caches what it wrote.
			c.cache.Fill(ino, idx, data, 0)
		}
		c.finish(errno)
		cb(errno)
	})
}
