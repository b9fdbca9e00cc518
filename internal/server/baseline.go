package server

import (
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Baseline recoveries (DESIGN §26), and the lease work per client and per
// message some need, which the paper's passive server avoids.

// honorLocks never steals. The conflicting request stays queued —
// possibly forever (T2's unavailability) — and the demand is re-sent, so
// progress resumes if the partition heals.
type honorLocks struct{ passive }

func (r honorLocks) failed(client msg.NodeID) {
	s := r.s
	s.clock.AfterFunc(s.cfg.Core.RetryInterval*4, func() {
		if s.locks.LocksHeldBy(client) == 0 {
			return
		}
		p := s.peerOf(client)
		for _, d := range s.locks.OutstandingDemands(client) {
			if _, inFlight := p.demands[d.ID]; !inFlight {
				s.sendDemand(client, d.Ino, d.To, d.ID)
			}
		}
	})
}

// stealNow steals at once: unfenced, the traditional recovery, unsafe on
// NAS (§1.2); fenced, §2.1's strawman, whose client learns of it only when
// its I/O fails. The lease-keeping baselines steal so once a lease is over.
type stealNow struct {
	passive
	note  string
	fence bool
}

func (r stealNow) failed(client msg.NodeID) {
	r.s.peerOf(client).mustRejoin = true
	r.s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: r.note})
	r.s.stealAndFence(client, r.fence)
}

// stealOnce arms a steal of client's locks d from now, unless one is armed;
// while held says the client's lease may still run, it waits d more.
func (r stealNow) stealOnce(client msg.NodeID, d time.Duration, held func(*baseLease) bool) {
	s := r.s
	b := baseOf(s.peerOf(client))
	if b.steal != nil {
		return
	}
	s.leaseOps.Inc()
	var check func()
	check = func() {
		b.steal = nil
		if held(b) {
			b.steal = s.clock.AfterFunc(d, check)
			return
		}
		r.failed(client)
	}
	b.steal = s.clock.AfterFunc(d, check)
}

// baseLease is what a baseline's leases keep for a client (peer.base): when
// it was last heard from, if it was, each object lease's expiry, and the
// steal a failed demand arms.
type baseLease struct {
	lastHeard sim.Time
	heard     bool
	objects   map[msg.ObjectID]sim.Time
	steal     sim.Timer
}

// baseOf returns p's baseline leases, making them on first use.
func baseOf(p *peer) *baseLease {
	if p.base == nil {
		p.base = &baseLease{}
	}
	return p.base
}

// endBase stops p's steal and forgets its leases.
func endBase(p *peer) {
	if p.base != nil && p.base.steal != nil {
		p.base.steal.Stop()
	}
	p.base = nil
}

// heartbeats keep Frangipani's lease (§5): the server notes when each
// client was last heard from, and steals, and fences, once that is τ(1+ε)
// ago.
type heartbeats struct{ stealNow }

func (h heartbeats) message(p *peer, req msg.Request) {
	if _, ok := req.(*msg.Heartbeat); ok {
		h.contact(p)
	}
}

// contact counts registration too: the Rejoin's ACK establishes the
// lease, and a client isolated before its first heartbeat must not be
// stolen from at once.
func (h heartbeats) contact(p *peer) {
	h.s.leaseOps.Inc()
	if b := baseOf(p); !b.heard {
		b.heard = true
		h.s.leaseBytes.Add(heartbeatEntryBytes)
	}
	p.base.lastHeard = h.s.clock.Now()
}

func (h heartbeats) ended(p *peer) {
	if p.base != nil && p.base.heard {
		h.s.leaseBytes.Add(-heartbeatEntryBytes)
	}
	endBase(p)
}

// failed steals TTL(1+ε) past the last heartbeat: the client's own lease,
// measured on its rate-synchronized clock from the heartbeat's send, has
// then provably lapsed (Theorem 3.1). The check runs every τ/4.
func (h heartbeats) failed(client msg.NodeID) {
	s := h.s
	h.stealOnce(client, s.cfg.Core.Tau/4, func(b *baseLease) bool {
		s.leaseOps.Inc() // scanning the lease table is server work
		return b.heard && s.clock.Now().Sub(b.lastHeard) < s.cfg.Core.StealDelay()
	})
}

// objectLeases keep the V system's leases (§4): one per lock a client
// holds, granted with the lock and renewed by RenewObjects.
type objectLeases struct{ stealNow }

func (v objectLeases) message(p *peer, req msg.Request) {
	if m, ok := req.(*msg.RenewObjects); ok {
		for _, ino := range m.Inos {
			v.granted(p.id, ino)
		}
	}
}

func (v objectLeases) granted(client msg.NodeID, ino msg.ObjectID) {
	s := v.s
	s.leaseOps.Inc()
	b := baseOf(s.peerOf(client))
	if b.objects == nil {
		b.objects = make(map[msg.ObjectID]sim.Time)
	}
	if _, ok := b.objects[ino]; !ok {
		s.leaseBytes.Add(objLeaseEntryBytes)
	}
	b.objects[ino] = s.clock.Now().Add(s.cfg.Core.Tau)
}

func (v objectLeases) released(client msg.NodeID, ino msg.ObjectID) {
	if p := v.s.peers[client]; p != nil && p.base != nil {
		if _, ok := p.base.objects[ino]; ok {
			v.s.leaseOps.Inc()
			delete(p.base.objects, ino)
			v.s.leaseBytes.Add(-objLeaseEntryBytes)
		}
	}
}

func (v objectLeases) ended(p *peer) {
	if p.base != nil {
		v.s.leaseBytes.Add(-objLeaseEntryBytes * int64(len(p.base.objects)))
	}
	endBase(p)
}

// failed steals at TTL(1+ε): every per-object lease the client holds will
// have lapsed by then (renewals can no longer arrive: the client is NACKed
// after the steal; before it, each renewal pushes expiry, so wait from
// "now").
func (v objectLeases) failed(client msg.NodeID) {
	v.stealOnce(client, v.s.cfg.Core.StealDelay(), func(*baseLease) bool { return false })
}

// What lease_state_bytes counts per heartbeat lease and per object lease.
const (
	heartbeatEntryBytes = 16
	objLeaseEntryBytes  = 24
)
