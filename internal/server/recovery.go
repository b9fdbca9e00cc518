package server

import (
	"repro/internal/baselines"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pendingDemand is a server-initiated Demand awaiting its transport-level
// DemandAck. The absence of that ack, after retries, is the "delivery
// error" that activates the recovery policy.
type pendingDemand struct {
	holder *peer
	ino    msg.ObjectID
	to     msg.LockMode
	id     msg.DemandID
	tries  int
	retry  sim.Retry[*pendingDemand]
}

// sendDemand is the lock table's Demander hook.
func (s *Server) sendDemand(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID) {
	p := s.peerOf(holder)
	pd := &pendingDemand{holder: p, ino: ino, to: to, id: id}
	p.demands[id] = pd
	s.transmitDemand(pd)
}

func (s *Server) transmitDemand(pd *pendingDemand) {
	s.demandsSent.Inc()
	in, errno := s.store.Get(pd.ino)
	dir := errno == msg.OK && in.IsDir
	if dir {
		s.dirRevokes.Inc()
	}
	if s.tracer.Enabled() {
		note := ""
		switch {
		case dir && pd.tries > 0:
			note = "dir retry"
		case dir:
			note = "dir"
		case pd.tries > 0:
			note = "retry"
		}
		s.emit(trace.Event{Type: trace.EvDemand, Peer: pd.holder.id, Ino: pd.ino,
			To: pd.to.String(), Note: note})
	}
	s.send(pd.holder.id, &msg.Demand{ID: pd.id, Ino: pd.ino, Mode: pd.to, Server: s.id})
	s.demandRetry.Add(&pd.retry, pd)
}

// retransmitDemand runs when a demand's interval passes without its
// DemandAck: it resends, or, with the retry budget spent, reports the
// delivery error.
func (s *Server) retransmitDemand(pd *pendingDemand) {
	if pd.tries >= s.cfg.Core.DemandRetries {
		delete(pd.holder.demands, pd.id)
		s.emit(trace.Event{Type: trace.EvDemandFailed, Peer: pd.holder.id, Ino: pd.ino})
		s.onDeliveryFailure(pd.holder.id)
		return
	}
	pd.tries++
	s.transmitDemand(pd)
}

// retireDemand stops a demand's retry loop: the holder has shown that it
// arrived. A DemandAck says so and nothing else — the downgrade itself
// completes later — and the LockDowngraded that reports the downgrade says
// so as well (handlers.go). A demand nobody is waiting on any more, or
// one aimed at somebody else, is left alone.
func (s *Server) retireDemand(id msg.DemandID, holder msg.NodeID) {
	p := s.peers[holder]
	if p == nil {
		return
	}
	if pd, ok := p.demands[id]; ok {
		s.demandRetry.Remove(&pd.retry)
		delete(p.demands, id)
	}
}

// onDeliveryFailure reacts to an unacknowledged demand per the recovery
// policy — the heart of the comparison experiments.
func (s *Server) onDeliveryFailure(client msg.NodeID) {
	switch s.cfg.Policy.Recovery {
	case baselines.RecoverLeaseFence:
		// The paper's protocol: hand the problem to the passive lease
		// authority. It NACKs the client from now on and steals (and
		// fences, via StealLocks) after τ(1+ε).
		s.auth.OnDeliveryFailure(client)

	case baselines.RecoverHonorLocks:
		// Never steal. The conflicting request stays queued — possibly
		// forever (T2's unavailability) — and the server keeps re-sending
		// the demand so that progress resumes if the partition heals.
		s.clock.AfterFunc(s.cfg.Core.RetryInterval*4, func() { s.redemandNow(client) })

	case baselines.RecoverStealImmediate:
		// Traditional recovery, unsafe on NAS: steal now, no fence.
		s.peerOf(client).mustRejoin = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "immediate"})
		s.stealAndFence(client, false)

	case baselines.RecoverFenceOnly:
		// §2.1's strawman: fence at the disks, then steal. The client is
		// not told; it discovers the fence when its I/O fails.
		s.peerOf(client).mustRejoin = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "fence-only"})
		s.stealAndFence(client, true)

	case baselines.RecoverHeartbeatSteal:
		// Frangipani-style: steal once the heartbeat lease has lapsed on
		// the server's clock.
		s.scheduleHeartbeatSteal(client)

	case baselines.RecoverPerObjectExpire:
		// V-style: every per-object lease the client holds will have
		// lapsed once TTL(1+ε) passes without renewals (renewals can no
		// longer arrive: the client is NACKed after the steal; before
		// it, each renewal pushes expiry, so wait from "now").
		s.schedulePerObjectSteal(client)
	}
}

// redemandNow re-transmits the demands still outstanding against a
// holder (honor-locks). If delivery fails again, onDeliveryFailure
// re-schedules this, so the demand loop runs until the partition heals.
func (s *Server) redemandNow(client msg.NodeID) {
	if s.locks.LocksHeldBy(client) == 0 {
		return
	}
	p := s.peerOf(client)
	for _, d := range s.locks.OutstandingDemands(client) {
		if _, inFlight := p.demands[d.ID]; !inFlight {
			s.sendDemand(client, d.Ino, d.To, d.ID)
		}
	}
}

// scheduleHeartbeatSteal arms (idempotently) the Frangipani-style steal.
func (s *Server) scheduleHeartbeatSteal(client msg.NodeID) {
	p := s.peerOf(client)
	if p.steal != nil {
		return
	}
	s.leaseOps.Inc()
	var check func()
	check = func() {
		s.leaseOps.Inc() // scanning the lease table is server work
		// The steal waits TTL(1+ε) past the last heartbeat: the client's
		// own lease — measured on its rate-synchronized clock from the
		// heartbeat's send time — has then provably lapsed (the same
		// argument as Theorem 3.1, with heartbeats in place of
		// opportunistic renewals).
		if p.heard && s.clock.Now().Sub(p.lastHeard) < s.cfg.Core.StealDelay() {
			// Lease still valid; re-check when it could lapse.
			p.steal = s.clock.AfterFunc(s.cfg.Core.Tau/4, check)
			return
		}
		p.steal = nil
		p.mustRejoin = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "heartbeat"})
		s.stealAndFence(client, true)
	}
	p.steal = s.clock.AfterFunc(s.cfg.Core.Tau/4, check)
}

// schedulePerObjectSteal arms the V-style steal at TTL(1+ε).
func (s *Server) schedulePerObjectSteal(client msg.NodeID) {
	p := s.peerOf(client)
	if p.steal != nil {
		return
	}
	s.leaseOps.Inc()
	p.steal = s.clock.AfterFunc(s.cfg.Core.StealDelay(), func() {
		p.steal = nil
		p.mustRejoin = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "per-object"})
		s.stealAndFence(client, false) // V predates fencing; client-side expiry is the safety
	})
}

// stealAndFence ends the client's session (endSession), removes every
// lock it holds (redistributing to waiters), and — when fence is true —
// fences it below the next epoch the store will mint: only a new
// registration gets it back in. Nothing lowers a fence, so nothing waits
// for one.
func (s *Server) stealAndFence(client msg.NodeID, fence bool) {
	if !s.authorityHeld() {
		// A stale suspect timer from a pre-stepdown authority incarnation:
		// this replica no longer speaks for the lease, so it must neither
		// steal nor fence.
		return
	}
	s.endSession(s.peerOf(client))
	s.locks.StealAll(client)
	if fence && !s.cfg.DisableFence {
		below := s.store.CurrentEpoch() + 1
		s.emit(trace.Event{Type: trace.EvFence, Peer: client, Epoch: below})
		s.fences.Add(uint64(s.fence(client, below, nil)))
	}
	s.syncLocksHeld()
}

// fence raises this authority's fence against target to below on every
// fence disk, in ID order, and hands each disk's answer to answered (nil:
// none wanted). It returns how many disks it asked.
func (s *Server) fence(target msg.NodeID, below msg.Epoch, answered func(msg.Message, msg.Errno)) int {
	for _, d := range s.cfg.FenceDisks {
		s.sanSend(d, func(req msg.ReqID) msg.Message {
			return &msg.FenceSet{Admin: s.id, Req: req, Authority: s.authority, Target: target, Below: below}
		}, answered)
	}
	return len(s.cfg.FenceDisks)
}

// floorRound is one learnFloor: the disks yet to answer, and the Rejoins
// waiting for them, by client.
type floorRound struct {
	left   int
	parked map[msg.NodeID]msg.ReqID
}

// mustLearnFloor makes a server whose epoch counter dies with its process
// — a store neither durable nor handed to it — learn how high its
// authority's fences reach before it registers anyone (learnFloor).
func (s *Server) mustLearnFloor() {
	if s.cfg.Store == nil && s.cfg.MetaPersist == "" && len(s.cfg.FenceDisks) > 0 {
		s.learning = &floorRound{}
	}
}

// learnFloor raises the epoch counter past the highest fence each disk
// holds under this authority, which a fence that raises nothing gets as
// its answer (FenceRes.Top). The first Rejoin asks, from the server's own
// task; every Rejoin waits until all disks have answered.
func (s *Server) learnFloor(r *floorRound) {
	r.left = s.fence(msg.None, 0, func(reply msg.Message, _ msg.Errno) {
		if res, ok := reply.(*msg.FenceRes); ok {
			s.store.RaiseEpoch(res.Top)
		}
		if r.left--; r.left == 0 && s.learning == r {
			s.learning = nil
			for client, id := range r.parked {
				s.handleRejoin(client, id)
			}
		}
	})
}
