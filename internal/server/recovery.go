package server

import (
	"sort"

	"repro/internal/baselines"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pendingDemand is a server-initiated Demand awaiting its transport-level
// DemandAck. The absence of that ack, after retries, is the "delivery
// error" that activates the recovery policy.
type pendingDemand struct {
	holder msg.NodeID
	ino    msg.ObjectID
	to     msg.LockMode
	id     msg.DemandID
	tries  int
	retry  sim.Retry[*pendingDemand]
}

// sendDemand is the lock table's Demander hook.
func (s *Server) sendDemand(holder msg.NodeID, ino msg.ObjectID, to msg.LockMode, id msg.DemandID) {
	pd := &pendingDemand{holder: holder, ino: ino, to: to, id: id}
	s.demands[id] = pd
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
		s.emit(trace.Event{Type: trace.EvDemand, Peer: pd.holder, Ino: pd.ino,
			To: pd.to.String(), Note: note})
	}
	s.send(pd.holder, &msg.Demand{ID: pd.id, Ino: pd.ino, Mode: pd.to, Server: s.id})
	s.demandRetry.Add(&pd.retry, pd)
}

// retransmitDemand runs when a demand's interval passes without its
// DemandAck: it resends, or, with the retry budget spent, reports the
// delivery error.
func (s *Server) retransmitDemand(pd *pendingDemand) {
	if pd.tries >= s.cfg.Core.DemandRetries {
		delete(s.demands, pd.id)
		s.emit(trace.Event{Type: trace.EvDemandFailed, Peer: pd.holder, Ino: pd.ino})
		s.onDeliveryFailure(pd.holder)
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
	pd, ok := s.demands[id]
	if !ok || pd.holder != holder {
		return
	}
	s.demandRetry.Remove(&pd.retry)
	delete(s.demands, id)
}

// cancelDemandsTo drops outstanding demands aimed at a client whose locks
// were stolen (nothing left to downgrade).
func (s *Server) cancelDemandsTo(client msg.NodeID) {
	for id, pd := range s.demands {
		if pd.holder == client {
			s.demandRetry.Remove(&pd.retry)
			delete(s.demands, id)
		}
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
		s.mustRejoin[client] = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "immediate"})
		s.stealAndFence(client, false)

	case baselines.RecoverFenceOnly:
		// §2.1's strawman: fence at the disks, then steal. The client is
		// not told; it discovers the fence when its I/O fails.
		s.mustRejoin[client] = true
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
	for _, d := range s.locks.OutstandingDemands(client) {
		if _, inFlight := s.demands[d.ID]; inFlight {
			continue
		}
		pd := &pendingDemand{holder: client, ino: d.Ino, to: d.To, id: d.ID}
		s.demands[d.ID] = pd
		s.transmitDemand(pd)
	}
}

// scheduleHeartbeatSteal arms (idempotently) the Frangipani-style steal.
func (s *Server) scheduleHeartbeatSteal(client msg.NodeID) {
	if s.hbTimers[client] != nil {
		return
	}
	s.leaseOps.Inc()
	var check func()
	check = func() {
		last, ok := s.lastHeard[client]
		s.leaseOps.Inc() // scanning the lease table is server work
		// The steal waits TTL(1+ε) past the last heartbeat: the client's
		// own lease — measured on its rate-synchronized clock from the
		// heartbeat's send time — has then provably lapsed (the same
		// argument as Theorem 3.1, with heartbeats in place of
		// opportunistic renewals).
		if ok && s.clock.Now().Sub(last) < s.cfg.Core.StealDelay() {
			// Lease still valid; re-check when it could lapse.
			s.hbTimers[client] = s.clock.AfterFunc(s.cfg.Core.Tau/4, check)
			return
		}
		delete(s.hbTimers, client)
		s.mustRejoin[client] = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "heartbeat"})
		s.stealAndFence(client, true)
	}
	s.hbTimers[client] = s.clock.AfterFunc(s.cfg.Core.Tau/4, check)
}

// schedulePerObjectSteal arms the V-style steal at TTL(1+ε).
func (s *Server) schedulePerObjectSteal(client msg.NodeID) {
	if s.vTimers[client] != nil {
		return
	}
	s.leaseOps.Inc()
	s.vTimers[client] = s.clock.AfterFunc(s.cfg.Core.StealDelay(), func() {
		delete(s.vTimers, client)
		s.mustRejoin[client] = true
		s.emit(trace.Event{Type: trace.EvStealFired, Peer: client, Note: "per-object"})
		s.stealAndFence(client, false) // V predates fencing; client-side expiry is the safety
	})
}

// stealAndFence removes every lock the client holds (redistributing to
// waiters), cancels demands aimed at it, closes its handles, and — when
// fence is true — erects the SAN fence.
func (s *Server) stealAndFence(client msg.NodeID, fence bool) {
	if !s.authorityHeld() {
		// A stale suspect timer from a pre-stepdown authority incarnation:
		// this replica no longer speaks for the lease, so it must neither
		// steal nor fence.
		return
	}
	s.cancelDemandsTo(client)
	s.dropParked(client)
	s.locks.StealAll(client)
	delete(s.handles, client)
	for k := range s.objLeases {
		if k.client == client {
			delete(s.objLeases, k)
		}
	}
	if fence && !s.cfg.DisableFence {
		s.setFence(client, true)
	}
	s.syncLocksHeld()
}

// setFence instructs every disk to fence/unfence the client.
func (s *Server) setFence(client msg.NodeID, on bool) {
	s.emit(trace.Event{Type: trace.EvFence, Peer: client, On: on})
	if on {
		s.fencedClients[client] = true
	} else {
		delete(s.fencedClients, client)
	}
	fenceDisks := s.cfg.Disks
	if s.cfg.FenceDisks != nil {
		fenceDisks = s.cfg.FenceDisks
	}
	disks := make([]msg.NodeID, 0, len(fenceDisks))
	for d := range fenceDisks {
		disks = append(disks, d)
	}
	sort.Slice(disks, func(i, j int) bool { return disks[i] < disks[j] })
	for _, d := range disks {
		s.fences.Inc()
		s.sanSend(d, func(req msg.ReqID) msg.Message {
			return &msg.FenceSet{Admin: s.id, Req: req, Target: client, On: on}
		}, nil)
	}
}
