package server

import (
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
		s.rec.failed(pd.holder.id)
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

// A recovery is what the server does about a client that stops
// acknowledging demands (failed), with the lease bookkeeping it relies on
// (DESIGN §26): the paper's passive authority (leaseFence) or a baseline's.
// The rest hear of an admitted request, a registration or reassertion, a
// lock taken or given up, and the end of the client's session.
type recovery interface {
	failed(client msg.NodeID)
	message(p *peer, req msg.Request)
	contact(p *peer)
	granted(client msg.NodeID, ino msg.ObjectID)
	released(client msg.NodeID, ino msg.ObjectID)
	ended(p *peer)
}

// passive is the paper's server: it keeps nothing per client and does
// nothing per message (§1's "zero messages, zero server memory, zero
// server computation").
type passive struct{ s *Server }

func (passive) message(*peer, msg.Request)        {}
func (passive) contact(*peer)                     {}
func (passive) granted(msg.NodeID, msg.ObjectID)  {}
func (passive) released(msg.NodeID, msg.ObjectID) {}
func (passive) ended(*peer)                       {}

// leaseFence is the paper's recovery: the lease authority NACKs the
// client from now on and steals, and fences, after τ(1+ε) (StealLocks).
type leaseFence struct{ passive }

func (r leaseFence) failed(client msg.NodeID) { r.s.auth.OnDeliveryFailure(client) }

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
		s.sanSend(d, func(req msg.ReqID, _ msg.Epoch) msg.Message {
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
