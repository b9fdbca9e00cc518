package server

import (
	"fmt"

	"repro/internal/blockstore"
	"repro/internal/core"
	"repro/internal/lock"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/trace"
)

// Replicated-authority integration (DESIGN.md §15). When Config.Replica
// is set, the server is one member of a replica group: it boots passive,
// runs the PaxosLease negotiation (internal/replica) alongside its
// siblings, and serves clients only while it holds the authority lease.
// The paper's lease economy makes this cheap — a passive replica carries
// no per-client state to keep warm; everything volatile is rebuilt by the
// clients themselves through grace-period reassertion (§6) when the
// replica activates.

// authorityHeld reports whether this server may act as the lease
// authority right now. A non-replicated server always holds it.
func (s *Server) authorityHeld() bool { return s.neg == nil || s.activeFlg }

// ActiveAuthority reports whether this server currently serves as the
// (possibly replicated) lease authority, for tests and the harness.
func (s *Server) ActiveAuthority() bool { return s.authorityHeld() }

// Role reports the server's replica role as a msg.Role* constant; a
// non-replicated server is always active.
func (s *Server) Role() uint8 {
	if s.neg == nil {
		return msg.RoleActive
	}
	return s.neg.Role()
}

// NegBallot reports the negotiator's current ballot (0 when not
// replicated), for operator display.
func (s *Server) NegBallot() uint64 {
	if s.neg == nil {
		return 0
	}
	return s.neg.Ballot()
}

// syncRoleGauges refreshes the operator-visible role and ballot gauges
// (server.<id>.role carries a msg.Role* value).
func (s *Server) syncRoleGauges() {
	s.roleGauge.Set(int64(s.Role()))
	s.ballotGauge.Set(int64(s.NegBallot()))
}

// activate is the negotiator's OnActive callback: this replica won the
// authority lease. It recovers the metadata store (live replicas replay
// the durable journal; sim replicas share the Store pointer) and decides
// whether the takeover needs a grace period: a nonzero durable epoch
// counter means clients registered under a prior regime, so their locks
// may be live and must get the reassertion window; a zero counter is a
// cold boot with provably no one to protect.
func (s *Server) activate(ballot uint64) {
	s.activeFlg = true
	if s.cfg.MetaPersist != "" {
		s.recoverMeta()
	}
	s.mustLearnFloor()
	if s.cfg.PlaceOwner != nil {
		s.store.SetAutoParents(true)
		for _, e := range s.store.PendingExports() {
			s.resumeHandoff(e)
		}
	}
	note := "cold"
	if s.store.CurrentEpoch() > 0 {
		note = "grace"
		s.inRecovery = true
		s.graceUntil = s.clock.Now().Add(s.cfg.GracePeriod)
		until := s.graceUntil
		s.clock.AfterFunc(s.cfg.GracePeriod, func() {
			if s.stopped || !s.activeFlg || s.graceUntil != until {
				return // crashed, stepped down, or re-activated since
			}
			s.inRecovery = false
			s.emit(trace.Event{Type: trace.EvReplicaTakeover,
				Epoch: msg.Epoch(ballot), Note: "grace-end"})
		})
	}
	s.emit(trace.Event{Type: trace.EvReplicaTakeover,
		Epoch: msg.Epoch(ballot), Note: note})
	s.syncRoleGauges()
}

// deactivate is the negotiator's OnStepdown callback: the authority lease
// lapsed (isolation, supersession). All volatile authority state is
// discarded — whoever activates next rebuilds it from client reassertion,
// and keeping stale lock tables around could only corrupt that.
func (s *Server) deactivate() {
	s.activeFlg = false
	s.closeJournal()
	s.resetVolatile()
	s.syncRoleGauges()
}

// resetVolatile clears every piece of state the paper calls volatile
// (§6): every client's record, each ended (endSession) before it goes,
// the locks and suspect-tracking. The durable store (metadata, epochs, handoff
// ledgers) is untouched.
func (s *Server) resetVolatile() {
	for _, p := range s.peers {
		s.endSession(p)
	}
	s.peers = make(map[msg.NodeID]*peer)
	s.locks = lock.NewTable(demanderFunc(s.sendDemand))
	s.syncLocksHeld()
	s.auth = core.NewAuthority(s.cfg.Core, s.clock, authorityActions{s},
		core.Env{Reg: s.reg, Prefix: "server.", Tracer: s.tracer, Node: s.id})
	s.inRecovery = false
	s.learning = nil // the Rejoins it holds go to whoever activates next
}

// redirect answers a client request this passive replica must not serve:
// a NACK carrying ErrNotActive, which the client channel treats as a
// routing hint (rotate to the next replica) rather than a lease event.
func (s *Server) redirect(client msg.NodeID, id msg.ReqID) {
	s.redirectsSent.Inc()
	s.send(client, &msg.Reply{Client: client, Req: id, Status: msg.NACK, Err: msg.ErrNotActive})
}

// handleReplicaInfo answers the operator role query. Any replica answers,
// active or not — that is the point of the query — and the reply is
// lease-neutral (the client channel special-cases ReplicaInfoRes).
func (s *Server) handleReplicaInfo(client msg.NodeID, id msg.ReqID) {
	active := s.id
	if s.neg != nil {
		active = s.neg.ActiveHint()
	}
	s.send(client, &msg.Reply{Client: client, Req: id, Status: msg.ACK,
		Body: msg.ReplicaInfoRes{Role: s.Role(), Ballot: s.NegBallot(), Active: active}})
}

// recoverMeta replaces the store with the one persisted at
// cfg.MetaPersist — snapshot plus journal replay, an empty store on a
// first boot — journalled from here on, and checkpointed: whoever served
// from these files before holds a descriptor on an unlinked log now. The
// journal's fsyncs count into the server's registry as meta.fsyncs,
// meta.fsync_wait and meta.dir_fsyncs.
func (s *Server) recoverMeta() {
	st, err := meta.OpenJournaled(s.cfg.MetaPersist, s.cfg.Disks,
		blockstore.NewSyncer(s.reg, "server.meta.", false))
	if err != nil {
		panic(fmt.Sprintf("server %v: recovering metadata store: %v", s.id, err))
	}
	s.store = st
}

// closeJournal stops journalling: this server no longer speaks for the
// store (stepped down, or retired), so nothing it does to its copy from
// here on may reach the files the next authority recovers from.
func (s *Server) closeJournal() {
	// Records not yet committed never had a message depend on them, and
	// everything committed is already the kernel's: the close error
	// loses nothing.
	_ = s.store.CloseJournal()
}
