package server

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baselines"
	"repro/internal/msg"
	"repro/internal/sim"
)

// peer is everything the server holds for one client (DESIGN.md §24). The
// client is the paper's unit of failure, so a steal, a rejoin, a
// reassertion and a stepdown each end what the record holds in one call,
// endSession. The lease authority's suspect list and the reply cache are
// kept apart (core.Authority, core.ReplyCache); endSession clears the
// latter by the client's ID.
type peer struct {
	id msg.NodeID
	// epoch is the client's registration (0: none). mustRejoin NACKs the
	// client until it rejoins, once a leaseless policy has stolen its locks
	// (a merged partition's requests are "merely denied", §1.2).
	epoch      msg.Epoch
	mustRejoin bool

	// demands are the demands sent to the client that await its DemandAck.
	demands map[msg.DemandID]*pendingDemand
	// parked holds the client's mutations waiting for its exclusive hold on
	// a directory to come back (namespace.go), by directory. The server's
	// own ID has a record for the changes it makes itself.
	parked map[msg.ObjectID][]*mutation

	// Heartbeat baseline: when the client was last heard from (heard: at
	// all). Per-object (V) baseline: each lease's expiry. steal is the
	// baseline's steal, which a failed demand arms: the heartbeat check,
	// or the V leases' lapse.
	lastHeard sim.Time
	heard     bool
	objLeases map[msg.ObjectID]sim.Time
	steal     sim.Timer
}

// peerOf returns c's record, making it on first use.
func (s *Server) peerOf(c msg.NodeID) *peer {
	p := s.peers[c]
	if p == nil {
		p = &peer{id: c,
			demands: make(map[msg.DemandID]*pendingDemand),
			parked:  make(map[msg.ObjectID][]*mutation)}
		s.peers[c] = p
	}
	return p
}

// endSession is the one teardown of a client's record: its demands leave
// their retransmission queue, its parked mutations and baseline leases go,
// the baseline's steal timer stops, and its reply history is forgotten.
// It keeps the registration, which only a rejoin or a reassertion
// replaces, and the locks, which the caller steals or installs. Every
// request the client sends from here on is NACKed (it is suspect, or must
// rejoin) or comes with a new epoch, so nothing dropped can be asked for
// again.
func (s *Server) endSession(p *peer) {
	for _, pd := range p.demands {
		s.demandRetry.Remove(&pd.retry)
	}
	clear(p.demands)
	clear(p.parked)
	if p.heard {
		p.heard = false
		s.heardCount--
	}
	s.objLeaseCount -= len(p.objLeases)
	p.objLeases = nil
	if p.steal != nil {
		p.steal.Stop()
		p.steal = nil
	}
	s.rcache.Forget(p.id)
	s.syncLeaseBytes()
}

// heardFrom notes contact from p for the heartbeat baseline.
func (s *Server) heardFrom(p *peer) {
	if s.cfg.Policy.Lease != baselines.LeaseHeartbeat {
		return
	}
	s.leaseOps.Inc()
	if !p.heard {
		p.heard = true
		s.heardCount++
	}
	p.lastHeard = s.clock.Now()
	s.syncLeaseBytes()
}

// vLeaseTouch grants or renews client's per-object lease on ino (V
// baseline).
func (s *Server) vLeaseTouch(client msg.NodeID, ino msg.ObjectID) {
	if s.cfg.Policy.Lease != baselines.LeasePerObject {
		return
	}
	s.leaseOps.Inc()
	p := s.peerOf(client)
	if p.objLeases == nil {
		p.objLeases = make(map[msg.ObjectID]sim.Time)
	}
	if _, ok := p.objLeases[ino]; !ok {
		s.objLeaseCount++
	}
	p.objLeases[ino] = s.clock.Now().Add(s.cfg.Core.Tau)
	s.syncLeaseBytes()
}

// vLeaseDrop removes a per-object lease when the lock is fully released.
func (s *Server) vLeaseDrop(client msg.NodeID, ino msg.ObjectID) {
	if p := s.peers[client]; p != nil {
		if _, ok := p.objLeases[ino]; ok {
			s.leaseOps.Inc()
			delete(p.objLeases, ino)
			s.objLeaseCount--
			s.syncLeaseBytes()
		}
	}
}

// syncLeaseBytes sets lease_state_bytes from the baseline's running count.
func (s *Server) syncLeaseBytes() {
	switch s.cfg.Policy.Lease {
	case baselines.LeaseHeartbeat:
		s.leaseBytes.Set(int64(s.heardCount) * heartbeatEntryBytes)
	case baselines.LeasePerObject:
		s.leaseBytes.Set(int64(s.objLeaseCount) * objLeaseEntryBytes)
	}
}

const (
	heartbeatEntryBytes = 16
	objLeaseEntryBytes  = 24
)

// AtRest reports, by client, what the server still has in flight for it:
// demands awaiting their DemandAck, and mutations parked on a directory
// lock. Once the installation has quiesced, there must be none.
func (s *Server) AtRest() error {
	var bad []string
	for id, p := range s.peers {
		if len(p.demands) > 0 || len(p.parked) > 0 {
			bad = append(bad, fmt.Sprintf("%v: %d demands, mutations parked on %d directories",
				id, len(p.demands), len(p.parked)))
		}
	}
	if len(bad) == 0 {
		return nil
	}
	sort.Strings(bad)
	return fmt.Errorf("server %v is not at rest: %s", s.id, strings.Join(bad, "; "))
}
