package server

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/msg"
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

	// base is a baseline's leases for the client (baseline.go); nil under
	// the paper's protocol, which keeps nothing per client.
	base *baseLease
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
// their retransmission queue, its parked mutations and a baseline's leases
// and steal go, and its reply history is forgotten. It keeps the
// registration, which only a rejoin or a reassertion replaces, and the
// locks, which the caller steals or installs. Every request the client
// sends from here on is NACKed (it is suspect, or must rejoin) or comes
// with a new epoch, so nothing dropped can be asked for again.
func (s *Server) endSession(p *peer) {
	for _, pd := range p.demands {
		s.demandRetry.Remove(&pd.retry)
	}
	clear(p.demands)
	clear(p.parked)
	s.rec.ended(p)
	s.rcache.Forget(p.id)
}

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
