package core

import (
	"repro/internal/msg"
	"repro/internal/stats"
)

// ReplyCache gives the server at-most-once execution over the datagram
// control network (§3: messages "include version numbers for at most once
// delivery semantics"). A retried request whose original was executed is
// answered from the cache; a retry of a request still executing (e.g. a
// lock acquire waiting on a demand) is dropped, because the eventual
// grant will send the reply.
type ReplyCache struct {
	perClient map[msg.NodeID]*clientReplies
	// keep bounds how many completed replies are remembered per client.
	keep int

	dups *stats.Counter // duplicate requests answered/absorbed
}

type clientReplies struct {
	done     map[msg.ReqID]*msg.Reply
	order    []msg.ReqID // completion order, for eviction
	inFlight map[msg.ReqID]bool
}

// NewReplyCache creates a cache remembering up to keep replies per client.
func NewReplyCache(keep int, reg *stats.Registry, prefix string) *ReplyCache {
	if keep < 1 {
		keep = 1
	}
	if reg == nil {
		reg = stats.NewRegistry()
	}
	return &ReplyCache{
		perClient: make(map[msg.NodeID]*clientReplies),
		keep:      keep,
		dups:      reg.Counter(prefix + "replycache.duplicates"),
	}
}

func (rc *ReplyCache) client(id msg.NodeID) *clientReplies {
	cr := rc.perClient[id]
	if cr == nil {
		cr = &clientReplies{
			done:     make(map[msg.ReqID]*msg.Reply),
			inFlight: make(map[msg.ReqID]bool),
		}
		rc.perClient[id] = cr
	}
	return cr
}

// Disposition is the cache's verdict on an incoming request.
type Disposition uint8

const (
	// Execute: a new request; the server must run it and call Complete.
	Execute Disposition = iota
	// Resend: a duplicate of a completed request; send the cached reply.
	Resend
	// Absorb: a duplicate of a request still executing; do nothing.
	Absorb
)

// Admit classifies a request. For Resend it returns the cached reply.
func (rc *ReplyCache) Admit(client msg.NodeID, req msg.ReqID) (Disposition, *msg.Reply) {
	cr := rc.client(client)
	if r, ok := cr.done[req]; ok {
		rc.dups.Inc()
		return Resend, r
	}
	if cr.inFlight[req] {
		rc.dups.Inc()
		return Absorb, nil
	}
	cr.inFlight[req] = true
	return Execute, nil
}

// Complete records the reply for an executed request and evicts the
// oldest completion beyond the keep bound.
func (rc *ReplyCache) Complete(client msg.NodeID, req msg.ReqID, reply *msg.Reply) {
	cr := rc.client(client)
	delete(cr.inFlight, req)
	if _, ok := cr.done[req]; !ok {
		cr.order = append(cr.order, req)
	}
	cr.done[req] = reply
	for len(cr.order) > rc.keep {
		evict := cr.order[0]
		cr.order = cr.order[1:]
		delete(cr.done, evict)
	}
}

// Forget drops all cached state for a client (on rejoin: the client's
// ReqID space restarts with its new epoch).
func (rc *ReplyCache) Forget(client msg.NodeID) { delete(rc.perClient, client) }

// Kept reports how many completed replies the cache holds for client.
func (rc *ReplyCache) Kept(client msg.NodeID) int {
	if cr, ok := rc.perClient[client]; ok {
		return len(cr.done)
	}
	return 0
}

// InFlight reports whether the request is currently executing.
func (rc *ReplyCache) InFlight(client msg.NodeID, req msg.ReqID) bool {
	if cr, ok := rc.perClient[client]; ok {
		return cr.inFlight[req]
	}
	return false
}
