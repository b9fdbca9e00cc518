package msg

// Replica-to-replica authority-lease negotiation (PaxosLease-style; see
// internal/replica). The lease authority for a shard is elected among M
// diskless replicas: a candidate opens a ballot (ReplicaPrepare), collects
// promises from a majority of acceptors (ReplicaPromise), proposes itself
// as the lease holder (ReplicaPropose), and holds the authority lease once
// a majority accepts (ReplicaAccept). Nothing is written to disk: safety
// comes from acceptors holding accepted state strictly longer — on their
// own rate-bounded clocks — than any holder believes its lease runs.

// ReplicaPrepare opens ballot Ballot at the acceptors: "promise to ignore
// lower ballots, and tell me of any lease you have accepted".
type ReplicaPrepare struct {
	From   NodeID
	Ballot uint64
}

func (*ReplicaPrepare) Kind() Kind { return KindReplica }

func (m *ReplicaPrepare) layout(c *coder) { c.node(&m.From); c.u64(&m.Ballot) }

// ReplicaPromise answers a ReplicaPrepare. OK=false rejects the ballot (a
// higher one was promised). An OK promise carries the acceptor's accepted
// state, if any has not yet expired on its local clock: the ballot and
// holder of the lease it last accepted. A candidate that learns of an
// unexpired lease held by another replica must back off.
type ReplicaPromise struct {
	From   NodeID
	Ballot uint64
	OK     bool
	// Accepted is true when AcceptedBallot/AcceptedHolder carry a live
	// accepted lease (the zero holder is not distinguishable otherwise).
	Accepted       bool
	AcceptedBallot uint64
	AcceptedHolder NodeID
}

func (*ReplicaPromise) Kind() Kind { return KindReplica }

func (m *ReplicaPromise) layout(c *coder) {
	c.node(&m.From)
	c.u64(&m.Ballot)
	c.b1(&m.OK)
	c.b1(&m.Accepted)
	c.u64(&m.AcceptedBallot)
	c.node(&m.AcceptedHolder)
}

// ReplicaPropose asks the acceptors to accept Holder as the authority
// lease holder under Ballot for the group's fixed lease term.
type ReplicaPropose struct {
	From   NodeID
	Ballot uint64
	Holder NodeID
}

func (*ReplicaPropose) Kind() Kind { return KindReplica }

func (m *ReplicaPropose) layout(c *coder) { c.node(&m.From); c.u64(&m.Ballot); c.node(&m.Holder) }

// ReplicaAccept answers a ReplicaPropose. OK=false rejects (a higher
// ballot was promised after the prepare round).
type ReplicaAccept struct {
	From   NodeID
	Ballot uint64
	OK     bool
}

func (*ReplicaAccept) Kind() Kind { return KindReplica }

func (m *ReplicaAccept) layout(c *coder) { c.node(&m.From); c.u64(&m.Ballot); c.b1(&m.OK) }

// ReplicaInfo asks a server for its replica role and current ballot — an
// operator query (tankcli's `role` command, the SIGUSR1 dump). It is
// answered before registration/epoch checks, like Rejoin, because an
// operator must be able to ask a passive replica who is active.
type ReplicaInfo struct{ ReqHeader }

func (*ReplicaInfo) Kind() Kind { return KindReplica }

func (m *ReplicaInfo) layout(c *coder) { c.hdr(&m.ReqHeader) }

// Replica roles as reported by ReplicaInfoRes and the server.<id>.role
// gauge.
const (
	RolePassive   uint8 = 0
	RoleCandidate uint8 = 1
	RoleActive    uint8 = 2
)

// RoleName renders a replica role constant.
func RoleName(r uint8) string {
	switch r {
	case RolePassive:
		return "passive"
	case RoleCandidate:
		return "candidate"
	case RoleActive:
		return "active"
	}
	return "invalid"
}

// ReplicaInfoRes reports a server's view of the replica group: its own
// role, the last ballot it opened or accepted, and the replica it believes
// currently holds the authority lease (None when unknown or standalone).
type ReplicaInfoRes struct {
	Role   uint8
	Ballot uint64
	Active NodeID
}

func (r ReplicaInfoRes) layout(c *coder) {
	c.u8(&r.Role)
	c.u64(&r.Ballot)
	c.node(&r.Active)
	keep(c, r)
}
