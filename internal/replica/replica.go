// Package replica elects the active lease authority for a shard among M
// diskless server replicas, PaxosLease-style (Trencseni, Gazso, Reinhardt;
// see PAPERS.md).
//
// The paper's lease economy makes the authority cheap to replicate: during
// normal operation the server keeps ZERO per-client lease state (§3), so a
// passive replica needs nothing but the metadata store to take over — lock
// state is re-asserted by the clients themselves through the §6
// grace-period recovery. What remains is agreeing on WHO is active, and
// PaxosLease does that with no disk writes and no distinguished master:
//
//   - A candidate opens a ballot and sends ReplicaPrepare to the group.
//   - Acceptors promise the ballot (ReplicaPromise), reporting any lease
//     they have accepted that has not yet expired on their own clock.
//   - If a majority promises and no live accepted lease names another
//     replica, the candidate proposes itself (ReplicaPropose); once a
//     majority accepts (ReplicaAccept), it holds the authority lease for
//     the fixed term, measured from an instant captured BEFORE the first
//     prepare was sent — the same conservative ordered-events rule the
//     client lease uses for tC1 (§3.1).
//
// Safety needs no clock synchronization, only the paper's rate bound ε:
// the holder believes its lease runs [t0, t0+term) on its clock, while
// every acceptor holds the accepted state for term·(1+ε) on its own clock
// from an acceptance that happened after t0. Any competing candidate must
// intersect the granting majority, finds a live accepted lease there, and
// backs off. Lease timeouts are therefore strictly shorter than
// acquisition timeouts by construction, and two replicas can never both
// believe they are active at the same instant.
//
// The state machines are driven entirely by the injected sim.Clock: they
// run deterministically on the simulator and on wall clocks under rpcnet.
package replica

import (
	"fmt"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// DefaultLeaseTerm is the authority-lease term used when a deployment
// does not choose one: long enough that renewal traffic is negligible
// next to client traffic, short enough to keep failover within a few
// seconds.
const DefaultLeaseTerm = 2 * time.Second

// Config parameterizes one replica's negotiator.
type Config struct {
	// Self is this replica's node ID.
	Self msg.NodeID
	// Group is the full replica group, including Self. Order must be
	// identical at every member (it determines ballot disambiguation and
	// candidacy staggering). Group[0] names the authority the group
	// speaks for: the ID its clients lease from, which its fences carry.
	Group []msg.NodeID
	// LeaseTerm is how long one granted authority lease runs on the
	// holder's clock. The holder re-negotiates at half term; acceptors
	// hold accepted state for LeaseTerm·(1+ε), which is the acquisition
	// timeout that makes safety clock-sync-free.
	LeaseTerm time.Duration
	// Bound is the installation's clock rate-synchronization bound ε.
	Bound sim.RateBound
	// RetryInterval paces candidacy checks and bounds a negotiation
	// round; it should comfortably exceed one group round trip.
	RetryInterval time.Duration
	// Warmup must be set when this negotiator replaces a crashed one:
	// a diskless acceptor has forgotten its promises and accepted state,
	// so it must neither answer prepares/proposes nor campaign until one
	// full acquisition timeout has passed on its clock — otherwise its
	// amnesia could let a second holder win a quorum while the first's
	// lease is still live. A cold-booting group (no prior incarnation)
	// may skip the wait, but only a harness that knows which boot is
	// which can tell: the simulator sets it on restarts alone, and the
	// live transport (rpcnet) sets it always.
	Warmup bool
}

// Validate checks the configuration.
func (c Config) Validate() error {
	switch {
	case len(c.Group) == 0:
		return fmt.Errorf("replica: empty group")
	case c.LeaseTerm <= 0:
		return fmt.Errorf("replica: LeaseTerm must be positive, got %v", c.LeaseTerm)
	case c.RetryInterval <= 0:
		return fmt.Errorf("replica: RetryInterval must be positive, got %v", c.RetryInterval)
	}
	for i, n := range c.Group {
		if n == c.Self {
			return nil
		}
		if i > 0 && c.Group[i-1] == n {
			return fmt.Errorf("replica: duplicate group member %v", n)
		}
	}
	return fmt.Errorf("replica: Self %v not in group %v", c.Self, c.Group)
}

// Negotiator is one replica's combined proposer and acceptor. It is not
// safe for concurrent use; the owning server serializes access (the
// scheduler goroutine in simulation, the node executor under rpcnet).
type Negotiator struct {
	cfg   Config
	idx   int // Self's position in Group
	clock sim.Clock
	send  func(to msg.NodeID, m msg.Message)
	tr    *trace.Tracer

	// OnActive fires when this replica wins (or re-wins after a
	// stepdown) the authority lease. Renewals of a held lease do not
	// re-fire it.
	OnActive func(ballot uint64)
	// OnStepdown fires when a held lease lapses without extension or a
	// higher-ballot holder is observed.
	OnStepdown func()

	// Proposer state.
	active      bool
	campaigning bool
	ballot      uint64 // ballot of the in-flight campaign
	round       uint64
	t0          sim.Time // conservative lease start of the in-flight campaign
	leaseUntil  sim.Time // local expiry of the held lease
	promises    map[msg.NodeID]*msg.ReplicaPromise
	accepts     map[msg.NodeID]bool
	roundTimer  sim.Timer
	renewTimer  sim.Timer
	expireTimer sim.Timer
	checkTimer  sim.Timer

	// Acceptor state.
	promised  uint64
	accBallot uint64
	accHolder msg.NodeID
	accExpiry sim.Time

	// warmupUntil gates all participation after a restart (see
	// Config.Warmup).
	warmupUntil sim.Time

	stopped bool
}

// New creates a negotiator. send delivers a message to a peer replica
// (never called with Self). The negotiator is inert until Start.
func New(cfg Config, clock sim.Clock, send func(to msg.NodeID, m msg.Message), tr *trace.Tracer) *Negotiator {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	idx := 0
	for i, id := range cfg.Group {
		if id == cfg.Self {
			idx = i
		}
	}
	return &Negotiator{cfg: cfg, idx: idx, clock: clock, send: send, tr: tr}
}

// Start arms the candidacy loop. The first check is staggered by group
// position so a cold-booting group converges on its first member without
// a ballot duel (safety never depends on this — ballots do). A warming-up
// restart sits out one acquisition timeout first.
func (n *Negotiator) Start() {
	delay := n.cfg.RetryInterval * time.Duration(n.idx) / 2
	if n.cfg.Warmup {
		n.warmupUntil = n.clock.Now().Add(n.acquireTimeout())
		n.scheduleCheck(n.acquireTimeout() + delay)
		return
	}
	n.scheduleCheck(delay)
	if n.idx == 0 {
		n.campaign()
	}
}

// Stop halts all activity (replica crash, node shutdown).
func (n *Negotiator) Stop() {
	n.stopped = true
	for _, t := range []sim.Timer{n.roundTimer, n.renewTimer, n.expireTimer, n.checkTimer} {
		if t != nil {
			t.Stop()
		}
	}
}

// Active reports whether this replica currently holds the authority lease.
func (n *Negotiator) Active() bool { return n.active }

// Role reports the replica's role as a msg.Role* constant.
func (n *Negotiator) Role() uint8 {
	switch {
	case n.active:
		return msg.RoleActive
	case n.campaigning:
		return msg.RoleCandidate
	}
	return msg.RolePassive
}

// Ballot reports the highest ballot this replica has opened or promised,
// for operator display.
func (n *Negotiator) Ballot() uint64 {
	if n.ballot > n.promised {
		return n.ballot
	}
	return n.promised
}

// ActiveHint reports the replica this node believes holds the authority
// lease: itself when active, otherwise the holder of its live accepted
// state, otherwise None.
func (n *Negotiator) ActiveHint() msg.NodeID {
	if n.active {
		return n.cfg.Self
	}
	if n.acceptedLive() {
		return n.accHolder
	}
	return msg.None
}

// majority is the quorum size.
func (n *Negotiator) majority() int { return len(n.cfg.Group)/2 + 1 }

// acquireTimeout is how long an acceptor holds accepted state on its own
// clock: the lease term stretched by the rate bound, so it provably
// outlives the holder's belief (Theorem 3.1's argument).
func (n *Negotiator) acquireTimeout() time.Duration {
	return n.cfg.Bound.Stretch(n.cfg.LeaseTerm)
}

func (n *Negotiator) acceptedLive() bool {
	return n.accHolder != msg.None && n.clock.Now().Before(n.accExpiry)
}

func (n *Negotiator) emit(ev trace.Event) {
	if !n.tr.Enabled() {
		return
	}
	ev.Node = n.cfg.Self
	ev.Time = n.clock.Now()
	n.tr.Emit(ev)
}

// scheduleCheck arms the candidacy loop: campaign whenever no live lease
// is visible and nothing is in flight.
func (n *Negotiator) scheduleCheck(d time.Duration) {
	n.checkTimer = n.clock.AfterFunc(d, func() {
		if n.stopped {
			return
		}
		if !n.campaigning {
			switch {
			case n.active:
				// Retry an overdue renewal: the half-term renewTimer fires
				// once, and a round lost to the network must not leave the
				// holder idling toward hard expiry.
				if !n.clock.Now().Before(n.leaseUntil.Add(-n.cfg.LeaseTerm / 2)) {
					n.campaign()
				}
			case !n.acceptedLive():
				n.campaign()
			}
		}
		// Passive replicas re-check one interval after the lease they
		// know of could lapse; everyone else at the pacing interval.
		d := n.cfg.RetryInterval * time.Duration(1+n.idx)
		if n.active {
			d = n.cfg.RetryInterval
		}
		n.scheduleCheck(d)
	})
}

// campaign opens a fresh ballot: the prepare phase.
func (n *Negotiator) campaign() {
	if n.stopped {
		return
	}
	n.round++
	n.ballot = n.round*uint64(len(n.cfg.Group)) + uint64(n.idx) + 1
	n.t0 = n.clock.Now() // captured BEFORE any prepare is sent
	n.campaigning = true
	n.promises = make(map[msg.NodeID]*msg.ReplicaPromise, len(n.cfg.Group))
	n.accepts = nil
	n.emit(trace.Event{Type: trace.EvReplicaBallotOpen, Epoch: msg.Epoch(n.ballot)})
	if n.roundTimer != nil {
		n.roundTimer.Stop()
	}
	ballot := n.ballot
	n.roundTimer = n.clock.AfterFunc(n.cfg.RetryInterval*2, func() {
		// The round went stale (lost messages, a duel with a higher
		// ballot): abandon it; the candidacy loop will retry.
		if !n.stopped && n.campaigning && n.ballot == ballot {
			n.abandon()
		}
	})
	prepare := &msg.ReplicaPrepare{From: n.cfg.Self, Ballot: n.ballot}
	for _, id := range n.cfg.Group {
		if id == n.cfg.Self {
			n.handlePrepare(prepare)
			continue
		}
		n.send(id, prepare)
	}
}

// abandon ends the in-flight campaign without a lease.
func (n *Negotiator) abandon() {
	n.campaigning = false
	n.promises = nil
	n.accepts = nil
	if n.roundTimer != nil {
		n.roundTimer.Stop()
	}
}

// Deliver routes one negotiation message; it returns false for messages
// that are not part of the replica protocol.
func (n *Negotiator) Deliver(m msg.Message) bool {
	if n.stopped {
		// A stopped negotiator's node is down; its transports are too.
		// Tolerate stragglers during teardown.
		switch m.(type) {
		case *msg.ReplicaPrepare, *msg.ReplicaPromise, *msg.ReplicaPropose, *msg.ReplicaAccept:
			return true
		}
		return false
	}
	switch m := m.(type) {
	case *msg.ReplicaPrepare:
		n.handlePrepare(m)
	case *msg.ReplicaPromise:
		n.handlePromise(m)
	case *msg.ReplicaPropose:
		n.handlePropose(m)
	case *msg.ReplicaAccept:
		n.handleAccept(m)
	default:
		return false
	}
	return true
}

// reply sends a response to a peer, or short-circuits it locally when the
// peer is Self (a candidate is its own acceptor).
func (n *Negotiator) reply(to msg.NodeID, m msg.Message) {
	if to == n.cfg.Self {
		n.Deliver(m)
		return
	}
	n.send(to, m)
}

// --- Acceptor --------------------------------------------------------------

func (n *Negotiator) handlePrepare(m *msg.ReplicaPrepare) {
	if n.clock.Now().Before(n.warmupUntil) {
		return // restarted acceptor: amnesiac, must not vote yet
	}
	if m.Ballot < n.promised {
		n.emit(trace.Event{Type: trace.EvReplicaPromise, Peer: m.From,
			Epoch: msg.Epoch(m.Ballot), Note: "reject"})
		n.reply(m.From, &msg.ReplicaPromise{From: n.cfg.Self, Ballot: m.Ballot})
		return
	}
	n.promised = m.Ballot
	p := &msg.ReplicaPromise{From: n.cfg.Self, Ballot: m.Ballot, OK: true}
	note := ""
	if n.acceptedLive() {
		p.Accepted = true
		p.AcceptedBallot = n.accBallot
		p.AcceptedHolder = n.accHolder
		note = fmt.Sprintf("accepted=%v", n.accHolder)
	}
	n.emit(trace.Event{Type: trace.EvReplicaPromise, Peer: m.From,
		Epoch: msg.Epoch(m.Ballot), Note: note})
	n.reply(m.From, p)
}

func (n *Negotiator) handlePropose(m *msg.ReplicaPropose) {
	if n.clock.Now().Before(n.warmupUntil) {
		return // restarted acceptor: amnesiac, must not vote yet
	}
	if m.Ballot < n.promised {
		n.reply(m.From, &msg.ReplicaAccept{From: n.cfg.Self, Ballot: m.Ballot})
		return
	}
	n.promised = m.Ballot
	n.accBallot = m.Ballot
	n.accHolder = m.Holder
	n.accExpiry = n.clock.Now().Add(n.acquireTimeout())
	if n.active && m.Holder != n.cfg.Self {
		// A higher ballot installed another holder. Under the rate bound
		// this cannot happen while our lease is live; if it does reach us
		// (our own expiry timer races the message), cede immediately.
		n.stepdown("superseded")
	}
	n.reply(m.From, &msg.ReplicaAccept{From: n.cfg.Self, Ballot: m.Ballot, OK: true})
}

// --- Proposer --------------------------------------------------------------

func (n *Negotiator) handlePromise(m *msg.ReplicaPromise) {
	if !n.campaigning || m.Ballot != n.ballot || n.accepts != nil {
		return // stale round, or already past the prepare phase
	}
	if !m.OK {
		return // rejected; the round timer will abandon the campaign
	}
	n.promises[m.From] = m
	if len(n.promises) < n.majority() {
		return
	}
	// Quorum of promises. PaxosLease's simplification of classic Paxos:
	// if any live accepted lease names ANOTHER replica, do not adopt it —
	// back off and let it run (leases expire on their own; only the
	// holder may extend).
	for _, p := range n.promises {
		if p.Accepted && p.AcceptedHolder != n.cfg.Self {
			n.abandon()
			return
		}
	}
	n.accepts = make(map[msg.NodeID]bool, len(n.cfg.Group))
	n.emit(trace.Event{Type: trace.EvReplicaPropose, Epoch: msg.Epoch(n.ballot)})
	propose := &msg.ReplicaPropose{From: n.cfg.Self, Ballot: n.ballot, Holder: n.cfg.Self}
	for _, id := range n.cfg.Group {
		if id == n.cfg.Self {
			n.handlePropose(propose)
			continue
		}
		n.send(id, propose)
	}
}

func (n *Negotiator) handleAccept(m *msg.ReplicaAccept) {
	if !n.campaigning || m.Ballot != n.ballot || n.accepts == nil {
		return
	}
	if !m.OK {
		return
	}
	n.accepts[m.From] = true
	if len(n.accepts) < n.majority() {
		return
	}
	// Majority accepted: the lease is ours for [t0, t0+term) on our
	// clock — t0 was read before the first prepare left, so every
	// acceptor's acquire timeout outlives this interval.
	n.campaigning = false
	if n.roundTimer != nil {
		n.roundTimer.Stop()
	}
	wasActive := n.active
	n.active = true
	n.leaseUntil = n.t0.Add(n.cfg.LeaseTerm)
	note := ""
	if wasActive {
		note = "renew"
	}
	n.emit(trace.Event{Type: trace.EvReplicaLeaseGranted,
		Epoch: msg.Epoch(n.ballot), TC1: n.t0, Note: note})
	n.armLeaseTimers()
	if !wasActive && n.OnActive != nil {
		n.OnActive(n.ballot)
	}
}

// armLeaseTimers schedules the half-term renewal and the hard expiry.
func (n *Negotiator) armLeaseTimers() {
	if n.renewTimer != nil {
		n.renewTimer.Stop()
	}
	if n.expireTimer != nil {
		n.expireTimer.Stop()
	}
	renewAt := n.cfg.LeaseTerm / 2
	n.renewTimer = n.clock.AfterFunc(renewAt, func() {
		if !n.stopped && n.active && !n.campaigning {
			n.campaign()
		}
	})
	until := n.leaseUntil
	n.expireTimer = n.clock.AfterFunc(n.leaseUntil.Sub(n.clock.Now()), func() {
		if n.stopped || !n.active || n.leaseUntil != until {
			return // a renewal extended the lease
		}
		n.stepdown("expired")
	})
}

// stepdown cedes the authority lease.
func (n *Negotiator) stepdown(why string) {
	n.active = false
	n.abandon()
	n.emit(trace.Event{Type: trace.EvReplicaStepdown,
		Epoch: msg.Epoch(n.ballot), Note: why})
	if n.OnStepdown != nil {
		n.OnStepdown()
	}
}
