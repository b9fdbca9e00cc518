package core

import (
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// ReplyCallback receives the terminal outcome of a Call. Exactly one of
// these holds:
//   - reply.Status == msg.ACK: the request executed; reply carries the
//     result.
//   - reply.Status == msg.NACK: the server refuses service (the lease
//     machinery has already been notified).
//   - reply == nil: the Call was cancelled by CancelAll.
type ReplyCallback func(reply *msg.Reply)

// pendingCall is what the channel keeps of a call in its table.
type pendingCall struct {
	req msg.Request
	tC1 sim.Time // local time of the FIRST send attempt
	cb  ReplyCallback
}

// Channel is the client's reliable-request layer over the connection-less
// control network. It retries datagrams until a Reply arrives, tags each
// request with a per-client ReqID for at-most-once execution, and feeds
// the lease machine:
//
//   - on ACK, LeaseClient.Renewed(tC1) with the FIRST send time of the
//     request. Using the first attempt is required for safety: the reply
//     proves the server heard *some* attempt, and only the first attempt
//     is guaranteed to precede whichever receipt triggered the reply.
//   - on NACK, LeaseClient.NACKed() — unless the request was stamped
//     under a registration the channel has since replaced: that refusal
//     says nothing about the current one.
//
// This is where opportunistic renewal (§3.1) lives: every ordinary
// file-system message doubles as a lease renewal, so an active client
// never sends lease-specific traffic.
// When the authority is replicated, SetTargets installs the replica set:
// a NACK carrying msg.ErrNotActive is a redirect, not an answer — the
// channel keeps the call pending, rotates to the next replica, and
// resends, without touching the lease machine either way. Silent servers
// (SIGKILLed actives) are covered too: every few unanswered retries of a
// single call rotate the target as well.
type Channel struct {
	self    msg.NodeID
	server  msg.NodeID   // current target
	targets []msg.NodeID // full replica set; rotation cycles this
	clock   sim.Clock
	send    func(to msg.NodeID, m msg.Message)
	lease   *LeaseClient // may be nil (baselines without lease semantics)
	env     Env

	epoch msg.Epoch
	calls *Calls[pendingCall]

	sent    *stats.Counter // first-attempt sends
	retries *stats.Counter
	acks    *stats.Counter
	nacksC  *stats.Counter
	redirs  *stats.Counter
}

// redirectTries is how many consecutive unanswered retries of one call
// rotate the channel to the next replica. Redirect NACKs rotate
// immediately; this only covers servers that die silently.
const redirectTries = 3

// NewChannel creates a channel from self to server. lease may be nil.
// env supplies the registry the channel's counters live in.
func NewChannel(self, server msg.NodeID, cfg Config, clock sim.Clock,
	send func(to msg.NodeID, m msg.Message), lease *LeaseClient, env Env) *Channel {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	env = env.withDefaults()
	c := &Channel{
		self:    self,
		server:  server,
		targets: []msg.NodeID{server},
		clock:   clock,
		send:    send,
		lease:   lease,
		env:     env,
		sent:    env.counter("chan.sent"),
		retries: env.counter("chan.retries"),
		acks:    env.counter("chan.acks"),
		nacksC:  env.counter("chan.nacks"),
		redirs:  env.counter("chan.redirects"),
	}
	c.calls = NewCalls(0, clock, cfg.RetryInterval, c.transmit)
	return c
}

// SetTargets installs the replica set the channel may address. The
// current target is kept if it is in the set, otherwise reset to the
// first entry.
func (c *Channel) SetTargets(ts []msg.NodeID) {
	if len(ts) == 0 {
		return
	}
	c.targets = slices.Clone(ts)
	if !slices.Contains(c.targets, c.server) {
		c.server = c.targets[0]
	}
}

// rotate advances to the next replica in the target set (to the first,
// if the current target is not in it).
func (c *Channel) rotate() {
	if len(c.targets) > 1 {
		c.server = c.targets[(slices.Index(c.targets, c.server)+1)%len(c.targets)]
	}
}

// Epoch returns the channel's current registration epoch.
func (c *Channel) Epoch() msg.Epoch { return c.epoch }

// SetEpoch installs the epoch returned by a successful Rejoin.
func (c *Channel) SetEpoch(e msg.Epoch) { c.epoch = e }

// Server returns the peer this channel talks to.
func (c *Channel) Server() msg.NodeID { return c.server }

// Pending returns the number of in-flight requests.
func (c *Channel) Pending() int { return c.calls.Len() }

// Call sends req and invokes cb with the eventual reply. The request's
// header is filled in by the channel. Retries continue indefinitely — an
// isolated client keeps trying — until a reply arrives or CancelAll runs;
// the lease machine, not the channel, decides when to give up.
func (c *Channel) Call(req msg.Request, cb ReplyCallback) msg.ReqID {
	p := c.calls.Add(pendingCall{req: req, tC1: c.clock.Now(), cb: cb})
	h := req.Hdr()
	h.Client = c.self
	h.Req = p.ID
	h.Epoch = c.epoch
	c.sent.Inc()
	c.calls.Send(p)
	return p.ID
}

// transmit sends a call to the current target; a retransmission, every
// few of which rotate the target, is counted as one.
func (c *Channel) transmit(p *Call[pendingCall], retry bool) bool {
	if retry {
		c.retries.Inc()
		if p.Tries%redirectTries == 0 {
			c.rotate() // the target may be dead; try a peer replica
		}
	}
	c.send(c.server, p.Val.req)
	return true
}

// HandleReply dispatches a server Reply to its pending call. Duplicate or
// unknown replies are dropped (the at-most-once IDs make this safe).
func (c *Channel) HandleReply(r *msg.Reply) {
	if r.Status == msg.NACK && r.Err == msg.ErrNotActive {
		// A passive replica redirected us. This is neither a renewal nor a
		// lease NACK — the authority never saw the request — so bypass the
		// lease machine entirely: keep the call pending, rotate, resend.
		if p := c.calls.Find(r.Req); p != nil {
			c.redirs.Inc()
			c.rotate()
			c.calls.Send(p)
		}
		return
	}
	call, ok := c.calls.Take(r.Req)
	if !ok {
		return
	}
	p := &call.Val
	switch _, info := r.Body.(msg.ReplicaInfoRes); {
	case info:
		// Operator role query: answered by ANY replica, so its ACK proves
		// nothing about the authority hearing from us — lease-neutral.
	case r.Status == msg.ACK:
		c.acks.Inc()
		if c.lease != nil {
			c.lease.Renewed(p.tC1)
		}
	case r.Status == msg.NACK:
		c.nacksC.Inc()
		if c.lease != nil && p.req.Hdr().Epoch == c.epoch {
			c.lease.NACKed()
		}
	}
	if p.cb != nil {
		p.cb(r)
	}
}

// CancelAll aborts every pending call, in the order they were issued
// (their callbacks receive nil), and traces each (EvCancel). The owner
// calls this when the lease expires: outstanding operations are dead,
// and recovery starts from a clean channel. Cancellation callbacks can
// issue new calls (recovery begins immediately); those survive — only
// calls pending at entry are aborted (Calls.Cancel).
func (c *Channel) CancelAll() {
	c.calls.Cancel(func(p Call[pendingCall]) {
		c.env.emit(c.clock, trace.Event{Type: trace.EvCancel, Req: p.ID, Peer: c.server})
		if p.Val.cb != nil {
			p.Val.cb(nil)
		}
	})
}
