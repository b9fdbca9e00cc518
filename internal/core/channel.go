package core

import (
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// ReplyCallback receives the terminal outcome of a Call. Exactly one of
// these holds:
//   - reply.Status == msg.ACK: the request executed; reply carries the
//     result.
//   - reply.Status == msg.NACK: the server refuses service (the lease
//     machinery has already been notified).
//   - reply == nil: the Call was cancelled by CancelAll.
type ReplyCallback func(reply *msg.Reply)

type pendingCall struct {
	req   msg.Request
	tC1   sim.Time // local time of the FIRST send attempt
	cb    ReplyCallback
	timer sim.Timer
	tries int
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
	cfg     Config
	clock   sim.Clock
	send    func(to msg.NodeID, m msg.Message)
	lease   *LeaseClient // may be nil (baselines without lease semantics)

	epoch   msg.Epoch
	nextReq msg.ReqID
	pending map[msg.ReqID]*pendingCall

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
	return &Channel{
		self:    self,
		server:  server,
		targets: []msg.NodeID{server},
		cfg:     cfg,
		clock:   clock,
		send:    send,
		lease:   lease,
		pending: make(map[msg.ReqID]*pendingCall),
		sent:    env.counter("chan.sent"),
		retries: env.counter("chan.retries"),
		acks:    env.counter("chan.acks"),
		nacksC:  env.counter("chan.nacks"),
		redirs:  env.counter("chan.redirects"),
	}
}

// SetTargets installs the replica set the channel may address. The
// current target is kept if it is in the set, otherwise reset to the
// first entry.
func (c *Channel) SetTargets(ts []msg.NodeID) {
	if len(ts) == 0 {
		return
	}
	c.targets = append([]msg.NodeID(nil), ts...)
	for _, id := range c.targets {
		if id == c.server {
			return
		}
	}
	c.server = c.targets[0]
}

// rotate advances to the next replica in the target set.
func (c *Channel) rotate() {
	if len(c.targets) < 2 {
		return
	}
	for i, id := range c.targets {
		if id == c.server {
			c.server = c.targets[(i+1)%len(c.targets)]
			return
		}
	}
	c.server = c.targets[0]
}

// Epoch returns the channel's current registration epoch.
func (c *Channel) Epoch() msg.Epoch { return c.epoch }

// SetEpoch installs the epoch returned by a successful Rejoin.
func (c *Channel) SetEpoch(e msg.Epoch) { c.epoch = e }

// Server returns the peer this channel talks to.
func (c *Channel) Server() msg.NodeID { return c.server }

// Pending returns the number of in-flight requests.
func (c *Channel) Pending() int { return len(c.pending) }

// Call sends req and invokes cb with the eventual reply. The request's
// header is filled in by the channel. Retries continue indefinitely — an
// isolated client keeps trying — until a reply arrives or CancelAll runs;
// the lease machine, not the channel, decides when to give up.
func (c *Channel) Call(req msg.Request, cb ReplyCallback) msg.ReqID {
	c.nextReq++
	id := c.nextReq
	h := req.Hdr()
	h.Client = c.self
	h.Req = id
	h.Epoch = c.epoch
	p := &pendingCall{req: req, tC1: c.clock.Now(), cb: cb}
	c.pending[id] = p
	c.sent.Inc()
	c.send(c.server, req)
	c.armRetry(p, id)
	return id
}

func (c *Channel) armRetry(p *pendingCall, id msg.ReqID) {
	p.timer = c.clock.AfterFunc(c.cfg.RetryInterval, func() {
		if c.pending[id] != p {
			return
		}
		p.tries++
		c.retries.Inc()
		if p.tries%redirectTries == 0 {
			c.rotate() // the target may be dead; try a peer replica
		}
		c.send(c.server, p.req)
		c.armRetry(p, id)
	})
}

// HandleReply dispatches a server Reply to its pending call. Duplicate or
// unknown replies are dropped (the at-most-once IDs make this safe).
func (c *Channel) HandleReply(r *msg.Reply) {
	p, ok := c.pending[r.Req]
	if !ok {
		return
	}
	if r.Status == msg.NACK && r.Err == msg.ErrNotActive {
		// A passive replica redirected us. This is neither a renewal nor a
		// lease NACK — the authority never saw the request — so bypass the
		// lease machine entirely: keep the call pending, rotate, resend.
		c.redirs.Inc()
		c.rotate()
		if p.timer != nil {
			p.timer.Stop()
		}
		c.send(c.server, p.req)
		c.armRetry(p, r.Req)
		return
	}
	delete(c.pending, r.Req)
	if p.timer != nil {
		p.timer.Stop()
	}
	if _, info := r.Body.(msg.ReplicaInfoRes); info {
		// Operator role query: answered by ANY replica, so its ACK proves
		// nothing about the authority hearing from us — lease-neutral.
		if p.cb != nil {
			p.cb(r)
		}
		return
	}
	switch r.Status {
	case msg.ACK:
		c.acks.Inc()
		if c.lease != nil {
			c.lease.Renewed(p.tC1)
		}
	case msg.NACK:
		c.nacksC.Inc()
		if c.lease != nil && p.req.Hdr().Epoch == c.epoch {
			c.lease.NACKed()
		}
	}
	if p.cb != nil {
		p.cb(r)
	}
}

// CancelAll aborts every pending call (their callbacks receive nil). The
// owner calls this when the lease expires: outstanding operations are
// dead, and recovery starts from a clean channel. Cancellation callbacks
// can issue new calls (recovery begins immediately); those survive —
// only calls pending at entry (and anything cancelled transitively) are
// aborted, via snapshots rather than iteration over a mutating map.
func (c *Channel) CancelAll() {
	victims := make([]msg.ReqID, 0, len(c.pending))
	for id := range c.pending {
		victims = append(victims, id)
	}
	for _, id := range victims {
		p, ok := c.pending[id]
		if !ok {
			continue
		}
		delete(c.pending, id)
		if p.timer != nil {
			p.timer.Stop()
		}
		if p.cb != nil {
			p.cb(nil)
		}
	}
}
