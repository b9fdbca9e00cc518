package client

import (
	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
)

// A clientLease is how the client knows the server still honours its
// locks (DESIGN §26): the paper's lease, or a baseline's (baseline.go).
type clientLease interface {
	admits() bool          // may a new operation start?
	serves(o *object) bool // may the lock o shows serve one (holds)?
	locked(o *object)      // o's lock was granted, or given up
	registered() bool      // a Rejoin's ACK starts the lease: false if over already
	teardown()             // the registration is over
	refused(fenced bool)   // a NACK, or a disk's refusal, came back
}

// paperLease is the paper's lease (§3): one per server, renewed by every
// ACKed message, its four phases run by core.LeaseClient.
type paperLease struct {
	noLease
	*core.LeaseClient
}

func (l paperLease) admits() bool { return l.Valid() }
func (l paperLease) teardown()    { l.Reset() }

// registered: a Rejoin ACKed more than τ after its first send grants a
// lease that is over, and a client registered without one would refuse
// every operation and send no keep-alive to get out. It asks again.
func (l paperLease) registered() bool { return l.Valid() }

// leaseActions adapts the Client to core.LeaseActions: this is where the
// four phases of §3.2 become file-system behaviour.
type leaseActions struct{ c *Client }

// SendKeepAlive sends the NULL renewal message. Its ACK renews the lease
// through the ordinary channel path.
func (a leaseActions) SendKeepAlive() {
	a.c.call(&msg.KeepAlive{}, nil)
}

// Quiesce (phase 3): stop servicing new file-system requests; in-progress
// operations keep draining until phase 4.
func (a leaseActions) Quiesce() {
	a.c.quiesced = true
}

// Flush (phase 4): write every dirty page to the SAN. The control network
// may be gone but the SAN is not — the server's fence only rises at
// τ(1+ε), after our lease (and this flush window) has ended.
func (a leaseActions) Flush(done func()) {
	a.c.flushAll(func(msg.Errno) { done() })
}

// Expired: the contract is over. Caches (data and metadata) are invalid,
// all locks are ceded locally, in-flight control calls die, and the
// client begins rejoin.
func (a leaseActions) Expired() {
	c := a.c
	c.quiesced = false
	c.reassertTried = false
	c.endEpisode()
	c.lease.teardown()
	c.rejoin()
}

func (a leaseActions) PhaseChange(from, to core.Phase) {
	if a.c.OnPhase != nil {
		a.c.OnPhase(from, to)
	}
}

// refused attempts client-driven lock reassertion (§6): the NACK may come
// from a restarted server that lost its lock table rather than from a
// lease timeout. While our lease still runs (phase 3/4 after the NACK), our
// locks remain contractually protected, so we present them; a server in
// its grace period restores them and the lease revives, one timing us out
// refuses and the ordinary recovery completes. (A request in flight across
// a reassertion is refused for an epoch that is history: the channel does
// not tell the lease, which stays valid, and the registration that replaced
// that epoch is left alone.) A fenced I/O needs nothing: the lease ran out
// before the fence rose, unless the clock ran slow, which fencing is for.
func (l paperLease) refused(fenced bool) {
	c := l.c
	if fenced || c.crashedFlg || !c.registered || c.reassertTried || c.cfg.DisableReassert {
		return
	}
	if l.Phase() != core.Phase3Suspect && l.Phase() != core.Phase4Flush {
		return
	}
	c.reassertTried = true
	inos := c.locked()
	claims := make([]msg.LockClaim, len(inos))
	for i, ino := range inos {
		claims[i] = msg.LockClaim{Ino: ino, Mode: c.objs[ino].mode}
	}
	sent := c.clock.Now()
	c.chn.Call(&msg.Reassert{Locks: claims}, func(r *msg.Reply) {
		if r == nil || r.Status != msg.ACK || r.Err != msg.OK {
			return // recovery proceeds through the phases
		}
		res := r.Body.(msg.ReassertRes)
		if !l.Revive(sent) {
			return // too late: the lease lapsed while reasserting
		}
		c.chn.SetEpoch(res.Epoch)
		c.quiesced = false
		c.reassertTried = false
		if c.OnRecovered != nil {
			c.OnRecovered(res.Epoch)
		}
	})
}

// rejoin (re)registers with the server, retrying until it succeeds. On
// success the client starts from nothing: fresh epoch, empty cache, no
// locks — and a fresh lease granted by the Rejoin ACK itself.
func (c *Client) rejoin() {
	if c.crashedFlg || c.recovering {
		return
	}
	c.recovering = true
	c.recovers.Inc()
	c.chn.SetEpoch(0)
	c.call(&msg.Rejoin{}, func(r *msg.Reply) {
		c.recovering = false
		if r == nil || r.Status != msg.ACK || r.Err != msg.OK {
			// Shouldn't normally happen (Rejoin is always admitted), but
			// a reply lost to a crash restart warrants another attempt.
			c.clock.AfterFunc(c.cfg.Core.RetryInterval, func() { c.rejoin() })
			return
		}
		if !c.lease.registered() {
			c.rejoin()
			return
		}
		res := r.Body.(msg.RejoinRes)
		c.chn.SetEpoch(res.Epoch)
		c.registered = true
		c.quiesced = false
		c.startFlushTimer()
		if c.OnRecovered != nil {
			c.OnRecovered(res.Epoch)
		}
	})
}

// startFlushTimer arms periodic write-back when configured.
func (c *Client) startFlushTimer() {
	if c.cfg.FlushInterval <= 0 || c.flushTimer != nil {
		return
	}
	var fire func()
	fire = func() {
		c.flushTimer = nil
		if c.crashedFlg {
			return
		}
		if c.registered && !c.quiesced {
			c.flushAll(nil)
			c.settleSizes(func(msg.Errno) {})
		}
		c.flushTimer = c.clock.AfterFunc(c.cfg.FlushInterval, fire)
	}
	c.flushTimer = c.clock.AfterFunc(c.cfg.FlushInterval, fire)
}

// stopTimers stops and forgets each timer set.
func stopTimers(ts ...*sim.Timer) {
	for _, t := range ts {
		if *t != nil {
			(*t).Stop()
			*t = nil
		}
	}
}
