package client

import (
	"repro/internal/core"
	"repro/internal/msg"
)

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
	c.lease.Reset()
	c.rejoin()
}

func (a leaseActions) PhaseChange(from, to core.Phase) {
	if a.c.OnPhase != nil {
		a.c.OnPhase(from, to)
	}
}

// maybeReassert attempts client-driven lock reassertion (§6): the NACK
// that just arrived may come from a restarted server that lost its lock
// table rather than from a lease timeout. While our lease is still
// running (phase 3/4 after the NACK), our locks remain contractually
// protected, so we present them; a server in its grace period restores
// them and the lease revives, a server that is actually timing us out
// refuses and the ordinary recovery completes.
func (c *Client) maybeReassert() {
	if c.crashedFlg || !c.registered || c.reassertTried || c.cfg.DisableReassert {
		return
	}
	if c.lease.Phase() != core.Phase3Suspect && c.lease.Phase() != core.Phase4Flush {
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
		if !c.lease.Revive(sent) {
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
// locks — and, for the paper's policy, a fresh lease granted by the
// Rejoin ACK itself.
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
		if c.lease != nil && !c.lease.Valid() {
			// The ACK came more than τ after this request's first send, and
			// a renewal dates from the send: the lease it grants is already
			// over. Registered without a lease, the client would refuse
			// every operation and send no keep-alive to get out, so ask
			// again — a new request, with a send time of its own.
			c.rejoin()
			return
		}
		res := r.Body.(msg.RejoinRes)
		c.chn.SetEpoch(res.Epoch)
		c.registered = true
		c.quiesced = false
		c.startBaselineTimers()
		c.startFlushTimer()
		if c.OnRecovered != nil {
			c.OnRecovered(res.Epoch)
		}
	})
}

// recoverLeaseless is the recovery path for policies without the paper's
// lease: the client has just learned (via NACK or a fenced I/O) that the
// server stopped honoring its locks. By now it may have served stale
// reads and stranded dirty data — exactly what the experiments count.
func (c *Client) recoverLeaseless() {
	if c.crashedFlg || c.recovering {
		return
	}
	c.endEpisode()
	c.stopBaselineTimers()
	c.rejoin()
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
