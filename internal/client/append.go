package client

import (
	"slices"

	"repro/internal/msg"
)

// The append path (DESIGN.md §17). Extending a file costs the server a
// constant amount of work whatever the file's length: an allocation is
// answered with the blocks it added, usually a run ahead of the writer,
// the size travels in one SetAttr per settle point and never two at a
// time, and what was granted and never written goes back when the
// exclusive lock does.

// ensureAlloc extends the file's allocation to cover block idx. The reply
// carries the blocks added and the index they start at; they are spliced
// onto the cached map only if that is where the map ends. Otherwise the
// server's map is not this one plus the reply — the request ran twice
// across a server restart that lost the reply cache, or replies crossed —
// and the map is fetched whole.
func (c *Client) ensureAlloc(ino msg.ObjectID, idx uint64, cb ErrnoCallback) {
	o := c.cache.Ensure(ino)
	have := uint64(o.Map.Len())
	if idx < have {
		cb(msg.OK)
		return
	}
	need := uint32(idx + 1 - have)
	c.changeBegin() // an allocation moves the version
	c.call(&msg.AllocBlocks{Ino: ino, Count: need}, func(r *msg.Reply) {
		errno := errnoOf(r)
		if errno != msg.OK {
			c.changeEnd()
			cb(errno)
			return
		}
		res := r.Body.(msg.AllocRes)
		c.names.refreshAttr(res.Attr)
		c.changeEnd()
		o := c.cache.Ensure(ino)
		if !o.HaveMap || int(res.First) != o.Map.Len() {
			o.HaveMap = false
			c.ensureMap(ino, func(errno msg.Errno) {
				if errno != msg.OK {
					cb(errno)
					return
				}
				c.ensureAlloc(ino, idx, cb)
			})
			return
		}
		o.Map = o.Map.Append(res.Map...)
		o.Attr = c.seenAttr(res.Attr)
		cb(msg.OK)
	})
}

// sizePush is what an object owes the server about its size, in its
// record. It is pending from the first write that extends the file until
// the next settle point — Sync, the trim, Truncate, the periodic flush —
// has seen the final size acknowledged. Writes only mark the size owed;
// the settle point is what sends it.
type sizePush struct {
	// inflight: a SetAttr is unacknowledged. There is never a second.
	inflight bool
	// owed: the size has grown since the last SetAttr was sent.
	owed bool
	// err is why a SetAttr failed; the push retires with it.
	err msg.Errno
	// waiters are the settle points waiting; while there are any, an
	// acknowledgment sends what is owed, and they run when nothing is.
	waiters []func(msg.Errno)
}

// pending reports whether the server does not have the size yet.
func (p *sizePush) pending() bool { return p.owed || p.inflight || len(p.waiters) > 0 }

// maybeExtend moves the cached size forward after a write past the end
// of file and marks it owed. It sends nothing: the server hears the size
// at the next settle point, in one SetAttr carrying the size as it stands
// then, however many writes extended the file since the last one. How
// many SetAttr an append costs is thus decided by the calls made, never
// by when an acknowledgment happened to arrive.
func (c *Client) maybeExtend(ino msg.ObjectID, idx uint64, n int) {
	o := c.cache.Object(ino)
	end := idx*BlockSize + uint64(n)
	if o == nil || !o.HaveAttr || end <= o.Attr.Size {
		return
	}
	o.Attr.Size = end
	c.obj(ino).push.owed = true
}

// sendSize pushes size for ino, whose record is o.
func (c *Client) sendSize(ino msg.ObjectID, o *object, size uint64) {
	p := &o.push
	p.owed, p.inflight = false, true
	c.changeBegin()
	c.call(&msg.SetAttr{Ino: ino, NewSize: size}, func(r *msg.Reply) {
		p.inflight = false
		if errno := errnoOf(r); errno == msg.OK {
			c.learnAttr(r.Body.(msg.AttrRes), false)
		} else {
			// Refused, or cancelled with the lease: nothing more to send,
			// and the settle points waiting hear why.
			p.owed, p.err = false, errno
		}
		c.changeEnd()
		c.stepSize(ino, o)
	})
}

// stepSize moves a settling object forward: send what is owed, or, with
// nothing owed and nothing in flight, retire the push and release the
// settle points waiting on it.
func (c *Client) stepSize(ino msg.ObjectID, o *object) {
	p := &o.push
	if p.inflight || len(p.waiters) == 0 {
		return
	}
	if co := c.cache.Object(ino); p.owed && co != nil && co.HaveAttr {
		c.sendSize(ino, o, co.Attr.Size)
		return
	}
	waiters, err := p.waiters, p.err
	*p = sizePush{}
	c.tidy(ino, o)
	for _, w := range waiters {
		w(err)
	}
}

// settleSize runs fn once the server has ino's size, or once pushing it
// has failed, with the failure.
func (c *Client) settleSize(ino msg.ObjectID, fn func(msg.Errno)) {
	o := c.objs[ino]
	if o == nil || !o.push.pending() {
		fn(msg.OK)
		return
	}
	o.push.waiters = append(o.push.waiters, fn)
	c.stepSize(ino, o)
}

// settleSizes runs fn once the server has the size of every object, with
// the first failure among them.
func (c *Client) settleSizes(fn func(msg.Errno)) {
	var inos []msg.ObjectID
	for ino, o := range c.objs {
		if o.push.pending() {
			inos = append(inos, ino)
		}
	}
	if len(inos) == 0 {
		fn(msg.OK)
		return
	}
	// In a fixed order: the simulator's runs must repeat.
	slices.Sort(inos)
	done := gather(len(inos), fn)
	for _, ino := range inos {
		c.settleSize(ino, done)
	}
}

// whenSettled runs fn once the server has ino's size and no data
// operation is in flight on it.
func (c *Client) whenSettled(ino msg.ObjectID, fn func()) {
	o := c.objs[ino]
	switch {
	case o != nil && o.push.pending():
		c.settleSize(ino, func(msg.Errno) { c.whenSettled(ino, fn) })
	case o != nil && o.io > 0:
		c.whenIdle(ino, func() { c.whenSettled(ino, fn) })
	default:
		fn()
	}
}

// seenAttr is a server-reported attr as this client should see it: while
// the object owes the server its size, the client's own is the newer
// one, and a reply does not move it backwards.
func (c *Client) seenAttr(attr msg.Attr) msg.Attr {
	if o := c.objs[attr.Ino]; o == nil || !o.push.pending() {
		return attr
	}
	if o := c.cache.Object(attr.Ino); o != nil && o.HaveAttr && o.Attr.Size > attr.Size {
		attr.Size = o.Attr.Size
	}
	return attr
}

// trim is the last step before the exclusive lock on ino is given up, or
// its last write handle closed: wait until the server has the size, then
// give back the blocks granted ahead of the writer and never written, and
// call done. It truncates to the blocks the size covers, but never below
// the map as it was fetched: only blocks granted to this holder are known
// to be empty. The server frees nothing on its own account — a block it
// granted may be where a partitioned writer's last flush went — so this
// is the only place grant-ahead is undone. The downgrade latch keeps new
// writes out of the tail while the truncate is on its way.
func (c *Client) trim(ino msg.ObjectID, done func()) {
	o := c.objs[ino]
	if o != nil && (o.push.pending() || o.io > 0) {
		c.whenSettled(ino, func() { c.trim(ino, done) })
		return
	}
	co := c.cache.Object(ino)
	if co == nil || !co.HaveMap || !co.HaveAttr || o == nil || o.mode != msg.LockExclusive {
		done()
		return
	}
	keep := max(int((co.Attr.Size+BlockSize-1)/BlockSize), co.Fetched)
	if co.Map.Len() <= keep {
		done()
		return
	}
	c.downgradeBegin(ino)
	c.changeBegin()
	c.call(&msg.Truncate{Ino: ino, Blocks: uint32(keep)}, func(r *msg.Reply) {
		if errnoOf(r) == msg.OK {
			res := r.Body.(msg.AttrRes)
			c.learnAttr(res, false)
			c.truncated(ino, keep, res.Attr)
		}
		c.changeEnd()
		c.downgradeEnd(ino, o)
		done()
	})
}

// truncated applies an acknowledged Truncate to the cache: pages past
// the new end go, dirty or clean — their blocks are returning to the
// allocator and must never be served again — and so does the tail of the
// map.
func (c *Client) truncated(ino msg.ObjectID, nBlocks int, attr msg.Attr) {
	o := c.cache.Ensure(ino)
	c.cache.DropPagesFrom(ino, uint64(nBlocks))
	c.forgetReadAhead(ino)
	o.Map = o.Map.Head(nBlocks)
	if o.Fetched > nBlocks {
		o.Fetched = nBlocks
	}
	o.Attr = attr
	o.HaveAttr = true
}
