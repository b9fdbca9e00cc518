package client

import (
	"sort"

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
	if idx < uint64(len(o.Blocks)) {
		cb(msg.OK)
		return
	}
	need := uint32(idx + 1 - uint64(len(o.Blocks)))
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
		if !o.HaveMap || int(res.First) != len(o.Blocks) {
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
		o.Blocks = append(o.Blocks, res.Blocks...)
		o.Attr = c.seenAttr(res.Attr)
		cb(msg.OK)
	})
}

// sizePush is what an object owes the server about its size. It exists
// from the first write that extends the file until the next settle
// point — Sync, the trim, Truncate, the periodic flush — has seen the
// final size acknowledged. Writes only mark the size owed; the settle
// point is what sends it.
type sizePush struct {
	// inflight: a SetAttr is unacknowledged. There is never a second.
	inflight bool
	// owed: the size has grown since the last SetAttr was sent.
	owed bool
	// err is why a SetAttr failed; the entry retires with it.
	err msg.Errno
	// waiters are the settle points waiting; while there are any, an
	// acknowledgment sends what is owed, and they run when nothing is.
	waiters []func(msg.Errno)
}

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
	p := c.sizePush[ino]
	if p == nil {
		p = &sizePush{}
		c.sizePush[ino] = p
	}
	p.owed = true
}

func (c *Client) sendSize(ino msg.ObjectID, p *sizePush, size uint64) {
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
		c.stepSize(ino, p)
	})
}

// stepSize moves a settling object forward: send what is owed, or, with
// nothing owed and nothing in flight, retire the entry and release the
// settle points waiting on it.
func (c *Client) stepSize(ino msg.ObjectID, p *sizePush) {
	if p.inflight || len(p.waiters) == 0 {
		return
	}
	if o := c.cache.Object(ino); p.owed && o != nil && o.HaveAttr {
		c.sendSize(ino, p, o.Attr.Size)
		return
	}
	if c.sizePush[ino] == p {
		delete(c.sizePush, ino)
	}
	for _, w := range p.waiters {
		w(p.err)
	}
}

// settleSize runs fn once the server has ino's size, or once pushing it
// has failed, with the failure.
func (c *Client) settleSize(ino msg.ObjectID, fn func(msg.Errno)) {
	p := c.sizePush[ino]
	if p == nil {
		fn(msg.OK)
		return
	}
	p.waiters = append(p.waiters, fn)
	c.stepSize(ino, p)
}

// settleSizes runs fn once the server has the size of every object, with
// the first failure among them.
func (c *Client) settleSizes(fn func(msg.Errno)) {
	if len(c.sizePush) == 0 {
		fn(msg.OK)
		return
	}
	inos := make([]msg.ObjectID, 0, len(c.sizePush))
	for ino := range c.sizePush {
		inos = append(inos, ino)
	}
	// In a fixed order: the simulator's runs must repeat.
	sort.Slice(inos, func(i, j int) bool { return inos[i] < inos[j] })
	done := gather(len(inos), fn)
	for _, ino := range inos {
		c.settleSize(ino, done)
	}
}

// whenSettled runs fn once the server has ino's size and no data
// operation is in flight on it.
func (c *Client) whenSettled(ino msg.ObjectID, fn func()) {
	switch {
	case c.sizePush[ino] != nil:
		c.settleSize(ino, func(msg.Errno) { c.whenSettled(ino, fn) })
	case c.ioCount[ino] > 0:
		c.whenIdle(ino, func() { c.whenSettled(ino, fn) })
	default:
		fn()
	}
}

// seenAttr is a server-reported attr as this client should see it: while
// the object owes the server its size, the client's own is the newer
// one, and a reply does not move it backwards.
func (c *Client) seenAttr(attr msg.Attr) msg.Attr {
	if c.sizePush[attr.Ino] == nil {
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
	if c.sizePush[ino] != nil || c.ioCount[ino] > 0 {
		c.whenSettled(ino, func() { c.trim(ino, done) })
		return
	}
	o := c.cache.Object(ino)
	if o == nil || !o.HaveMap || !o.HaveAttr || c.lockedInos[ino] != msg.LockExclusive {
		done()
		return
	}
	keep := int((o.Attr.Size + BlockSize - 1) / BlockSize)
	if keep < o.Fetched {
		keep = o.Fetched
	}
	if len(o.Blocks) <= keep {
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
		c.downgradeEnd(ino)
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
	if len(o.Blocks) > nBlocks {
		o.Blocks = o.Blocks[:nBlocks]
	}
	if o.Fetched > nBlocks {
		o.Fetched = nBlocks
	}
	o.Attr = attr
	o.HaveAttr = true
}
