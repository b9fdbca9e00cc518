package client

import "repro/internal/msg"

// A hit function answers one operation from what the client caches, in
// one synchronous step, or declines it (DESIGN §20.6). It first checks,
// with no side effect, everything the operation's callback path checks
// before that path would serve from the cache, so a decline leaves the
// client as it found it and the operation goes the callback path. A hit
// then applies the callback path's side effects in that path's order —
// counters, the I/O pin, read-ahead, the cache, the oracle, the size —
// so that nothing watching can tell the two apart. Client.Lookup, Stat,
// Readdir, Read and Write start with theirs; SyncClient calls them
// directly, under the runtime's token, with no callback at all.

// holds reports whether o, the record of an object (nil: none), shows a
// lock that serves an operation needing mode here and now: no downgrade
// is in flight — a revocation between its flush and its report must not
// see new work start under it — the mode covers, and the lease lets the
// lock serve (under the V baseline, the object's own lease runs).
// ensureLock uses the cached lock exactly when this holds.
func (c *Client) holds(o *object, mode msg.LockMode) bool {
	return o != nil && o.downgrades == 0 && o.mode.Covers(mode) && c.lease.serves(o)
}

// readHit is a Read of block idx served from a resident page under a held
// lock: the caller's copy of the block.
func (c *Client) readHit(h msg.Handle, idx uint64) ([]byte, bool) {
	if !c.admitted() {
		return nil, false
	}
	info, ok := c.handles[h]
	if !ok || !c.data.caches() {
		return nil, false
	}
	co := c.cache.Object(info.ino)
	if !c.holds(c.objs[info.ino], msg.LockShared) || co == nil || !co.HaveMap {
		return nil, false
	}
	p := co.Page(idx)
	if p == nil {
		return nil, false
	}
	c.inflight++
	c.reads.Inc()
	o := c.ioBegin(info.ino)
	c.notePrefetchRead(info.ino, o, idx)
	// Read-ahead only sends: the page is still resident.
	c.cache.Hit(p, behind(o, co))
	c.oracle.Read(c.id, info.ino, idx, p.Ver)
	data := append([]byte(nil), p.Bytes()...)
	c.ioEnd(info.ino, o)
	c.finish(msg.OK)
	return data, true
}

// writeHit is a Write of block idx into the cache under a held exclusive
// lock, onto a block the map already has.
func (c *Client) writeHit(h msg.Handle, idx uint64, data []byte) bool {
	if !c.admitted() {
		return false
	}
	info, ok := c.handles[h]
	if !ok || !info.write || len(data) > BlockSize || !c.data.caches() {
		return false
	}
	co := c.cache.Object(info.ino)
	if !c.holds(c.objs[info.ino], msg.LockExclusive) || co == nil || !co.HaveMap || idx >= uint64(co.Map.Len()) {
		return false
	}
	c.inflight++
	c.writes.Inc()
	o := c.ioBegin(info.ino)
	ver := c.oracle.NextVer(c.id, info.ino, idx)
	c.cache.Write(info.ino, idx, data, ver)
	c.maybeExtend(info.ino, idx, len(data))
	c.ioEnd(info.ino, o)
	c.finish(msg.OK)
	return true
}

// lookupHit is a Lookup the name cache answers: the object's attributes
// as this client should see them, or ErrNoEnt.
func (c *Client) lookupHit(path string) (msg.Attr, msg.Errno, bool) {
	if !c.admitted() {
		return msg.Attr{}, msg.OK, false
	}
	var buf [walkDepth]walkStep
	steps, attr, errno, hit := c.cachedLookup(path, buf[:0])
	if !hit {
		return msg.Attr{}, msg.OK, false
	}
	c.inflight++
	attr = c.serveLookup(steps, attr, errno)
	c.finish(errno)
	return attr, errno, true
}

// statHit is a Stat the name cache answers.
func (c *Client) statHit(ino msg.ObjectID) (msg.Attr, bool) {
	if !c.admitted() {
		return msg.Attr{}, false
	}
	attr, hit := c.cachedStat(ino)
	if !hit {
		return msg.Attr{}, false
	}
	c.inflight++
	c.names.hits.Inc()
	c.finish(msg.OK)
	return c.seenAttr(attr), true
}

// listHit is a Readdir the name cache answers from a complete listing.
func (c *Client) listHit(ino msg.ObjectID) ([]msg.DirEntry, bool) {
	if !c.admitted() {
		return nil, false
	}
	entries, hit := c.cachedList(ino)
	if !hit {
		return nil, false
	}
	c.inflight++
	c.names.hits.Inc()
	c.finish(msg.OK)
	return entries, true
}
