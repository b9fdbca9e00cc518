package client

import (
	"repro/internal/cache"
	"repro/internal/disk"
	"repro/internal/msg"
)

// BlockSize re-exports the device block size: client reads and writes are
// whole blocks addressed by index within the file.
const BlockSize = disk.BlockSize

// AttrCallback receives metadata results.
type AttrCallback func(attr msg.Attr, errno msg.Errno)

// DataCallback receives read results.
type DataCallback func(data []byte, errno msg.Errno)

// ErrnoCallback receives plain outcomes.
type ErrnoCallback func(errno msg.Errno)

// OpenCallback receives open results.
type OpenCallback func(h msg.Handle, attr msg.Attr, errno msg.Errno)

// DirCallback receives directory listings.
type DirCallback func(entries []msg.DirEntry, errno msg.Errno)

// ReplicaInfoCallback receives a replica role query's result.
type ReplicaInfoCallback func(info msg.ReplicaInfoRes, errno msg.Errno)

// begin gates a new operation and tracks in-flight counts. It returns
// false (after failing the op) when the client must not service requests
// (phase ≥ 3, unregistered, crashed): the paper's contract — a client
// without a valid lease does not operate on data.
func (c *Client) begin(fail func(errno msg.Errno)) bool {
	if !c.admitted() {
		c.staleEps.Inc()
		fail(msg.ErrStale)
		return false
	}
	c.inflight++
	return true
}

// finish completes an operation.
func (c *Client) finish(errno msg.Errno) {
	c.inflight--
	if errno == msg.OK {
		c.opsOK.Inc()
	} else {
		c.opsFailed.Inc()
	}
}

// errnoOf maps a channel outcome to an Errno.
func errnoOf(r *msg.Reply) msg.Errno {
	switch {
	case r == nil:
		return msg.ErrStale // cancelled: lease expired mid-operation
	case r.Status == msg.NACK:
		return msg.ErrStale
	default:
		return r.Err
	}
}

// gather returns a callback to be called n times, once per outcome; the
// n-th call calls done with the first failure among them, or OK. For one
// outcome that callback is done itself.
func gather(n int, done func(msg.Errno)) func(msg.Errno) {
	if n == 1 {
		return done
	}
	// One variable, so that capturing it costs one allocation, not two.
	g := struct {
		left  int
		first msg.Errno
	}{left: n}
	return func(errno msg.Errno) {
		if g.first == msg.OK {
			g.first = errno
		}
		if g.left--; g.left == 0 {
			done(g.first)
		}
	}
}

// ReplicaInfo asks whichever replica the channel currently targets for
// its role, last ballot, and who it believes holds the authority lease —
// the operator query behind tankcli's `role` command and the SIGUSR1
// dump. It bypasses the lease admission gate: servers answer it before
// registration/epoch checks (even a passive replica answers — that is
// the point), and the reply is lease-neutral.
func (c *Client) ReplicaInfo(cb ReplicaInfoCallback) {
	c.chn.Call(&msg.ReplicaInfo{}, func(r *msg.Reply) {
		switch {
		case r == nil:
			cb(msg.ReplicaInfoRes{}, msg.ErrStale)
		case r.Err != msg.OK:
			cb(msg.ReplicaInfoRes{}, r.Err)
		default:
			cb(r.Body.(msg.ReplicaInfoRes), msg.OK)
		}
	})
}

// Lookup resolves a path.
func (c *Client) Lookup(path string, cb AttrCallback) {
	if attr, errno, hit := c.lookupHit(path); hit {
		cb(attr, errno)
		return
	}
	if !c.begin(func(e msg.Errno) { cb(msg.Attr{}, e) }) {
		return
	}
	c.lookup(path, func(attr msg.Attr, errno msg.Errno) {
		c.finish(errno)
		cb(attr, errno)
	})
}

// lookup resolves a path from the name cache, or — at the first directory
// the cache does not cover — by asking the server, whose reply brings the
// locks that let the next one be answered here.
func (c *Client) lookup(path string, cb AttrCallback) {
	var buf [walkDepth]walkStep
	steps, attr, errno, hit := c.cachedLookup(path, buf[:0])
	if !hit {
		c.serveWalk(steps, msg.Attr{}, false)
		c.lookupAsk(path, cb)
		return
	}
	cb(c.serveLookup(steps, attr, errno), errno)
}

// serveLookup serves a lookup the name cache answered along steps — the
// object's attributes attr, or errno ErrNoEnt — and returns the attributes
// as this client should see them.
func (c *Client) serveLookup(steps []walkStep, attr msg.Attr, errno msg.Errno) msg.Attr {
	c.serveWalk(steps, attr, errno == msg.OK)
	if errno != msg.OK {
		c.names.negHits.Inc()
		return msg.Attr{}
	}
	c.names.hits.Inc()
	return c.seenAttr(attr)
}

// lookupAsk is a lookup it cannot.
func (c *Client) lookupAsk(path string, cb AttrCallback) {
	c.names.misses.Inc()
	c.ask(&msg.Lookup{Path: path}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		if errno != msg.OK && errno != msg.ErrNoEnt {
			cb(msg.Attr{}, errno)
			return
		}
		res, _ := r.Body.(msg.LookupRes)
		c.learnLookup(path, res, errno, g)
		if errno != msg.OK {
			cb(msg.Attr{}, errno)
			return
		}
		cb(c.seenAttr(res.Attr), msg.OK)
	})
}

// Create makes a file or directory.
func (c *Client) Create(path string, isDir bool, cb AttrCallback) {
	if !c.begin(func(e msg.Errno) { cb(msg.Attr{}, e) }) {
		return
	}
	c.create(path, isDir, func(attr msg.Attr, errno msg.Errno) {
		c.finish(errno)
		cb(attr, errno)
	})
}

// create sends a Create and takes its reply into the name cache.
func (c *Client) create(path string, isDir bool, cb AttrCallback) {
	c.change(&msg.Create{Path: path, IsDir: isDir}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		if errno != msg.OK {
			cb(msg.Attr{}, errno)
			return
		}
		res := r.Body.(msg.CreateRes)
		c.learnCreate(path, res, g)
		cb(res.Attr, msg.OK)
	})
}

// Unlink removes a path.
func (c *Client) Unlink(path string, cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	c.change(&msg.Unlink{Path: path}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		if errno == msg.OK {
			c.learnUnlink(path, r.Body.(msg.LookupRes), g)
		}
		c.finish(errno)
		cb(errno)
	})
}

// Rename moves an object. The server refuses while data locks are held
// on it (keep the rule uniform with Unlink).
func (c *Client) Rename(oldPath, newPath string, cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	c.change(&msg.Rename{OldPath: oldPath, NewPath: newPath}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		if errno == msg.OK {
			// No body: the rename left this authority (learnRename).
			res, _ := r.Body.(msg.LookupRes)
			c.learnRename(oldPath, newPath, res, g)
		}
		c.finish(errno)
		cb(errno)
	})
}

// Truncate shrinks the file to nBlocks blocks. It requires the exclusive
// lock (acquired here if not cached), drops the truncated tail from the
// cache, and updates the cached block map and size from the server's
// reply.
func (c *Client) Truncate(h msg.Handle, nBlocks uint32, cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	info, ok := c.handles[h]
	if !ok {
		c.finish(msg.ErrBadHandle)
		cb(msg.ErrBadHandle)
		return
	}
	if !info.write {
		c.finish(msg.ErrNotHolder)
		cb(msg.ErrNotHolder)
		return
	}
	c.ensureLock(info.ino, msg.LockExclusive, func(errno msg.Errno) {
		if errno != msg.OK {
			c.finish(errno)
			cb(errno)
			return
		}
		o := c.ioBegin(info.ino)
		done := func(errno msg.Errno) {
			c.ioEnd(info.ino, o)
			c.finish(errno)
			cb(errno)
		}
		// The size must not overtake the truncate: a push acknowledged
		// after it would put the old length back. (One that failed has no
		// say: the truncate sets the size.)
		c.settleSize(info.ino, func(msg.Errno) {
			c.changeBegin()
			c.call(&msg.Truncate{Ino: info.ino, Blocks: nBlocks}, func(r *msg.Reply) {
				errno := errnoOf(r)
				if errno == msg.OK {
					res := r.Body.(msg.AttrRes)
					c.learnAttr(res, false)
					c.truncated(info.ino, int(nBlocks), res.Attr)
				}
				c.changeEnd()
				done(errno)
			})
		})
	})
}

// Readdir lists a directory by inode.
func (c *Client) Readdir(ino msg.ObjectID, cb DirCallback) {
	if entries, hit := c.listHit(ino); hit {
		cb(entries, msg.OK)
		return
	}
	if !c.begin(func(e msg.Errno) { cb(nil, e) }) {
		return
	}
	c.names.misses.Inc()
	c.ask(&msg.Readdir{Ino: ino}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		c.finish(errno)
		if errno != msg.OK {
			cb(nil, errno)
			return
		}
		res := r.Body.(msg.ReaddirRes)
		c.learnList(ino, res, g)
		cb(res.Entries, msg.OK)
	})
}

// Stat fetches attributes by inode.
func (c *Client) Stat(ino msg.ObjectID, cb AttrCallback) {
	if attr, hit := c.statHit(ino); hit {
		cb(attr, msg.OK)
		return
	}
	if !c.begin(func(e msg.Errno) { cb(msg.Attr{}, e) }) {
		return
	}
	c.getAttr(ino, func(attr msg.Attr, errno msg.Errno) {
		c.finish(errno)
		cb(attr, errno)
	})
}

// getAttr asks the server for attributes the name cache does not hold;
// the reply brings the lock that covers them.
func (c *Client) getAttr(ino msg.ObjectID, cb AttrCallback) {
	c.names.misses.Inc()
	c.ask(&msg.GetAttr{Ino: ino}, func(r *msg.Reply, g nameGuard) {
		errno := errnoOf(r)
		if errno != msg.OK {
			cb(msg.Attr{}, errno)
			return
		}
		res := r.Body.(msg.AttrRes)
		if c.mayInstall(g) {
			c.learnAttr(res, true)
		}
		cb(c.seenAttr(res.Attr), msg.OK)
	})
}

// Open resolves a path and opens it, creating the file when create is
// set.
func (c *Client) Open(path string, write, create bool, cb OpenCallback) {
	if !c.begin(func(e msg.Errno) { cb(0, msg.Attr{}, e) }) {
		return
	}
	fail := func(errno msg.Errno) {
		c.finish(errno)
		cb(0, msg.Attr{}, errno)
	}
	c.lookup(path, func(attr msg.Attr, errno msg.Errno) {
		switch {
		case errno == msg.OK:
			c.openIno(attr.Ino, write, cb)
		case errno == msg.ErrNoEnt && create:
			c.create(path, false, func(attr msg.Attr, errno msg.Errno) {
				switch errno {
				case msg.OK:
					c.openIno(attr.Ino, write, cb)
				case msg.ErrExist:
					// Lost a create race; open via lookup again.
					c.lookup(path, func(attr msg.Attr, errno msg.Errno) {
						if errno != msg.OK {
							fail(errno)
							return
						}
						c.openIno(attr.Ino, write, cb)
					})
				default:
					fail(errno)
				}
			})
		default:
			fail(errno)
		}
	})
}

// openIno finishes an Open once the inode is known.
func (c *Client) openIno(ino msg.ObjectID, write bool, cb OpenCallback) {
	c.call(&msg.Open{Ino: ino, Write: write}, func(r *msg.Reply) {
		errno := errnoOf(r)
		c.finish(errno)
		if errno != msg.OK {
			cb(0, msg.Attr{}, errno)
			return
		}
		res := r.Body.(msg.OpenRes)
		// The server's handle under this instance's ID base: a router over
		// several instances finds the opener in the handle itself.
		h := msg.Handle(c.cfg.SANReqBase) | res.Handle
		c.handles[h] = handleInfo{ino: ino, write: write}
		c.names.refreshAttr(res.Attr)
		o := c.cache.Ensure(ino)
		o.Attr = c.seenAttr(res.Attr)
		o.HaveAttr = true
		cb(h, o.Attr, msg.OK)
	})
}

// Close releases an open instance. Cached data and locks are kept — data
// locks outlive opens; that is the point of lock caching — but when the
// object's last write handle goes, so do the blocks granted ahead of it.
func (c *Client) Close(h msg.Handle, cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	info, ok := c.handles[h]
	if !ok {
		c.finish(msg.ErrBadHandle)
		cb(msg.ErrBadHandle)
		return
	}
	delete(c.handles, h)
	closeIt := func() {
		c.call(&msg.Close{Ino: info.ino, Handle: h &^ msg.Handle(c.cfg.SANReqBase)}, func(r *msg.Reply) {
			errno := errnoOf(r)
			c.finish(errno)
			cb(errno)
		})
	}
	lastWriter, last := info.write, true
	for _, other := range c.handles {
		if other == info {
			lastWriter = false
		}
		if other.ino == info.ino {
			last = false
		}
	}
	if last {
		c.forgetReadAhead(info.ino)
	}
	if lastWriter {
		c.trim(info.ino, closeIt)
		return
	}
	closeIt()
}

// Read returns the file block at index idx. A hit — lock cached, map
// cached, page cached — completes synchronously with zero messages.
func (c *Client) Read(h msg.Handle, idx uint64, cb DataCallback) {
	if data, hit := c.readHit(h, idx); hit {
		cb(data, msg.OK)
		return
	}
	if !c.begin(func(e msg.Errno) { cb(nil, e) }) {
		return
	}
	info, ok := c.handles[h]
	if !ok {
		c.finish(msg.ErrBadHandle)
		cb(nil, msg.ErrBadHandle)
		return
	}
	c.reads.Inc()
	c.data.read(c, info.ino, idx, cb)
}

// A dataPath is how file data moves (DESIGN §26): the paper's direct path,
// or a baseline's (baseline.go, dlock.go). read and write finish a begun
// operation; caches says whether data and names are cached under locks.
type dataPath interface {
	read(c *Client, ino msg.ObjectID, idx uint64, cb DataCallback)
	write(c *Client, ino msg.ObjectID, idx uint64, data []byte, cb ErrnoCallback)
	caches() bool
}

// direct is the paper's data path (Fig 1): the SAN, under cached locks.
type direct struct{}

func (direct) caches() bool { return true }

func (direct) read(c *Client, ino msg.ObjectID, idx uint64, cb DataCallback) {
	c.ensureLock(ino, msg.LockShared, func(errno msg.Errno) {
		if errno != msg.OK {
			c.finish(errno)
			cb(nil, errno)
			return
		}
		// Hold the lock pinned (drain-before-downgrade) for the rest of
		// the operation.
		o := c.ioBegin(ino)
		done := func(data []byte, errno msg.Errno) {
			c.ioEnd(ino, o)
			c.finish(errno)
			cb(data, errno)
		}
		c.ensureMap(ino, func(errno msg.Errno) {
			if errno != msg.OK {
				done(nil, errno)
				return
			}
			c.readBlock(ino, o, idx, done)
		})
	})
}

// readBlock is one demand read of block idx of ino, whose record is o.
func (c *Client) readBlock(ino msg.ObjectID, o *object, idx uint64, done DataCallback) {
	// Feed the sequential detector before serving: read-ahead targets
	// blocks AFTER idx, so it never races the block being read here.
	c.notePrefetchRead(ino, o, idx)
	c.serveBlock(ino, idx, done)
}

// serveBlock serves one block from the cache, off a read-ahead batch
// already fetching it, or from the SAN.
func (c *Client) serveBlock(ino msg.ObjectID, idx uint64, done DataCallback) {
	co := c.cache.Object(ino)
	var p *cache.Page
	if behind(c.objs[ino], co) {
		p = c.cache.LookupBehind(ino, idx)
	} else {
		p = c.cache.Lookup(ino, idx)
	}
	if p != nil {
		c.oracle.Read(c.id, ino, idx, p.Ver)
		done(append([]byte(nil), p.Bytes()...), msg.OK)
		return
	}
	if co == nil || idx >= uint64(co.Map.Len()) {
		// Unallocated block: zeros (a hole).
		c.oracle.Read(c.id, ino, idx, 0)
		done(make([]byte, BlockSize), msg.OK)
		return
	}
	ref := co.Map.At(idx)
	if o := c.objs[ino]; o != nil {
		if onWire, ok := o.onWire[idx]; ok && onWire == ref {
			// A read-ahead batch already has this block on the wire: ride
			// it instead of duplicating the SAN round trip.
			if o.parked == nil {
				o.parked = make(map[uint64][]DataCallback)
			}
			o.parked[idx] = append(o.parked[idx], done)
			return
		}
	}
	c.sanCall(ref.Disk, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
		return &msg.DiskRead{Client: c.id, Authority: c.server, Epoch: epoch, Req: req, Block: ref.Num}
	}, nil, func(reply msg.Message, errno msg.Errno) {
		if errno != msg.OK || reply == nil {
			done(nil, errno)
			return
		}
		if !c.stillMapped(ino, idx, ref) {
			// A Truncate freed the block while it was being read: what came
			// back is no longer block idx of this file.
			c.serveBlock(ino, idx, done)
			return
		}
		res := reply.(*msg.DiskReadRes)
		c.cache.Fill(ino, idx, res.Data, res.Ver)
		c.oracle.Read(c.id, ino, idx, res.Ver)
		done(append([]byte(nil), res.Data...), msg.OK)
	})
}

// Write stores a whole block at index idx into the write-back cache. It
// completes as soon as the data is cached under an exclusive lock; the
// data reaches the SAN on demand, periodic flush, or lease phase 4.
func (c *Client) Write(h msg.Handle, idx uint64, data []byte, cb ErrnoCallback) {
	if c.writeHit(h, idx, data) {
		cb(msg.OK)
		return
	}
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	info, ok := c.handles[h]
	if !ok {
		c.finish(msg.ErrBadHandle)
		cb(msg.ErrBadHandle)
		return
	}
	if !info.write {
		c.finish(msg.ErrNotHolder)
		cb(msg.ErrNotHolder)
		return
	}
	if len(data) > BlockSize {
		c.finish(msg.ErrRange)
		cb(msg.ErrRange)
		return
	}
	c.writes.Inc()
	c.data.write(c, info.ino, idx, data, cb)
}

func (direct) write(c *Client, ino msg.ObjectID, idx uint64, data []byte, cb ErrnoCallback) {
	c.ensureLock(ino, msg.LockExclusive, func(errno msg.Errno) {
		if errno != msg.OK {
			c.finish(errno)
			cb(errno)
			return
		}
		o := c.ioBegin(ino)
		done := func(errno msg.Errno) {
			c.ioEnd(ino, o)
			c.finish(errno)
			cb(errno)
		}
		c.ensureMap(ino, func(errno msg.Errno) {
			if errno != msg.OK {
				done(errno)
				return
			}
			c.ensureAlloc(ino, idx, func(errno msg.Errno) {
				if errno != msg.OK {
					done(errno)
					return
				}
				ver := c.oracle.NextVer(c.id, ino, idx)
				c.cache.Write(ino, idx, data, ver)
				c.maybeExtend(ino, idx, len(data))
				done(msg.OK)
			})
		})
	})
}

// Sync flushes all dirty data and completes when everything is on disk
// and the server has the size of every file written — or, when some of
// it could not be settled, with the first failure. A page whose write
// failed stays dirty for the next flush.
func (c *Client) Sync(cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	// The data and the sizes go out side by side.
	done := gather(2, func(errno msg.Errno) {
		c.finish(errno)
		cb(errno)
	})
	c.flushAll(done)
	c.settleSizes(done)
}

// ensureLock acquires (or upgrades to) mode on ino, using the cached lock
// when it covers the request.
func (c *Client) ensureLock(ino msg.ObjectID, mode msg.LockMode, cb ErrnoCallback) {
	// Gate: deferred acquires (below) can fire from teardown paths; an
	// op whose client is quiescing, expired, or mid-recovery must fail
	// rather than emit a lock request the current lease cannot cover.
	if !c.admitted() {
		cb(msg.ErrStale)
		return
	}
	// The cached lock serves when holds says so — the one predicate the
	// hit functions use too. Otherwise every lock use goes behind any
	// in-flight downgrade of this object. This covers two hazards at once:
	// a fresh acquire must not overtake the downgrade on the wire, and a
	// cached lock must not start new work (in particular, dirty new pages)
	// while a revocation is between its flush and its downgrade report.
	o := c.objs[ino]
	switch {
	case c.holds(o, mode):
		cb(msg.OK)
		return
	case o != nil && o.downgrades > 0:
		o.deferred = append(o.deferred, func() { c.ensureLock(ino, mode, cb) })
		return
	case o != nil && o.mode.Covers(mode):
		// Only the V baseline's lease on the object ran out: the lock may
		// have been stolen. Drop it and acquire it again, in the mode held.
		held := o.mode
		o.mode = msg.LockNone
		c.oracle.LockInactive(c.id, ino)
		c.ensureLock(ino, held, cb)
		return
	case o == nil:
		o = c.obj(ino)
	}
	// The acquire holds the record, and with it the stamp of the last
	// demand; a demand that arrives while it is in flight moves the stamp
	// past the count taken here.
	o.acquiring++
	seq := c.demands
	epoch := c.chn.Epoch()
	co := c.cache.Object(ino)
	wantMap := co == nil || !co.HaveMap
	c.call(&msg.LockAcquire{Ino: ino, Mode: mode, WantMap: wantMap}, func(r *msg.Reply) {
		o.acquiring--
		defer c.tidy(ino, o)
		errno := errnoOf(r)
		if errno != msg.OK {
			cb(errno)
			return
		}
		if c.chn.Epoch() != epoch {
			// The grant belongs to a previous registration: the server
			// rebuilt its state (our rejoin stole everything) after
			// executing this request. The lock no longer exists.
			cb(msg.ErrStale)
			return
		}
		if o.demanded > seq {
			// A demand crossed this grant on the wire: the server issued
			// the demand after making the grant, and our compliance reply
			// told it the grant is relinquished. Applying the grant now
			// would fabricate a lock two clients believe they hold; ask
			// again instead.
			c.ensureLock(ino, mode, cb)
			return
		}
		res := r.Body.(msg.LockRes)
		cur := o.mode
		if res.Mode > cur {
			o.mode = res.Mode
			c.cache.Ensure(ino) // the data path finds an entry under any lock
			c.oracle.LockActive(c.id, ino, res.Mode)
		}
		if res.HaveMap && cur == msg.LockNone {
			// The map as it stood when the lock moved, and nothing has been
			// done under the lock since: this is the grant that brought it.
			// (A second grant for the same object — two operations asked at
			// once — is older than what the first has been used for.)
			c.installMap(ino, res.Attr, res.Map)
		}
		c.lease.locked(o)
		cb(msg.OK)
	})
}

// ensureMap fetches the block map if not cached. A lock's grant brings the
// map with it (ensureLock), so this asks only for a map lost while the lock
// was held — an allocation reply that did not splice — and for the
// policies that take no lock.
func (c *Client) ensureMap(ino msg.ObjectID, cb ErrnoCallback) {
	o := c.cache.Ensure(ino)
	if o.HaveMap {
		cb(msg.OK)
		return
	}
	c.call(&msg.GetBlocks{Ino: ino}, func(r *msg.Reply) {
		errno := errnoOf(r)
		if errno != msg.OK {
			cb(errno)
			return
		}
		res := r.Body.(msg.BlocksRes)
		c.installMap(ino, res.Attr, res.Map)
		cb(msg.OK)
	})
}

// installMap caches ino's block map, which becomes the cache's own, and
// the metadata that came with it.
func (c *Client) installMap(ino msg.ObjectID, attr msg.Attr, m msg.Extents) {
	c.names.refreshAttr(attr)
	o := c.cache.Ensure(ino)
	o.Map = m
	o.Fetched = m.Len()
	o.Attr = c.seenAttr(attr)
	o.HaveMap = true
	o.HaveAttr = true
}

// ReleaseLock voluntarily gives a data lock back (used by workloads that
// model cache pressure).
func (c *Client) ReleaseLock(ino msg.ObjectID, cb ErrnoCallback) {
	if !c.begin(func(e msg.Errno) { cb(e) }) {
		return
	}
	c.releaseLock(ino, func(errno msg.Errno) {
		c.finish(errno)
		cb(errno)
	})
}

// releaseLock flushes what the lock on ino covers, gives back the blocks
// granted ahead of its writer, forgets everything cached under it and
// tells the server.
func (c *Client) releaseLock(ino msg.ObjectID, cb ErrnoCallback) {
	c.flushObject(ino, func(msg.Errno) {
		c.trim(ino, func() {
			c.downgradeTo(ino, msg.LockNone)
			o := c.downgradeBegin(ino)
			c.call(&msg.LockRelease{Ino: ino, To: msg.LockNone}, func(r *msg.Reply) {
				c.downgradeEnd(ino, o)
				cb(errnoOf(r))
			})
		})
	})
}

// Shutdown gives back every lock this instance holds — data locks once
// what they cover is on disk, directory locks as they are — and calls
// done when the server has acknowledged the last, so that a client that
// exits cleanly costs nobody the wait for its lease. The caller stops
// issuing operations first; a client the server no longer honours has
// nothing to give back.
func (c *Client) Shutdown(done func()) {
	if !c.admitted() {
		done()
		return
	}
	inos := c.locked()
	step := gather(len(inos)+1, func(msg.Errno) { done() })
	for _, ino := range inos {
		c.releaseLock(ino, step)
	}
	step(msg.OK)
}
