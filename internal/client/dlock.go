package client

import "repro/internal/msg"

// GFS-baseline data path (§5): locking is physical — an expiring lock on
// a disk-address range, taken from the disk itself — and there is no data
// caching, because nothing revokes a remote cache when the range changes
// hands. Every operation pays the dlock round-trips; that cost, compared
// with Storage Tank's cached logical locks, is experiment T4.
type dlocks struct{}

func (dlocks) caches() bool { return false }

// read performs lock → read → unlock against the owning disk.
func (dlocks) read(c *Client, ino msg.ObjectID, idx uint64, cb DataCallback) {
	done := func(data []byte, errno msg.Errno) {
		c.finish(errno)
		cb(data, errno)
	}
	c.ensureMap(ino, func(errno msg.Errno) {
		if errno != msg.OK {
			done(nil, errno)
			return
		}
		o := c.cache.Object(ino)
		if idx >= uint64(o.Map.Len()) {
			c.oracle.Read(c.id, ino, idx, 0)
			done(make([]byte, BlockSize), msg.OK)
			return
		}
		ref := o.Map.At(idx)
		c.withDlock(ref, func(errno msg.Errno, unlock func(func())) {
			if errno != msg.OK {
				done(nil, errno)
				return
			}
			c.sanCall(ref.Disk, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
				return &msg.DiskRead{Client: c.id, Authority: c.server, Epoch: epoch, Req: req, Block: ref.Num}
			}, nil, func(reply msg.Message, rerrno msg.Errno) {
				unlock(func() {
					if rerrno != msg.OK || reply == nil {
						done(nil, rerrno)
						return
					}
					res := reply.(*msg.DiskReadRes)
					c.oracle.Read(c.id, ino, idx, res.Ver)
					// res.Data may alias a pooled receive buffer; the
					// callback keeps the data past this handler.
					done(append([]byte(nil), res.Data...), msg.OK)
				})
			})
		})
	})
}

// write performs lock → write → unlock (write-through; no cache).
func (dlocks) write(c *Client, ino msg.ObjectID, idx uint64, data []byte, cb ErrnoCallback) {
	done := func(errno msg.Errno) {
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
			ref := c.cache.Object(ino).Map.At(idx)
			c.withDlock(ref, func(errno msg.Errno, unlock func(func())) {
				if errno != msg.OK {
					done(errno)
					return
				}
				ver := c.oracle.NextVer(c.id, ino, idx)
				c.sanCall(ref.Disk, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
					return &msg.DiskWrite{Client: c.id, Authority: c.server, Epoch: epoch,
						Req: req, Block: ref.Num, Data: data, Ver: ver}
				}, nil, func(reply msg.Message, werrno msg.Errno) {
					if werrno == msg.OK {
						c.oracle.Committed(c.id, ino, idx, ver)
					}
					unlock(func() {
						c.maybeExtend(ino, idx, len(data))
						done(werrno)
					})
				})
			})
		})
	})
}

// withDlock acquires the range lock (retrying while another initiator
// holds it), then hands the caller an unlock function that releases and
// runs a continuation.
func (c *Client) withDlock(ref msg.BlockRef, fn func(errno msg.Errno, unlock func(func()))) {
	var attempt func()
	attempt = func() {
		c.sanCall(ref.Disk, func(req msg.ReqID, epoch msg.Epoch) msg.Message {
			return &msg.DLockAcquire{Client: c.id, Authority: c.server, Epoch: epoch,
				Req: req, Start: ref.Num, Count: 1, TTL: c.cfg.Core.Tau}
		}, nil, func(reply msg.Message, errno msg.Errno) {
			switch errno {
			case msg.ErrDLockHeld:
				// Contended: retry after a backoff. GFS clients poll the
				// disk; the disk's TTL eventually frees dead holders.
				c.clock.AfterFunc(c.cfg.Core.RetryInterval, attempt)
				return
			case msg.OK:
				fn(msg.OK, func(cont func()) {
					c.sanCall(ref.Disk, func(req msg.ReqID, _ msg.Epoch) msg.Message {
						return &msg.DLockRelease{Client: c.id, Req: req, Start: ref.Num, Count: 1}
					}, nil, func(msg.Message, msg.Errno) { cont() })
				})
			default:
				fn(errno, nil)
			}
		})
	}
	attempt()
}
