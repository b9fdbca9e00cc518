package client

import "repro/internal/msg"

// Await pumps the client's event loop until the operation started by
// start signals completion by invoking done, returning false if the
// operation never completed (drained scheduler, timeout). Each runtime
// supplies its own pump: the simulated cluster advances the scheduler;
// a live node submits to its executor and blocks the calling goroutine.
type Await func(start func(done func())) bool

// Token is a runtime's right to run client code on the calling
// goroutine: Enter takes it when nothing else runs or waits to run, and
// reports whether it did; Leave gives back what a true Enter took.
// rpcnet.Executor is one.
type Token interface {
	Enter() bool
	Leave()
}

// SyncClient adapts the callback-based Client to plain blocking calls
// returning error — the surface examples, tools, and populate-style test
// setup actually want. It adds no protocol behaviour. With a token, a
// Lookup, Stat, Readdir, ReadAt or WriteAt first tries the operation's
// hit function under it, on the caller's stack (DESIGN §20.6); every
// other call, and one the caches cannot answer or that finds the token
// taken, drives exactly the event-driven code path the simulator
// exercises, through the pump.
type SyncClient struct {
	c     *Client
	await Await
	tok   Token
}

// NewSync wraps c with the runtime's pump; every call goes through it.
func NewSync(c *Client, await Await) *SyncClient {
	return &SyncClient{c: c, await: await}
}

// NewSyncInline is NewSync whose hits run under tok, with no pump.
func NewSyncInline(c *Client, await Await, tok Token) *SyncClient {
	return &SyncClient{c: c, await: await, tok: tok}
}

// enter takes the token for a hit function; Leave gives it back.
func (s *SyncClient) enter() bool { return s.tok != nil && s.tok.Enter() }

// Open opens (optionally creating) a path for reading or writing.
func (s *SyncClient) Open(path string, write, create bool) (msg.Handle, msg.Attr, error) {
	var h msg.Handle
	var attr msg.Attr
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Open(path, write, create, func(gh msg.Handle, a msg.Attr, e msg.Errno) {
			h, attr, errno = gh, a, e
			done()
		})
	})
	if !ok {
		return h, attr, msg.ErrStale
	}
	return h, attr, errno.Or()
}

// Create makes a file or directory.
func (s *SyncClient) Create(path string, isDir bool) (msg.Attr, error) {
	var attr msg.Attr
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Create(path, isDir, func(a msg.Attr, e msg.Errno) {
			attr, errno = a, e
			done()
		})
	})
	if !ok {
		return attr, msg.ErrStale
	}
	return attr, errno.Or()
}

// Lookup resolves a path.
func (s *SyncClient) Lookup(path string) (msg.Attr, error) {
	if s.enter() {
		attr, errno, hit := s.c.lookupHit(path)
		s.tok.Leave()
		if hit {
			return attr, errno.Or()
		}
	}
	var attr msg.Attr
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Lookup(path, func(a msg.Attr, e msg.Errno) {
			attr, errno = a, e
			done()
		})
	})
	if !ok {
		return attr, msg.ErrStale
	}
	return attr, errno.Or()
}

// Stat fetches an object's attributes.
func (s *SyncClient) Stat(ino msg.ObjectID) (msg.Attr, error) {
	if s.enter() {
		attr, hit := s.c.statHit(ino)
		s.tok.Leave()
		if hit {
			return attr, nil
		}
	}
	var attr msg.Attr
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Stat(ino, func(a msg.Attr, e msg.Errno) {
			attr, errno = a, e
			done()
		})
	})
	if !ok {
		return attr, msg.ErrStale
	}
	return attr, errno.Or()
}

// Readdir lists a directory.
func (s *SyncClient) Readdir(ino msg.ObjectID) ([]msg.DirEntry, error) {
	if s.enter() {
		entries, hit := s.c.listHit(ino)
		s.tok.Leave()
		if hit {
			return entries, nil
		}
	}
	var entries []msg.DirEntry
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Readdir(ino, func(es []msg.DirEntry, e msg.Errno) {
			entries, errno = es, e
			done()
		})
	})
	if !ok {
		return nil, msg.ErrStale
	}
	return entries, errno.Or()
}

// errnoOp drives one ErrnoCallback-shaped operation.
func (s *SyncClient) errnoOp(start func(cb ErrnoCallback)) error {
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		start(func(e msg.Errno) {
			errno = e
			done()
		})
	})
	if !ok {
		return msg.ErrStale
	}
	return errno.Or()
}

// ReadAt reads block idx of an open handle.
func (s *SyncClient) ReadAt(h msg.Handle, idx uint64) ([]byte, error) {
	if s.enter() {
		data, hit := s.c.readHit(h, idx)
		s.tok.Leave()
		if hit {
			return data, nil
		}
	}
	var data []byte
	errno := msg.ErrStale
	ok := s.await(func(done func()) {
		s.c.Read(h, idx, func(d []byte, e msg.Errno) {
			data, errno = d, e
			done()
		})
	})
	if !ok {
		return nil, msg.ErrStale
	}
	return data, errno.Or()
}

// WriteAt writes block idx of an open handle (into the write-back cache;
// SyncAll makes it durable).
func (s *SyncClient) WriteAt(h msg.Handle, idx uint64, data []byte) error {
	if s.enter() {
		hit := s.c.writeHit(h, idx, data)
		s.tok.Leave()
		if hit {
			return nil
		}
	}
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Write(h, idx, data, cb) })
}

// SyncAll flushes every dirty page to the SAN and returns once the last
// write is acknowledged — with vectored write-back, typically a handful
// of batched messages rather than one per page — and the server has the
// size of every file the writes extended.
func (s *SyncClient) SyncAll() error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Sync(cb) })
}

// Close closes an open handle.
func (s *SyncClient) Close(h msg.Handle) error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Close(h, cb) })
}

// Unlink removes a path.
func (s *SyncClient) Unlink(path string) error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Unlink(path, cb) })
}

// Rename moves an object.
func (s *SyncClient) Rename(oldPath, newPath string) error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Rename(oldPath, newPath, cb) })
}

// Truncate resizes an open file to nBlocks blocks.
func (s *SyncClient) Truncate(h msg.Handle, nBlocks uint32) error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.Truncate(h, nBlocks, cb) })
}

// ReleaseLock gives up the client's data lock on ino.
func (s *SyncClient) ReleaseLock(ino msg.ObjectID) error {
	return s.errnoOp(func(cb ErrnoCallback) { s.c.ReleaseLock(ino, cb) })
}
