package client

import (
	"sync/atomic"

	"repro/internal/msg"
)

// Await pumps the client's event loop until the operation started by
// start signals completion by invoking done, returning false if the
// operation never completed (drained scheduler, timeout). Each runtime
// supplies its own pump: the simulated cluster advances the scheduler;
// a live node submits to its executor and blocks the calling goroutine.
type Await func(start func(done func())) bool

// Pump is an Await that is also handed the call's completion record, c.
// The record belongs to the SyncClient's reply record and is reused with
// it, so a pump that keeps its per-call state there (Call.Arm, Call.Wait)
// allocates nothing for it.
type Pump func(c *Call, start func(done func())) bool

// Token is a runtime's right to run client code on the calling
// goroutine: Enter takes it when nothing else runs or waits to run, and
// reports whether it did; Leave gives back what a true Enter took.
// rpcnet.Executor is one.
type Token interface {
	Enter() bool
	Leave()
}

// SyncClient adapts a client node — its Router — to plain blocking calls
// returning error: the surface examples, tools, and populate-style test
// setup actually want. It adds no protocol behaviour and routes exactly
// as the Router does (DESIGN §14.2): a path-keyed call goes to the
// instance that talks to the path's owner, a handle-keyed call to the
// instance that issued the handle, SyncAll to every instance, and an
// inode-keyed call (Stat, Readdir, ReleaseLock, ReplicaInfo) — inode
// numbers are per authority — to the first instance, or to the path's
// owner on the SyncClient that Owner(path) returns.
//
// With a token, a Lookup, Stat, Readdir, ReadAt or WriteAt first tries
// the operation's hit function under it, on the caller's stack (DESIGN
// §20.6); every other call, and one the caches cannot answer or that
// finds the token taken, drives exactly the event-driven code path the
// simulator exercises, through the pump.
type SyncClient struct {
	r *Router
	// sub serves the inode-keyed calls.
	sub  *Client
	pump Pump
	tok  Token
	// spare is the reply record of the last call that completed, kept for
	// the next; see reply.
	spare *atomic.Pointer[reply]
}

// NewSync wraps c, as a node with one protocol instance, with the
// runtime's pump; every call goes through it.
func NewSync(c *Client, await Await) *SyncClient {
	pump := func(_ *Call, start func(done func())) bool { return await(start) }
	return NewSyncInline(&Router{subs: []*Client{c}}, pump, nil)
}

// NewSyncInline wraps the node r with the runtime's pump; with a token,
// its hits run under tok, with no pump.
func NewSyncInline(r *Router, pump Pump, tok Token) *SyncClient {
	return &SyncClient{r: r, sub: r.subs[0], pump: pump, tok: tok, spare: new(atomic.Pointer[reply])}
}

// Owner returns a SyncClient over the same node whose inode-keyed calls go
// to the instance that talks to path's owner, or nil when the placement
// routes path nowhere.
func (s *SyncClient) Owner(path string) *SyncClient {
	sub := s.r.Owner(path)
	if sub == nil {
		return nil
	}
	o := *s
	o.sub = sub
	return &o
}

// enter takes the token for a hit function; Leave gives it back.
func (s *SyncClient) enter() bool { return s.tok != nil && s.tok.Enter() }

// reply is one pumped call's record: its completion, which the pump
// uses, and its results. The operation's callback is one of reply's
// methods, which fills the results the operation has and calls done, the
// pump's completion.
//
// A SyncClient hands the record of a call that completed to the next
// call: its callback has run, and nothing holds the record any more. The
// record of a call the pump gave up on is left behind, since its callback
// may still run. So a pumped call allocates its pump closure and its
// callback here, and nothing for its results or its completion: no more
// than the simulator's hand-pumped calls this replaced
// (TestDataPathAllocations' handoff cycle).
type reply struct {
	result
	call Call
}

// result is what one pumped operation reports.
type result struct {
	h       msg.Handle
	attr    msg.Attr
	data    []byte
	entries []msg.DirEntry
	info    msg.ReplicaInfoRes
	errno   msg.Errno
	done    func()
}

func (r *reply) opened(h msg.Handle, a msg.Attr, e msg.Errno) { r.h = h; r.attrs(a, e) }
func (r *reply) attrs(a msg.Attr, e msg.Errno)                { r.attr = a; r.status(e) }
func (r *reply) read(d []byte, e msg.Errno)                   { r.data = d; r.status(e) }
func (r *reply) listed(es []msg.DirEntry, e msg.Errno)        { r.entries = es; r.status(e) }
func (r *reply) replica(i msg.ReplicaInfoRes, e msg.Errno)    { r.info = i; r.status(e) }
func (r *reply) status(e msg.Errno)                           { r.errno = e; r.done() }

// reply returns a record for one pumped call.
func (s *SyncClient) reply() *reply {
	if r := s.spare.Swap(nil); r != nil {
		return r
	}
	return new(reply)
}

// await runs the call start begins through the pump, with r's completion.
func (s *SyncClient) await(r *reply, start func(done func())) (result, error) {
	if !s.pump(&r.call, start) {
		return result{}, msg.ErrStale
	}
	out := r.result
	r.result = result{}
	s.spare.Store(r)
	return out, out.errno.Or()
}

// Open opens (optionally creating) a path for reading or writing.
func (s *SyncClient) Open(path string, write, create bool) (msg.Handle, msg.Attr, error) {
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; s.r.Open(path, write, create, r.opened) })
	return out.h, out.attr, err
}

// Create makes a file or directory.
func (s *SyncClient) Create(path string, isDir bool) (msg.Attr, error) {
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; s.r.Create(path, isDir, r.attrs) })
	return out.attr, err
}

// Lookup resolves a path.
func (s *SyncClient) Lookup(path string) (msg.Attr, error) {
	sub := s.r.Owner(path)
	if sub == nil {
		return msg.Attr{}, msg.ErrNoEnt
	}
	if s.enter() {
		attr, errno, hit := sub.lookupHit(path)
		s.tok.Leave()
		if hit {
			return attr, errno.Or()
		}
	}
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; sub.Lookup(path, r.attrs) })
	return out.attr, err
}

// Stat fetches an object's attributes.
func (s *SyncClient) Stat(ino msg.ObjectID) (msg.Attr, error) {
	if s.enter() {
		attr, hit := s.sub.statHit(ino)
		s.tok.Leave()
		if hit {
			return attr, nil
		}
	}
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; s.sub.Stat(ino, r.attrs) })
	return out.attr, err
}

// Readdir lists a directory.
func (s *SyncClient) Readdir(ino msg.ObjectID) ([]msg.DirEntry, error) {
	if s.enter() {
		entries, hit := s.sub.listHit(ino)
		s.tok.Leave()
		if hit {
			return entries, nil
		}
	}
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; s.sub.Readdir(ino, r.listed) })
	return out.entries, err
}

// ReadAt reads block idx of an open handle.
func (s *SyncClient) ReadAt(h msg.Handle, idx uint64) ([]byte, error) {
	sub := s.r.issuer(uint64(h))
	if s.enter() {
		data, hit := sub.readHit(h, idx)
		s.tok.Leave()
		if hit {
			return data, nil
		}
	}
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; sub.Read(h, idx, r.read) })
	return out.data, err
}

// WriteAt writes block idx of an open handle (into the write-back cache;
// SyncAll makes it durable).
func (s *SyncClient) WriteAt(h msg.Handle, idx uint64, data []byte) error {
	sub := s.r.issuer(uint64(h))
	if s.enter() {
		hit := sub.writeHit(h, idx, data)
		s.tok.Leave()
		if hit {
			return nil
		}
	}
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; sub.Write(h, idx, data, r.status) })
	return err
}

// SyncAll flushes every dirty page, on every authority, to the SAN and
// returns once the last write is acknowledged — with vectored write-back,
// typically a handful of batched messages rather than one per page — and
// the servers have the size of every file the writes extended.
func (s *SyncClient) SyncAll() error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.r.Sync(r.status) })
	return err
}

// Close closes an open handle.
func (s *SyncClient) Close(h msg.Handle) error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.r.Close(h, r.status) })
	return err
}

// Unlink removes a path.
func (s *SyncClient) Unlink(path string) error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.r.Unlink(path, r.status) })
	return err
}

// Rename moves an object; across authorities, the call returns once the
// object lives at its new home (Router.Rename).
func (s *SyncClient) Rename(oldPath, newPath string) error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.r.Rename(oldPath, newPath, r.status) })
	return err
}

// Truncate resizes an open file to nBlocks blocks.
func (s *SyncClient) Truncate(h msg.Handle, nBlocks uint32) error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.r.Truncate(h, nBlocks, r.status) })
	return err
}

// ReleaseLock gives up the client's data lock on ino.
func (s *SyncClient) ReleaseLock(ino msg.ObjectID) error {
	r := s.reply()
	_, err := s.await(r, func(done func()) { r.done = done; s.sub.ReleaseLock(ino, r.status) })
	return err
}

// ReplicaInfo asks the authority member the instance's channel targets
// now for its negotiation state (Client.ReplicaInfo).
func (s *SyncClient) ReplicaInfo() (msg.ReplicaInfoRes, error) {
	r := s.reply()
	out, err := s.await(r, func(done func()) { r.done = done; s.sub.ReplicaInfo(r.replica) })
	return out.info, err
}
