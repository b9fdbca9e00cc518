package server

// Directory locks (DESIGN.md §18). A shared lock on a directory — an
// ordinary lock-table entry on its inode — covers the directory's own
// attributes, its entries (that a name is there, and that a name is not),
// the completeness of a listing, and the attributes of its non-directory
// children; a subdirectory's attributes are covered by its own lock.
// Clients that hold one answer lookups, stats and listings from their
// cache, so two rules keep the cache equal to the store:
//
//   - Grants ride on replies and never wait (tryDir): a request that reads
//     the namespace gets, with its answer, the locks that cover it — unless
//     somebody would have to be asked, and then the answer is simply not
//     cacheable.
//   - Revoke before mutate (mutate): whatever changes something a directory
//     lock covers first takes that lock from every other holder, through a
//     queued exclusive acquire — the lock table's own demand, FIFO and
//     anti-starvation — and only then touches the store and answers. A
//     holder that does not give it back is an undelivered demand: suspect,
//     τ(1+ε), steal, exactly as for data.
//
// Every metadata mutator in this package is called from a change's apply,
// which only mutate runs (TestMutatorsRunUnderRevoke enumerates them).

import (
	"slices"

	"repro/internal/meta"
	"repro/internal/msg"
)

// tryDir tries to leave client holding a shared lock on directory ino and
// reports whether it does.
func (s *Server) tryDir(client msg.NodeID, ino msg.ObjectID) bool {
	if ino == 0 || !s.grantsDirs {
		return false
	}
	held := s.locks.HeldCount()
	if !s.locks.TryAcquire(client, ino, msg.LockShared) {
		return false
	}
	if s.locks.HeldCount() > held {
		s.dirGrants.Inc()
	}
	s.rec.granted(client, ino)
	return true
}

// grantChain tries every directory of a walked chain, in place: an entry
// the client does not end up holding becomes 0.
func (s *Server) grantChain(client msg.NodeID, dirs []msg.ObjectID) []msg.ObjectID {
	for i, d := range dirs {
		if !s.tryDir(client, d) {
			dirs[i] = 0
		}
	}
	return dirs
}

// coveringDir is the directory whose lock covers in's attributes.
func coveringDir(in *meta.Inode) msg.ObjectID {
	if in.IsDir {
		return in.Ino
	}
	return in.Parent()
}

// change is what a mutation does, as the request that makes it defines it.
type change interface {
	// plan names the directories whose locks cover what apply is about to
	// change, as the store stands when it is called; none when the request
	// will fail without changing anything.
	plan() []msg.ObjectID
	// apply runs the store's mutators and answers. It runs in the turn in
	// which plan last ran, with every planned lock held exclusively.
	apply()
}

// mutation is one change to something directory locks cover: the part of
// it that is the same for every request. Each request's own type (createOp
// and the rest) embeds it and is what it does. A handler builds its op on
// its stack and tries direct; only a mutation that has to ask somebody, or
// wait, is copied to the heap and handed to mutate.
type mutation struct {
	// by is the client the change is made for: the one left holding the
	// locks, and excused by the oracle. The server's own ID stands for
	// changes no client is waiting on (a handoff installed or completed).
	by msg.NodeID
	// keep leaves by holding the directories at Shared whatever it held
	// before (Create, Unlink, Rename: it will be told so); otherwise it
	// ends as it began, so that a writer settling sizes in a directory it
	// never looked at does not collect its lock.
	keep bool
	// do is the op this mutation is embedded in, once it is on the heap.
	do change

	// taken[:n] are the planned directories apply may rely on — held
	// exclusively for it, or free of any other holder — each with what the
	// requester held before: never more than two (a rename's parents, an
	// unlinked directory and its parent).
	taken [2]takenLock
	n     int
}

// take notes that apply may rely on dir, which the requester held at prior.
func (m *mutation) take(dir msg.ObjectID, prior msg.LockMode) {
	m.taken[m.n] = takenLock{dir, prior}
	m.n++
}

// takenLock is a directory lock a mutation holds exclusively, and what its
// requester held before.
type takenLock struct {
	ino   msg.ObjectID
	prior msg.LockMode
}

// holds reports whether the requester will hold dir, one of the planned
// directories, when the mutation is over — what apply tells the client.
func (m *mutation) holds(dir msg.ObjectID) bool {
	if m.keep {
		return true
	}
	for _, t := range m.taken[:m.n] {
		if t.ino == dir {
			return t.prior >= msg.LockShared
		}
	}
	return false
}

// contended reports whether taking any of dirs for by would mean asking
// somebody.
func (s *Server) contended(by msg.NodeID, dirs []msg.ObjectID) bool {
	for _, d := range dirs {
		if s.locks.Contended(by, d) {
			return true
		}
	}
	return false
}

// direct reports whether m, whose plan names dirs, can be applied in this
// turn, as it stands: nobody else holds any of the directories — nor may,
// which after a restart nobody knows until the grace window has closed —
// so there is nobody to take a lock from, nothing can change that before
// apply returns, and the requester keeps what it has (a mutation that
// leaves it the directories grants them with the chain it reports). It
// notes what the requester holds, for apply to say. This is all a
// mutation costs on a private tree: a few map lookups, and no allocation.
func (s *Server) direct(m *mutation, dirs []msg.ObjectID) bool {
	if len(dirs) > 0 && s.InGrace() || s.contended(m.by, dirs) {
		return false
	}
	m.n = 0
	for _, d := range dirs {
		m.take(d, s.locks.Held(m.by, d))
	}
	return true
}

// mutate runs a mutation that direct turned down: plan, take every planned
// lock, apply, give them back. A lock that is not free queues behind its
// holders, and since the wait invalidates the plan — the path may lead
// elsewhere by then, or a lock taken earlier may have been demanded away
// by another mutation — mutate starts over when it arrives.
func (s *Server) mutate(m *mutation) {
	if s.stopped || !s.authorityHeld() {
		return
	}
	dirs := m.do.plan()
	if len(dirs) > 0 && s.InGrace() {
		// An unreasserted but still-leased client may hold any of these
		// locks, and nobody knows to ask it: wait until every pre-restart
		// lease has been reasserted or has provably lapsed, as a new lock
		// acquire does.
		s.clock.AfterFunc(s.graceUntil.Sub(s.clock.Now()), func() { s.mutate(m) })
		return
	}
	if len(dirs) > 1 {
		// In one order everywhere: two mutations that want the same two
		// directories must not each hold one and wait for the other.
		slices.Sort(dirs)
	}
	// Locks taken under an earlier plan that this one does not name.
	held := m.taken[:m.n]
	m.n = 0
	for _, t := range held {
		if slices.Contains(dirs, t.ino) {
			m.take(t.ino, t.prior)
		} else {
			s.locks.Release(m.by, t.ino, s.endMode(m, t))
		}
	}
	for i, d := range dirs {
		if i > 0 && d == dirs[i-1] {
			continue
		}
		prior := s.locks.Held(m.by, d)
		if prior == msg.LockExclusive {
			if !m.has(d) {
				// Another mutation by the same requester holds it across a
				// wait; sharing it is safe, and whoever finishes first
				// downgrades it under the other, which then starts over.
				m.take(d, msg.LockShared)
			}
			continue
		}
		if !m.has(d) {
			m.take(d, prior)
		}
		if s.locks.TryAcquire(m.by, d, msg.LockExclusive) {
			continue // nobody else holds it: the common case
		}
		// The table keeps one queued acquire per client and object, so
		// mutations of one requester waiting on one directory wait
		// together, behind the first one's acquire.
		p := s.peerOf(m.by)
		if p.parked[d] = append(p.parked[d], m); len(p.parked[d]) > 1 {
			return
		}
		s.locks.Acquire(m.by, d, msg.LockExclusive, func(msg.LockMode) {
			waiting := p.parked[d]
			delete(p.parked, d)
			switch {
			case m.by == s.id:
			case !s.auth.Allow(m.by):
				// The requester became suspect while it waited. Never
				// answer a suspect; the hold stays in the table until the
				// steal clears it, as a granted acquire's does.
				return
			case p.mustRejoin:
				s.locks.Release(m.by, d, msg.LockNone)
				return
			}
			for _, w := range waiting {
				s.mutate(w)
			}
			s.syncLocksHeld()
		})
		return
	}
	m.do.apply()
	for _, t := range m.taken[:m.n] {
		s.locks.Release(m.by, t.ino, s.endMode(m, t))
	}
	m.n = 0
}

func (m *mutation) has(dir msg.ObjectID) bool {
	for _, t := range m.taken[:m.n] {
		if t.ino == dir {
			return true
		}
	}
	return false
}

// endMode is what the requester holds on a taken directory afterwards:
// nothing on one that is gone or was the server's own, Shared where the
// mutation keeps it, what it held before otherwise.
func (s *Server) endMode(m *mutation, t takenLock) msg.LockMode {
	if _, errno := s.store.Get(t.ino); errno != msg.OK || m.by == s.id {
		return msg.LockNone
	}
	if m.keep {
		return msg.LockShared
	}
	return min(t.prior, msg.LockShared)
}

// noteName tells the oracle, when one listens, that the last name of path,
// in dir, now leads to ino (0: nowhere), by by's doing.
func (s *Server) noteName(by msg.NodeID, dir msg.ObjectID, path string, ino msg.ObjectID) {
	if s.cfg.Oracle != nil {
		s.cfg.Oracle.NameChanged(by, dir, lastName(path), ino)
	}
}

// noteAttrs tells it the attributes of inos as they now stand.
func (s *Server) noteAttrs(by msg.NodeID, inos ...msg.ObjectID) {
	if s.cfg.Oracle == nil {
		return
	}
	for _, ino := range inos {
		if in, errno := s.store.Get(ino); errno == msg.OK {
			s.cfg.Oracle.AttrChanged(by, in.Attr())
		}
	}
}

// lastName returns the final component of a path that has one.
func lastName(path string) (last string) {
	it, _ := meta.IterPath(path)
	for name := it.Next(); name != ""; name = it.Next() {
		last = name
	}
	return last
}

// --- the mutating requests ---------------------------------------------------

// asked is the request a mutation answers, possibly turns later.
type asked struct {
	s      *Server
	client msg.NodeID
	id     msg.ReqID
}

func (a asked) ack(errno msg.Errno, body msg.Result) {
	a.s.reply(a.client, a.id, &msg.Reply{Status: msg.ACK, Err: errno, Body: body})
}

// createOp is a Create. The directory whose lock covers it is the parent —
// or, where missing ancestors are about to be materialized, the deepest
// one that exists.
type createOp struct {
	mutation
	asked
	m *msg.Create
	w meta.Walk
}

func (s *Server) create(client msg.NodeID, id msg.ReqID, m *msg.Create) {
	op := createOp{asked: asked{s, client, id}, m: m}
	op.by, op.keep = client, true
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

func (o *createOp) plan() []msg.ObjectID {
	s := o.s
	o.w = s.store.Walk(o.m.Path)
	if w := &o.w; w.Errno != msg.ErrNoEnt || len(w.Dirs) == 0 || w.Rest > 0 && !s.store.AutoParents() {
		return nil // Create will say why
	}
	return o.w.Dirs[len(o.w.Dirs)-1:]
}

func (o *createOp) apply() {
	s, m := o.s, o.m
	in, errno := s.store.Create(m.Path, m.IsDir)
	if errno != msg.OK {
		o.ack(errno, nil)
		return
	}
	if o.w.Rest > 0 {
		o.w = s.store.Walk(m.Path) // through the ancestors just made
	}
	dirs := o.w.Dirs
	s.noteName(o.client, dirs[len(dirs)-1], m.Path, in.Ino)
	s.noteAttrs(o.client, in.Ino)
	s.noteAttrs(o.client, dirs...)
	o.ack(msg.OK, msg.CreateRes{Attr: in.Attr(), Dirs: s.grantChain(o.client, dirs)})
}

// unlinkOp is an Unlink: the parent's lock, and the victim's own when it
// is a directory. A file somebody holds a data lock on is refused.
type unlinkOp struct {
	mutation
	asked
	m      *msg.Unlink
	w      meta.Walk
	refuse msg.Errno
	both   [2]msg.ObjectID // the plan for a directory: its parent, and itself
}

func (s *Server) unlink(client msg.NodeID, id msg.ReqID, m *msg.Unlink) {
	op := unlinkOp{asked: asked{s, client, id}, m: m}
	op.by, op.keep = client, true
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

func (o *unlinkOp) plan() []msg.ObjectID {
	s := o.s
	o.w, o.refuse = s.store.Walk(o.m.Path), msg.OK
	w := &o.w
	switch {
	case w.Errno != msg.OK || len(w.Dirs) == 0:
		return nil // Unlink will say why
	case s.store.Migrating(w.Node.Ino), !w.Node.IsDir && s.locks.HoldersOf(w.Node.Ino) > 0:
		o.refuse = msg.ErrConflict
		return nil
	case w.Node.IsDir:
		if !w.Node.Empty() {
			return nil
		}
		o.both = [2]msg.ObjectID{w.Dirs[len(w.Dirs)-1], w.Node.Ino}
		return o.both[:]
	}
	return w.Dirs[len(w.Dirs)-1:]
}

func (o *unlinkOp) apply() {
	s, w := o.s, &o.w
	if o.refuse != msg.OK {
		o.ack(o.refuse, nil)
		return
	}
	var gone msg.Attr
	if w.Node != nil {
		gone = w.Node.Attr()
	}
	if errno := s.store.Unlink(o.m.Path); errno != msg.OK {
		o.ack(errno, nil)
		return
	}
	parent := w.Dirs[len(w.Dirs)-1]
	s.noteName(o.client, parent, o.m.Path, 0)
	s.noteAttrs(o.client, parent)
	o.ack(msg.OK, msg.LookupRes{Attr: gone, Dirs: s.grantChain(o.client, w.Dirs)})
}

// renameOp is a Rename within this authority: both parents' locks. A moved
// directory's own lock is untouched — its entries did not change.
type renameOp struct {
	mutation
	asked
	m        *msg.Rename
	from, to meta.Walk
	refuse   msg.Errno
	cross    bool
	parents  [2]msg.ObjectID // the plan
}

func (s *Server) rename(client msg.NodeID, id msg.ReqID, m *msg.Rename) {
	op := renameOp{asked: asked{s, client, id}, m: m}
	op.by, op.keep = client, true
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

func (o *renameOp) plan() []msg.ObjectID {
	s, m := o.s, o.m
	o.from, o.refuse, o.cross = s.store.Walk(m.OldPath), msg.OK, false
	from := &o.from
	if from.Errno != msg.OK || len(from.Dirs) == 0 {
		return nil
	}
	if !from.Node.IsDir && s.locks.HoldersOf(from.Node.Ino) > 0 {
		// Like Unlink: a file's name does not change under a holder of
		// its data lock.
		o.refuse = msg.ErrConflict
		return nil
	}
	if s.cfg.PlaceOwner != nil &&
		(s.store.Migrating(from.Node.Ino) || s.cfg.PlaceOwner(m.NewPath) != s.id) {
		// The destination name belongs to another authority, or a
		// handoff is already pending: the handoff protocol, not a move.
		o.cross = true
		return nil
	}
	o.to = s.store.Walk(m.NewPath)
	if o.to.Errno != msg.ErrNoEnt || o.to.Rest > 0 {
		return nil
	}
	o.parents = [2]msg.ObjectID{from.Dirs[len(from.Dirs)-1], o.to.Dirs[len(o.to.Dirs)-1]}
	return o.parents[:]
}

func (o *renameOp) apply() {
	s, m, from, to := o.s, o.m, &o.from, &o.to
	switch {
	case o.refuse != msg.OK:
		o.ack(o.refuse, nil)
		return
	case o.cross:
		s.crossShardRename(o.client, o.id, from.Node, m)
		return
	}
	if errno := s.store.Rename(m.OldPath, m.NewPath); errno != msg.OK {
		o.ack(errno, nil)
		return
	}
	oldParent, newParent := from.Dirs[len(from.Dirs)-1], to.Dirs[len(to.Dirs)-1]
	s.noteName(o.client, oldParent, m.OldPath, 0)
	s.noteName(o.client, newParent, m.NewPath, from.Node.Ino)
	s.noteAttrs(o.client, oldParent, newParent)
	o.ack(msg.OK, msg.LookupRes{Attr: from.Node.Attr(),
		Dirs: s.grantChain(o.client, append(from.Dirs, to.Dirs...))})
}

// attrChange says what a request is about to do to a file's attributes,
// so that whether they will move can be asked again after a wait.
type attrChange struct {
	// size, when sized, is the size the file is being set to; blocks, when
	// cut, the length it is being truncated to. With neither the
	// attributes always move (an allocation bumps the version).
	size   uint64
	blocks int
	sized  bool
	cut    bool
}

func (a attrChange) moves(in *meta.Inode) bool {
	switch {
	case in.IsDir:
		return false
	case a.sized:
		return in.Size != a.size
	case a.cut:
		return a.blocks < in.Map.Len()
	}
	return true
}

// attrOp is a change to a file's attributes: its parent's lock covers
// them. The requester ends as it began.
type attrOp struct {
	mutation
	s      *Server
	ino    msg.ObjectID
	what   attrChange
	change func(covered bool)
	parent [1]msg.ObjectID // the plan; 0 when the attributes will not move
}

// mutateAttr runs change — store mutators on file ino, and the answer —
// under the lock that covers ino's attributes when they are about to move.
// change is told whether the requester holds that lock.
func (s *Server) mutateAttr(by msg.NodeID, ino msg.ObjectID, what attrChange, change func(covered bool)) {
	op := attrOp{s: s, ino: ino, what: what, change: change}
	op.by = by
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

func (o *attrOp) plan() []msg.ObjectID {
	o.parent[0] = 0
	if in, errno := o.s.store.Get(o.ino); errno == msg.OK && o.what.moves(in) {
		o.parent[0] = in.Parent()
		return o.parent[:]
	}
	return nil
}

func (o *attrOp) apply() {
	moved := o.parent[0] != 0
	o.change(moved && o.holds(o.parent[0]))
	if moved {
		o.s.noteAttrs(o.by, o.ino)
	}
}

// setAttr handles SetAttr: a size that is already there changes nothing.
func (s *Server) setAttr(client msg.NodeID, id msg.ReqID, m *msg.SetAttr) {
	a := asked{s, client, id}
	if s.store.Migrating(m.Ino) {
		a.ack(msg.ErrConflict, nil)
		return
	}
	s.mutateAttr(client, m.Ino, attrChange{sized: true, size: m.NewSize}, func(covered bool) {
		in, errno := s.store.SetSize(m.Ino, m.NewSize)
		if errno != msg.OK {
			a.ack(errno, nil)
			return
		}
		a.ack(msg.OK, attrRes(in, covered))
	})
}

// truncate handles Truncate. Truncation invalidates other holders' cached
// pages; they are demanded the object exclusively first, via the normal
// lock path — here the server only checks that the requester is the sole
// holder.
func (s *Server) truncate(client msg.NodeID, id msg.ReqID, m *msg.Truncate) {
	a := asked{s, client, id}
	if s.locks.HoldersOf(m.Ino) > 1 ||
		(s.locks.HoldersOf(m.Ino) == 1 && s.locks.Held(client, m.Ino) == msg.LockNone) ||
		s.store.Migrating(m.Ino) {
		a.ack(msg.ErrConflict, nil)
		return
	}
	s.mutateAttr(client, m.Ino, attrChange{cut: true, blocks: int(m.Blocks)}, func(covered bool) {
		in, errno := s.store.Truncate(m.Ino, int(m.Blocks))
		if errno != msg.OK {
			a.ack(errno, nil)
			return
		}
		a.ack(msg.OK, attrRes(in, covered))
	})
}

// allocBlocks handles AllocBlocks: an allocation moves the file's version.
func (s *Server) allocBlocks(client msg.NodeID, id msg.ReqID, m *msg.AllocBlocks) {
	a := asked{s, client, id}
	if s.store.Migrating(m.Ino) {
		a.ack(msg.ErrConflict, nil)
		return
	}
	s.mutateAttr(client, m.Ino, attrChange{}, func(bool) {
		in, first, errno := s.store.GrantBlocks(m.Ino, m.Count)
		if errno != msg.OK {
			a.ack(errno, nil)
			return
		}
		a.ack(msg.OK, msg.AllocRes{Attr: in.Attr(), First: uint32(first), Map: in.Map.Tail(first)})
	})
}

// attrRes is the answer to a request about in's attributes from a client
// known to hold (covered) or not to hold the lock that covers them.
func attrRes(in *meta.Inode, covered bool) msg.AttrRes {
	res := msg.AttrRes{Attr: in.Attr()}
	if covered {
		res.Dir = coveringDir(in)
	}
	return res
}
