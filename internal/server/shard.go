package server

// The cross-shard handoff protocol (DESIGN.md §14). A Rename whose
// destination path is owned by another lease authority migrates the
// file's metadata there in a two-shard ordered handshake:
//
//  1. The source refuses the rename outright if any client holds a lock
//     on the object (the same rule as a local rename), then writes a
//     durable Export record and marks the inode migrating — from this
//     instant every operation on it is refused with ErrConflict, so no
//     new lock or block can be granted against state that is leaving.
//  2. The source transmits ShardMigrate{Src, HID, Path, Attr, Map}
//     and retries on a timer until answered — like sanSend, delivery
//     errors are invisible; only an answer settles the handoff.
//  3. The destination installs the object under a fresh local inode,
//     records the (Src, HID) outcome in its durable import ledger, and
//     replies. Duplicate ShardMigrates — retransmissions, or replays
//     after the destination restarts — are answered from the ledger,
//     never installed twice.
//  4. On an OK answer the source unlinks its copy (blocks stay at their
//     original disk addresses, permanently retired from the source's
//     allocator) and ACKs the waiting client. On an error answer the
//     source aborts the export and the object stays put.
//
// Either shard may crash at any point. The source's Export records and
// the destination's import ledger live in the durable metadata store, so
// a restarted source re-drives its pending handoffs (server.New) and a
// restarted destination answers retransmissions idempotently. Exactly
// one shard owns the file at every instant: until CompleteExport runs at
// the source the object is owned (but frozen) there, and CompleteExport
// runs only after the destination durably owns it — so the overlap is
// dual-frozen, never dual-served, and a lost answer leaves the source
// owner, never nobody.

import (
	"slices"
	"strconv"

	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/trace"
)

// pendingHandoff is one outbound handoff awaiting the destination's
// answer. client/req name the requester to ACK on settlement; they are
// zero for a handoff re-driven after a restart (the original reply died
// with the crash — the client's retried Rename re-attaches).
type pendingHandoff struct {
	e      *meta.Export
	retry  sim.Retry[*pendingHandoff]
	client msg.NodeID
	req    msg.ReqID
	// settling: the destination has answered and the old name is waiting
	// for its directory's lock. A retried Rename can still attach.
	settling bool
}

// crossShardRename begins (or re-attaches to) the handoff migrating the
// object at m.OldPath to the authority owning m.NewPath.
func (s *Server) crossShardRename(client msg.NodeID, id msg.ReqID, in *meta.Inode, m *msg.Rename) {
	if in.IsDir {
		// Single-inode migration only: a directory's subtree may span
		// authorities, and migrating it atomically is a different
		// protocol. Callers place directories by subtree instead.
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.ErrIsDir})
		return
	}
	if e := s.store.ExportFor(in.Ino); e != nil {
		// A handoff for this object is already pending. The identical
		// rename (a client retry whose reply-cache entry died with a
		// crash) re-attaches as the requester to answer; any other
		// operation conflicts with the migration.
		if e.OldPath == m.OldPath && e.NewPath == m.NewPath {
			if ph := s.handoffs[e.HID]; ph != nil {
				ph.client, ph.req = client, id
				return
			}
		}
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.ErrConflict})
		return
	}
	dest := s.cfg.PlaceOwner(m.NewPath)
	if dest == msg.None {
		// The placement map routes no authority for the destination name
		// (a subtree placement miss): nothing could ever serve it.
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.ErrNoEnt})
		return
	}
	e := s.store.BeginExport(in.Ino, dest, m.OldPath, m.NewPath)
	s.emit(trace.Event{Type: trace.EvShardHandoff, Peer: dest, Ino: in.Ino,
		Note: "hid=" + strconv.FormatUint(e.HID, 10)})
	ph := &pendingHandoff{e: e, client: client, req: id}
	s.handoffs[e.HID] = ph
	s.transmitHandoff(ph)
}

// resumeHandoff re-drives a durable export found at restart.
func (s *Server) resumeHandoff(e *meta.Export) {
	ph := &pendingHandoff{e: e}
	s.handoffs[e.HID] = ph
	s.transmitHandoff(ph)
}

// transmitHandoff sends the migrate message and queues its
// retransmission; it is also the retransmission, when the interval
// passes without an answer. Like sanSend it retries until answered: the
// export is durable and the destination's ledger makes duplicates
// harmless, so persistence — not a retry budget — is the correct policy.
func (s *Server) transmitHandoff(ph *pendingHandoff) {
	if s.stopped {
		return
	}
	e := ph.e
	in, errno := s.store.Get(e.Ino)
	if errno != msg.OK {
		// Unreachable while the export pins the inode; settle
		// defensively as an abort rather than retrying forever.
		s.settleHandoff(ph, &msg.ShardMigrateRes{HID: e.HID, Err: errno})
		return
	}
	s.send(e.Dest, &msg.ShardMigrate{Src: s.id, HID: e.HID, Path: e.NewPath,
		Attr: in.Attr(), Map: slices.Clone(in.Map)})
	s.handoffRetry.Add(&ph.retry, ph)
}

// handleShardMigrate is the destination half: install once, answer from
// the durable ledger ever after.
func (s *Server) handleShardMigrate(m *msg.ShardMigrate) {
	if errno, done := s.store.ImportResult(m.Src, m.HID); done {
		s.send(m.Src, &msg.ShardMigrateRes{HID: m.HID, Err: errno})
		return
	}
	op := importOp{s: s, m: m}
	op.by = s.id
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

// importOp installs a handed-off object. The name appears in a directory
// clients of this authority may have cached — the deepest ancestor that
// exists, under which the rest are materialized — on nobody's behalf here:
// the server takes the lock itself and keeps none of it.
type importOp struct {
	mutation
	s *Server
	m *msg.ShardMigrate
}

func (o *importOp) plan() []msg.ObjectID {
	if w := o.s.store.Walk(o.m.Path); w.Errno == msg.ErrNoEnt && len(w.Dirs) > 0 {
		return w.Dirs[len(w.Dirs)-1:]
	}
	return nil
}

func (o *importOp) apply() {
	s, m := o.s, o.m
	if errno, done := s.store.ImportResult(m.Src, m.HID); done {
		// A retransmission caught up with this one while it waited.
		s.send(m.Src, &msg.ShardMigrateRes{HID: m.HID, Err: errno})
		return
	}
	in, errno := s.store.Install(m.Path, m.Attr, m.Map)
	s.store.RecordImport(m.Src, m.HID, errno)
	if errno == msg.OK {
		s.emit(trace.Event{Type: trace.EvShardInstall, Peer: m.Src, Ino: in.Ino,
			Note: "hid=" + strconv.FormatUint(m.HID, 10)})
		w := s.store.Walk(m.Path)
		s.noteName(s.id, w.Dirs[len(w.Dirs)-1], m.Path, in.Ino)
		s.noteAttrs(s.id, in.Ino)
		s.noteAttrs(s.id, w.Dirs...)
	}
	s.send(m.Src, &msg.ShardMigrateRes{HID: m.HID, Err: errno})
}

// handleShardMigrateRes settles an outbound handoff.
func (s *Server) handleShardMigrateRes(m *msg.ShardMigrateRes) {
	if ph, ok := s.handoffs[m.HID]; ok {
		s.settleHandoff(ph, m)
	}
}

func (s *Server) settleHandoff(ph *pendingHandoff, m *msg.ShardMigrateRes) {
	if ph.settling {
		return // an answer to a retransmission
	}
	s.handoffRetry.Remove(&ph.retry)
	e := s.store.Export(ph.e.HID)
	if e == nil {
		delete(s.handoffs, ph.e.HID)
		return
	}
	note := "hid=" + strconv.FormatUint(ph.e.HID, 10)
	if m.Err != msg.OK {
		delete(s.handoffs, ph.e.HID)
		s.emit(trace.Event{Type: trace.EvShardAbort, Peer: ph.e.Dest, Ino: e.Ino,
			Note: note + " " + m.Err.String()})
		s.store.AbortExport(ph.e.HID)
		if ph.client != 0 {
			s.reply(ph.client, ph.req, &msg.Reply{Status: msg.ACK, Err: m.Err})
		}
		return
	}
	ph.settling = true
	op := exportDoneOp{s: s, ph: ph, e: e}
	op.by = s.id
	if s.direct(&op.mutation, op.plan()) {
		op.apply()
		return
	}
	queued := op
	queued.do = &queued
	s.mutate(&queued.mutation)
}

// exportDoneOp completes an outbound handoff the destination has
// installed. The old name goes, so its directory's lock comes back first —
// from everybody, the requester included: the handoff must complete
// whatever has become of its requester, so the server makes the change as
// its own. The directory is the one the file is in now, by its parent
// link: a directory above it may have been renamed since the handoff
// began, and the file itself cannot have been.
type exportDoneOp struct {
	mutation
	s      *Server
	ph     *pendingHandoff
	e      *meta.Export
	parent [1]msg.ObjectID // 0 when the object is gone
}

func (o *exportDoneOp) plan() []msg.ObjectID {
	o.parent[0] = 0
	in, errno := o.s.store.Get(o.e.Ino)
	if errno != msg.OK {
		return nil
	}
	o.parent[0] = in.Parent()
	return o.parent[:]
}

func (o *exportDoneOp) apply() {
	s, ph, e := o.s, o.ph, o.e
	delete(s.handoffs, ph.e.HID)
	if s.store.Export(ph.e.HID) == nil {
		return
	}
	s.emit(trace.Event{Type: trace.EvShardDone, Peer: ph.e.Dest, Ino: e.Ino,
		Note: "hid=" + strconv.FormatUint(ph.e.HID, 10)})
	s.store.CompleteExport(ph.e.HID)
	if parent := o.parent[0]; parent != 0 {
		s.noteName(s.id, parent, e.OldPath, 0)
		s.noteAttrs(s.id, parent)
	}
	if ph.client != 0 {
		s.reply(ph.client, ph.req, &msg.Reply{Status: msg.ACK, Err: msg.OK})
	}
}
