package server

import (
	"slices"
	"strconv"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/trace"
)

// handleRequest is the control-network request path. Ordering matters:
//
//  1. Lease admission (Allow / mustRejoin / epoch) — a refused request is
//     NACKed without execution and without touching the reply cache.
//  2. At-most-once admission — duplicates are answered from cache or
//     absorbed.
//  3. Execution.
func (s *Server) handleRequest(req msg.Request) {
	h := req.Hdr()
	client, id := h.Client, h.Req

	// The operator role query is answered by every replica, active or
	// not, before any registration or epoch checks (like Rejoin).
	if _, isInfo := req.(*msg.ReplicaInfo); isInfo {
		s.handleReplicaInfo(client, id)
		return
	}
	// A passive replica serves nobody: redirect the client to the
	// authority (replica.go).
	if !s.authorityHeld() {
		s.redirect(client, id)
		return
	}

	if _, isRejoin := req.(*msg.Rejoin); isRejoin {
		s.handleRejoin(client, id)
		return
	}
	if m, isReassert := req.(*msg.Reassert); isReassert {
		s.handleReassert(client, id, m)
		return
	}

	// Lease admission. For the paper's policy this is Authority.Allow —
	// a lookup in an empty map during normal operation. For baseline
	// policies, mustRejoin covers stolen clients.
	p := s.peers[client]
	if !s.auth.Allow(client) || p != nil && p.mustRejoin {
		if !s.cfg.NoNACK {
			s.nack(client, id)
		}
		return
	}
	// Stale or missing registration: the client must (re)join first.
	if p == nil || p.epoch == 0 || p.epoch != h.Epoch {
		s.nack(client, id)
		return
	}

	// A baseline's lease bookkeeping on the receive path.
	s.rec.message(p, req)

	disp, cached := s.rcache.Admit(client, id)
	switch disp {
	case core.Resend:
		s.send(client, cached)
		return
	case core.Absorb:
		return
	}

	s.transactions.Inc()
	s.execute(client, id, req)
}

// execute runs an admitted request and replies (possibly later, for lock
// acquires that must wait on demands).
func (s *Server) execute(client msg.NodeID, id msg.ReqID, req msg.Request) {
	ack := func(errno msg.Errno, body msg.Result) {
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: errno, Body: body})
	}
	switch m := req.(type) {
	case *msg.KeepAlive, *msg.Close, *msg.Heartbeat, *msg.RenewObjects:
		// The ACK is the entire function: a KeepAlive is the NULL message
		// (§3.1), the server keeps no table of open handles, and the
		// baselines' lease bookkeeping was done on admission.
		ack(msg.OK, nil)

	case *msg.Lookup:
		w := s.store.Walk(m.Path)
		switch w.Errno {
		case msg.OK:
			if w.Node.IsDir {
				w.Dirs = append(w.Dirs, w.Node.Ino)
			}
			ack(msg.OK, msg.LookupRes{Attr: w.Node.Attr(), Dirs: s.grantChain(client, w.Dirs)})
		case msg.ErrNoEnt:
			// The chain ends at the directory the name is missing from:
			// under its lock the client may remember that, too.
			ack(msg.ErrNoEnt, msg.LookupRes{Dirs: s.grantChain(client, w.Dirs)})
		default:
			ack(w.Errno, nil)
		}

	case *msg.Create:
		s.create(client, id, m)

	case *msg.Unlink:
		s.unlink(client, id, m)

	case *msg.Open:
		in, errno := s.store.Get(m.Ino)
		if errno != msg.OK {
			ack(errno, nil)
			return
		}
		if s.store.Migrating(m.Ino) {
			ack(msg.ErrConflict, nil)
			return
		}
		s.nextHandle++
		ack(msg.OK, msg.OpenRes{Handle: s.nextHandle, Attr: in.Attr()})

	case *msg.GetAttr:
		in, errno := s.store.Get(m.Ino)
		if errno != msg.OK {
			ack(errno, nil)
			return
		}
		ack(msg.OK, attrRes(in, s.tryDir(client, coveringDir(in))))

	case *msg.SetAttr:
		s.setAttr(client, id, m)

	case *msg.Rename:
		s.rename(client, id, m)

	case *msg.Truncate:
		s.truncate(client, id, m)

	case *msg.Readdir:
		entries, errno := s.store.Readdir(m.Ino)
		if errno != msg.OK {
			ack(errno, nil)
			return
		}
		ack(msg.OK, msg.ReaddirRes{Entries: entries, Granted: s.tryDir(client, m.Ino)})

	case *msg.GetBlocks:
		in, errno := s.store.Get(m.Ino)
		if errno != msg.OK {
			ack(errno, nil)
			return
		}
		ack(msg.OK, msg.BlocksRes{Attr: in.Attr(), Map: slices.Clone(in.Map)})

	case *msg.AllocBlocks:
		s.allocBlocks(client, id, m)

	case *msg.LockAcquire:
		if s.store.Migrating(m.Ino) {
			ack(msg.ErrConflict, nil)
			return
		}
		if in, errno := s.store.Get(m.Ino); errno == msg.OK && in.IsDir {
			// A directory's lock is never asked for: it arrives on the
			// replies that it covers, shared, and a client holding one any
			// other way would be demanded by its own mutations.
			ack(msg.ErrIsDir, nil)
			return
		}
		if s.InGrace() {
			// A fresh grant during recovery could conflict with a lock an
			// unreasserted (but still-leased) client holds. Defer until
			// the grace window closes and every pre-restart lease has
			// provably lapsed or been reasserted.
			remaining := s.graceUntil.Sub(s.clock.Now())
			s.clock.AfterFunc(remaining, func() {
				if s.stopped {
					return
				}
				s.execute(client, id, req)
			})
			return
		}
		s.rec.granted(client, m.Ino)
		s.locks.Acquire(client, m.Ino, m.Mode, func(mode msg.LockMode) {
			// The grant may fire much later; by then the client may have
			// become suspect. Never ACK a suspect (§3): stay silent. The
			// hold stays in the table — the suspect's previous lease may
			// still cover the object, so nothing may be handed onward
			// until the authority's τ(1+ε) steal clears everything the
			// suspect holds. (Releasing here would promote waiters
			// immediately, inside the suspect's lease window.)
			if !s.auth.Allow(client) {
				return
			}
			if p := s.peers[client]; p != nil && p.mustRejoin {
				// Leaseless policies steal synchronously when they mark
				// mustRejoin, which also drops the client's waiters, so
				// this grant cannot race a pending steal: give it back.
				s.locks.Release(client, m.Ino, msg.LockNone)
				return
			}
			res := msg.LockRes{Mode: mode}
			if m.WantMap {
				// What the client would ask for next (GetBlocks) is in hand,
				// and final: the lock moves only after the previous holder's
				// flush, trim and size push were acknowledged.
				if in, errno := s.store.Get(m.Ino); errno == msg.OK {
					res.HaveMap = true
					res.Attr = in.Attr()
					res.Map = slices.Clone(in.Map)
				}
			}
			s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.OK, Body: res})
		})

	case *msg.LockRelease:
		errno := s.locks.Release(client, m.Ino, m.To)
		if m.To == msg.LockNone {
			s.rec.released(client, m.Ino)
		}
		ack(errno, msg.LockRes{Mode: m.To})

	case *msg.LockDowngraded:
		// The report is its own delivery proof: a holder that could comply
		// in the turn the demand arrived sends no DemandAck beside it.
		s.retireDemand(m.Demand, client)
		errno := s.locks.Downgraded(client, m.Ino, m.To, m.Demand)
		if m.To == msg.LockNone {
			s.rec.released(client, m.Ino)
		}
		ack(errno, msg.LockRes{Mode: m.To})

	case *msg.FuncRead:
		s.funcRead(client, id, m)

	case *msg.FuncWrite:
		s.funcWrite(client, id, m)

	default:
		ack(msg.ErrBadHandle, nil)
	}
}

// handleRejoin (re)registers a client: fresh epoch — above every fence
// this authority has raised, so nothing goes to the disks — no locks,
// empty reply-cache history.
func (s *Server) handleRejoin(client msg.NodeID, id msg.ReqID) {
	if r := s.learning; r != nil {
		// The counter has yet to rise above the disks' fences.
		if r.parked == nil {
			r.parked = make(map[msg.NodeID]msg.ReqID)
			s.learnFloor(r)
		}
		r.parked[client] = id // a retransmission takes its original's place
		return
	}
	s.transactions.Inc()
	s.emit(trace.Event{Type: trace.EvRejoin, Peer: client})
	// A steal the rejoin itself makes safe raises no fence: the client has
	// just said it holds nothing.
	s.rejoining = client
	s.auth.OnRejoin(client)
	s.rejoining = msg.None
	p := s.peerOf(client)
	p.mustRejoin = false
	// Any residue (locks, waiters, demands) from the previous incarnation
	// goes away; under lease recovery the authority already stole them.
	s.stealAndFence(client, false)
	p.epoch = s.store.NextEpoch()
	s.rec.contact(p)
	// Reply directly: Rejoin is idempotent by construction (each attempt
	// may mint a new epoch; only the one the client adopts matters).
	s.send(client, &msg.Reply{Client: client, Req: id, Status: msg.ACK, Err: msg.OK,
		Body: msg.RejoinRes{Epoch: p.epoch}})
}

// handleReassert rebuilds a client's registration and lock state after a
// server restart (§6). Accepted only during the grace window, and only
// if every claimed lock is compatible with other reasserted claims; a
// refused reassertion NACKs the client into ordinary lease recovery.
func (s *Server) handleReassert(client msg.NodeID, id msg.ReqID, m *msg.Reassert) {
	if !s.InGrace() || s.auth.Suspect(client) {
		s.nack(client, id)
		return
	}
	s.transactions.Inc()
	s.emit(trace.Event{Type: trace.EvReassert, Peer: client,
		Note: "claims=" + strconv.Itoa(len(m.Locks))})
	// All-or-nothing: install claims, rolling back on conflict.
	for i, claim := range m.Locks {
		if !s.locks.Install(client, claim.Ino, claim.Mode) {
			for _, done := range m.Locks[:i] {
				s.locks.Release(client, done.Ino, msg.LockNone)
			}
			s.nack(client, id)
			return
		}
	}
	p := s.peerOf(client)
	s.endSession(p)
	for _, claim := range m.Locks {
		s.rec.granted(client, claim.Ino)
	}
	p.epoch = s.store.NextEpoch()
	s.rec.contact(p)
	s.send(client, &msg.Reply{Client: client, Req: id, Status: msg.ACK, Err: msg.OK,
		Body: msg.ReassertRes{Epoch: p.epoch}})
}
