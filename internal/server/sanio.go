package server

import (
	"repro/internal/disk"
	"repro/internal/msg"
	"repro/internal/sim"
)

// sanCall is one server-initiated SAN request (fence administration, or
// function-ship disk I/O). The SAN is a datagram fabric too, so these
// retry until answered.
type sanCall struct {
	id    msg.ReqID
	disk  msg.NodeID
	build func(req msg.ReqID) msg.Message
	cb    func(reply msg.Message, errno msg.Errno)
	retry sim.Retry[*sanCall]
}

// sanSend issues a SAN request. cb may be nil (fire-and-forget fences).
func (s *Server) sanSend(d msg.NodeID, build func(req msg.ReqID) msg.Message,
	cb func(reply msg.Message, errno msg.Errno)) {
	s.nextSANReq++
	call := &sanCall{id: s.nextSANReq, disk: d, build: build, cb: cb}
	s.sanPending[call.id] = call
	s.transmitSAN(call)
}

// transmitSAN sends call and queues its retransmission; it is also the
// retransmission, when the interval passes without an answer.
func (s *Server) transmitSAN(call *sanCall) {
	if s.stopped {
		return
	}
	s.san(call.disk, call.build(call.id))
	s.sanRetry.Add(&call.retry, call)
}

// handleSANReply completes a pending SAN call.
func (s *Server) handleSANReply(req msg.ReqID, reply msg.Message, errno msg.Errno) {
	call, ok := s.sanPending[req]
	if !ok {
		return
	}
	delete(s.sanPending, req)
	s.sanRetry.Remove(&call.retry)
	if call.cb != nil {
		call.cb(reply, errno)
	}
}

// funcRead serves file data through the server (function-ship baseline).
// I/O is block-aligned: the experiments issue one-block requests, which
// is all the traditional-architecture comparison needs. An unaligned
// offset is rejected rather than truncated — the old Offset/BlockSize
// arithmetic would silently serve (or overwrite) the wrong bytes.
func (s *Server) funcRead(client msg.NodeID, id msg.ReqID, m *msg.FuncRead) {
	if m.Offset%disk.BlockSize != 0 {
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.ErrRange})
		return
	}
	in, errno := s.store.Get(m.Ino)
	if errno != msg.OK {
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: errno})
		return
	}
	idx := m.Offset / disk.BlockSize
	n := int(m.Length)
	if n > disk.BlockSize {
		n = disk.BlockSize
	}
	if idx >= uint64(len(in.Blocks)) {
		// Hole or beyond allocation: zeros.
		s.dataBytes.Add(uint64(n))
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.OK,
			Body: msg.FuncReadRes{Data: make([]byte, n)}})
		return
	}
	ref := in.Blocks[idx]
	s.sanSend(ref.Disk, func(req msg.ReqID) msg.Message {
		return &msg.DiskRead{Client: s.id, Req: req, Block: ref.Num}
	}, func(reply msg.Message, errno msg.Errno) {
		if errno != msg.OK {
			s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: errno})
			return
		}
		data := reply.(*msg.DiskReadRes).Data
		if len(data) > n {
			data = data[:n]
		}
		// DiskReadRes.Data may alias a pooled receive buffer that is
		// recycled when this handler returns; the reply is sent
		// asynchronously, so it needs its own copy.
		data = append([]byte(nil), data...)
		s.dataBytes.Add(uint64(len(data)))
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.OK,
			Body: msg.FuncReadRes{Data: data}})
	})
}

// funcWrite stores file data through the server, extending the file as
// needed. Unaligned offsets are rejected like funcRead's: block `Offset
// / BlockSize` is the wrong destination for a straddling write, and the
// sub-block remainder would be dropped on the floor.
func (s *Server) funcWrite(client msg.NodeID, id msg.ReqID, m *msg.FuncWrite) {
	if m.Offset%disk.BlockSize != 0 {
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.ErrRange})
		return
	}
	in, errno := s.store.Get(m.Ino)
	if errno != msg.OK {
		s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: errno})
		return
	}
	idx := m.Offset / disk.BlockSize
	data := m.Data
	if len(data) > disk.BlockSize {
		data = data[:disk.BlockSize]
	}
	write := func() {
		ref := in.Blocks[idx]
		s.dataBytes.Add(uint64(len(data)))
		s.sanSend(ref.Disk, func(req msg.ReqID) msg.Message {
			return &msg.DiskWrite{Client: s.id, Req: req, Block: ref.Num, Data: data}
		}, func(reply msg.Message, errno msg.Errno) {
			if errno != msg.OK {
				s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: errno})
				return
			}
			s.mutateAttr(client, m.Ino, attrChange{}, func(bool) {
				if end := m.Offset + uint64(len(data)); end > in.Size {
					s.store.SetSize(m.Ino, end)
				}
				// Every server-mediated write is observable through
				// attribute polling (NFS-style clients rely on this).
				s.store.Touch(m.Ino)
				s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: msg.OK})
			})
		})
	}
	if idx < uint64(len(in.Blocks)) {
		write()
		return
	}
	s.mutateAttr(client, m.Ino, attrChange{}, func(bool) {
		for uint64(len(in.Blocks)) <= idx {
			need := uint32(idx + 1 - uint64(len(in.Blocks)))
			var e msg.Errno
			in, e = s.store.AllocBlocks(m.Ino, need)
			if e != msg.OK {
				s.reply(client, id, &msg.Reply{Status: msg.ACK, Err: e})
				return
			}
		}
		write()
	})
}
