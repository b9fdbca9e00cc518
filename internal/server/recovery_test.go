package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/msg"
	"repro/internal/sim"
)

// TestRejoinAnswersOnceTheFenceIsLifted: a client this server fenced is
// ACKed back in only after every disk has confirmed the unfence. The
// client's first SAN request follows the ACK at once, on its own path to
// the disk, so an ACK sent alongside the unfence lets that request reach
// a disk still fenced against it. A client never fenced is answered at
// once, and a Rejoin retransmitted while the unfence is out sends no
// second one.
func TestRejoinAnswersOnceTheFenceIsLifted(t *testing.T) {
	const client = msg.NodeID(10)
	sched := sim.NewScheduler(1)
	var acks []msg.RejoinRes
	fences := make(map[msg.ReqID]*msg.FenceSet) // by request: a retransmission is no new fence
	ctrl := func(to msg.NodeID, m msg.Message) {
		if r, ok := m.(*msg.Reply); ok && to == client {
			if res, ok := r.Body.(msg.RejoinRes); ok {
				acks = append(acks, res)
			}
		}
	}
	san := func(_ msg.NodeID, m msg.Message) {
		if f, ok := m.(*msg.FenceSet); ok {
			fences[f.Req] = f
		}
	}
	s := New(1, Config{Core: core.DefaultConfig(), Disks: map[msg.NodeID]uint64{1000: 64, 1001: 64}},
		sched.NewClock(1, 0), ctrl, san, nil, nil)
	rejoin := func(req msg.ReqID) {
		s.Deliver(msg.Envelope{From: client, To: 1,
			Payload: &msg.Rejoin{ReqHeader: msg.ReqHeader{Client: client, Req: req}}})
		sched.RunFor(time.Millisecond)
	}
	// unfences answers every unfence not yet answered and reports how many.
	unfences := func(answer bool) int {
		n := 0
		for req, f := range fences {
			if f.On {
				continue
			}
			n++
			if answer {
				delete(fences, req)
				s.DeliverSAN(msg.Envelope{From: 1000, To: 1, Payload: &msg.FenceRes{Req: req}})
			}
		}
		return n
	}

	rejoin(1)
	if len(acks) != 1 {
		t.Fatalf("a client never fenced got %d ACKs, want 1 at once", len(acks))
	}
	unfences(true)

	s.stealAndFence(client, true)
	rejoin(2)
	rejoin(2) // retransmitted while the unfence is out
	if len(acks) != 1 {
		t.Fatalf("a fenced client was ACKed before any disk lifted its fence")
	}
	if n := unfences(false); n != 2 {
		t.Fatalf("%d unfences out, want one per disk", n)
	}
	for req, f := range fences {
		if !f.On {
			delete(fences, req)
			s.DeliverSAN(msg.Envelope{From: 1000, To: 1, Payload: &msg.FenceRes{Req: req}})
			break
		}
	}
	if len(acks) != 1 {
		t.Fatalf("ACKed with one disk still fenced")
	}
	unfences(true)
	if len(acks) != 2 {
		t.Fatalf("%d ACKs after both disks lifted the fence, want 2", len(acks))
	}
	if got, want := acks[1].Epoch, s.peers[client].epoch; got != want {
		t.Fatalf("ACKed epoch %d, want the registration's %d", got, want)
	}

	rejoin(3)
	if len(acks) != 3 {
		t.Fatal("a client whose fence was lifted waits on its next rejoin")
	}
}
