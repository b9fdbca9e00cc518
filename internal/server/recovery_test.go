package server

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/disk"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/sim"
)

// fenceRig is one server, client 10 and two in-memory disks on a SAN
// with a fixed latency. sanSent counts what the server sends on the SAN.
type fenceRig struct {
	sched   *sim.Scheduler
	s       *Server
	disks   map[msg.NodeID]*disk.Disk
	acks    []msg.RejoinRes
	sanSent int
	// answer is what a disk said to the client's last request.
	answer msg.Errno
}

const rigClient = msg.NodeID(10)

func newFenceRig(t *testing.T, store *meta.Store, disks map[msg.NodeID]*disk.Disk) *fenceRig {
	t.Helper()
	r := &fenceRig{sched: sim.NewScheduler(1), disks: disks}
	clock := r.sched.NewClock(1, 0)
	caps := make(map[msg.NodeID]uint64)
	for id := range disks {
		caps[id] = 64
	}
	ctrl := func(to msg.NodeID, m msg.Message) {
		if rep, ok := m.(*msg.Reply); ok && to == rigClient {
			if res, ok := rep.Body.(msg.RejoinRes); ok {
				r.acks = append(r.acks, res)
			}
		}
	}
	san := func(to msg.NodeID, m msg.Message) {
		r.sanSent++
		clock.AfterFunc(50*time.Microsecond, func() {
			r.disks[to].Deliver(msg.Envelope{From: 1, To: to, Payload: m})
		})
	}
	r.s = New(1, Config{Core: core.DefaultConfig(), Disks: caps, Store: store}, clock, ctrl, san, nil, nil)
	return r
}

// newDisks makes two in-memory disks whose replies go to the rig's
// server, or to its client.
func newDisks(r **fenceRig) map[msg.NodeID]*disk.Disk {
	disks := make(map[msg.NodeID]*disk.Disk)
	clock := sim.NewScheduler(1).NewClock(1, 0) // disks answer at once
	for _, id := range []msg.NodeID{1000, 1001} {
		disks[id] = disk.New(id, disk.Config{Blocks: 64}, clock, func(to msg.NodeID, m msg.Message) {
			switch {
			case *r == nil: // set up before the server exists
			case to == rigClient:
				_, (*r).answer, _ = msg.SANReplyReq(m)
			default:
				(*r).s.DeliverSAN(msg.Envelope{From: id, To: to, Payload: m})
			}
		}, nil, disk.Observer{})
	}
	return disks
}

func (r *fenceRig) rejoin(req msg.ReqID) {
	r.s.Deliver(msg.Envelope{From: rigClient, To: 1,
		Payload: &msg.Rejoin{ReqHeader: msg.ReqHeader{Client: rigClient, Req: req}}})
	r.sched.RunFor(time.Millisecond)
}

// write has the client write block 0 of disk 1000, stamped with epoch,
// and returns the disk's answer.
func (r *fenceRig) write(epoch msg.Epoch) msg.Errno {
	r.answer = msg.ErrStale
	r.disks[1000].Deliver(msg.Envelope{From: rigClient, To: 1000, Payload: &msg.DiskWrite{
		Client: rigClient, Authority: 1, Epoch: epoch, Req: 1, Block: 0, Data: []byte("x")}})
	return r.answer
}

// TestRejoinIsAdmittedPastTheOldFence: a Rejoin is answered at once and
// sends nothing to the disks, and the client's first SAN request after
// it is admitted although every disk still holds the fence this server
// raised against the client's previous registration — which still
// refuses that registration's I/O.
func TestRejoinIsAdmittedPastTheOldFence(t *testing.T) {
	var r *fenceRig
	r = newFenceRig(t, meta.NewStore(meta.NewAllocator(nil)), newDisks(&r))
	r.rejoin(1)
	if len(r.acks) != 1 || r.sanSent != 0 {
		t.Fatalf("first registration: %d ACKs and %d SAN messages, want 1 and 0", len(r.acks), r.sanSent)
	}
	old := r.acks[0].Epoch

	r.s.stealAndFence(rigClient, true)
	r.sched.RunFor(time.Millisecond)
	if r.sanSent != 2 {
		t.Fatalf("the steal sent %d SAN messages, want one fence per disk", r.sanSent)
	}
	if errno := r.write(old); errno != msg.ErrFenced {
		t.Fatalf("the fenced registration's write: %v, want ErrFenced", errno)
	}
	r.rejoin(2)
	if len(r.acks) != 2 || r.sanSent != 2 {
		t.Fatalf("rejoin: %d ACKs and %d SAN messages in all, want 2 and 2", len(r.acks), r.sanSent)
	}
	if got, want := r.acks[1].Epoch, r.s.peers[rigClient].epoch; got != want || got <= old {
		t.Fatalf("ACKed epoch %d, want the registration's %d, above %d", got, want, old)
	}
	if errno := r.write(r.acks[1].Epoch); errno != msg.OK {
		t.Fatalf("the new registration's first write: %v", errno)
	}
	if errno := r.write(old); errno != msg.ErrFenced {
		t.Fatalf("the fenced registration's write after the rejoin: %v, want ErrFenced", errno)
	}
}

// TestForgetfulServerMintsAboveItsFences: a server whose epoch counter
// died with its process — no store handed over, no MetaPersist — boots
// over disks that hold its fence. It asks every disk how high its fences
// reach before it answers a Rejoin, and mints above that, so the
// rejoined client's I/O is admitted.
func TestForgetfulServerMintsAboveItsFences(t *testing.T) {
	var r *fenceRig
	disks := newDisks(&r)
	for _, d := range disks {
		d.Deliver(msg.Envelope{From: 1, To: d.ID(), Payload: &msg.FenceSet{
			Admin: 1, Req: 1, Authority: 1, Target: rigClient, Below: 5}})
	}
	r = newFenceRig(t, nil, disks)
	// The Rejoin and its retransmission both wait for the disks' answers;
	// they are one registration, answered once.
	r.s.Deliver(msg.Envelope{From: rigClient, To: 1,
		Payload: &msg.Rejoin{ReqHeader: msg.ReqHeader{Client: rigClient, Req: 1}}})
	r.rejoin(1)
	if r.sanSent != 2 || len(r.acks) != 1 {
		t.Fatalf("%d SAN messages and %d ACKs, want a question to each disk, then one ACK", r.sanSent, len(r.acks))
	}
	if e := r.acks[0].Epoch; e < 5 {
		t.Fatalf("minted epoch %d below the fence at 5", e)
	}
	if errno := r.write(r.acks[0].Epoch); errno != msg.OK {
		t.Fatalf("the rejoined client's write: %v", errno)
	}
}
