package rpcnet

import (
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestLiveAppendIsConstantServerWork appends 1 024 blocks over loopback
// TCP, one WriteAt each, through a client whose control traffic the test
// can see: the server must be asked for blocks a couple of dozen times,
// not a thousand, and what it answers must not grow with the file.
func TestLiveAppendIsConstantServerWork(t *testing.T) {
	const blocks = 1024
	lc := startLive(t, 0)
	topo := Topology{Server: 1, ServerAddr: lc.srv.Addr.String(), Disks: make(map[msg.NodeID]string)}
	for i, d := range lc.disks {
		topo.Disks[msg.NodeID(1000+i)] = d.Addr.String()
	}

	// StartClientNode, with the two control-network hooks in the middle.
	// Both run on the node's executor, as every client callback does.
	allocReqs := make(map[msg.ReqID]bool) // by request: a retransmission is not a transaction
	var allocReplies []int                // frame bytes of each AllocRes reply
	n := &ClientNode{Exec: NewExecutor(), Reg: stats.NewRegistry(), tmo: sim.NewRealClock(nil)}
	n.Ctrl = New(10, map[msg.NodeID]string{topo.Server: topo.ServerAddr}, func(env msg.Envelope) {
		if r, ok := env.Payload.(*msg.Reply); ok {
			if _, ok := r.Body.(msg.AllocRes); ok {
				meta, tail, err := msg.BinarySize(&env)
				if err != nil {
					t.Errorf("sizing an AllocRes reply: %v", err)
				}
				allocReplies = append(allocReplies, meta+len(tail))
			}
		}
		n.Client.Deliver(env)
	})
	n.SAN = New(10, topo.Disks, func(env msg.Envelope) { n.Client.DeliverSAN(env) })
	n.Ctrl.UseExecutor(n.Exec)
	n.SAN.UseExecutor(n.Exec)
	n.Client = client.New(10, topo.Server, client.Config{Core: liveCore()}, n.Ctrl.Clock(),
		func(to msg.NodeID, m msg.Message) {
			if a, ok := m.(*msg.AllocBlocks); ok {
				allocReqs[a.Req] = true
			}
			n.Ctrl.Send(to, m)
		}, n.SAN.Send, nil, n.Reg, nil)
	go n.Exec.Run()
	lc.clients = append(lc.clients, n) // closed with the installation
	lc.start(t, 0)

	sc := n.Sync(10 * time.Second)
	h, attr, err := sc.Open("/log", true, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, client.BlockSize)
	for idx := uint64(0); idx < blocks; idx++ {
		buf[0] = byte(idx)
		if err := sc.WriteAt(h, idx, buf); err != nil {
			t.Fatalf("append of block %d: %v", idx, err)
		}
	}
	if err := sc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(h); err != nil { // trims the run granted past block 1 023
		t.Fatal(err)
	}

	// Off the executor, behind everything the calls above ran there.
	done := make(chan struct{})
	var nReqs int
	var replies []int
	n.Do(func() {
		nReqs, replies = len(allocReqs), append([]int(nil), allocReplies...)
		close(done)
	})
	<-done
	t.Logf("%d AllocBlocks transactions, reply frames of %v bytes", nReqs, replies)
	if nReqs > 24 {
		t.Errorf("%d blocks appended one at a time cost %d AllocBlocks transactions, want at most 24", blocks, nReqs)
	}
	if len(replies) != nReqs {
		t.Errorf("%d AllocBlocks requests, %d replies", nReqs, len(replies))
	}
	// 1, 1, 2, ... 64 blocks, then 64 each time: from the eighth reply on
	// the size is the same, whether the file has 128 blocks or 1 024.
	for i := 8; i < len(replies); i++ {
		if replies[i] != replies[7] {
			t.Errorf("AllocRes reply %d is %d bytes, reply 7 was %d: the reply grows with the file (%v)",
				i, replies[i], replies[7], replies)
			break
		}
	}

	type state struct {
		size          uint64
		blocks, inUse int
	}
	ch := make(chan state, 1)
	lc.srv.Exec.Submit(func() {
		st := lc.srv.Srv.Store()
		in, _ := st.Get(attr.Ino)
		ch <- state{in.Size, len(in.Blocks), st.Allocator().InUse()}
	})
	if got := <-ch; got != (state{blocks * client.BlockSize, blocks, blocks}) {
		t.Errorf("after Sync and Close the server has %+v, want size %d and %d blocks, all that are in use",
			got, blocks*client.BlockSize, blocks)
	}
}
