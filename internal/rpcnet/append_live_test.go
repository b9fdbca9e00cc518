package rpcnet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestLiveAppendIsConstantServerWork appends 1 024 blocks over loopback
// TCP, one WriteAt each, through a client whose control traffic the test
// can see: the server must be asked for blocks a couple of dozen times,
// not a thousand, what it answers must not grow with the file, and it
// must not hear the size before the first SyncAll. Then the file wraps
// to empty and is appended to again, 8 blocks and a SyncAll at a time, on
// file-backed disks: each append must reach the SAN as one DiskWriteV of
// one run, and the server as one SetAttr.
func TestLiveAppendIsConstantServerWork(t *testing.T) {
	const blocks = 1024
	mediaReg := stats.NewRegistry()
	lc := bootLive(t, 1, 0, liveCore(), func(i int) blockstore.Media {
		m, err := blockstore.Open(t.TempDir(), blockstore.Options{Blocks: 1 << 12, NoSync: true,
			Registry: mediaReg, StatsPrefix: fmt.Sprintf("media.%d.", i)})
		if err != nil {
			t.Fatal(err)
		}
		return m
	})
	topo := Topology{Server: 1, ServerAddr: lc.srvs[0].Addr.String(), Disks: make(map[msg.NodeID]string)}
	for i, d := range lc.disks {
		topo.Disks[msg.NodeID(1000+i)] = d.Addr.String()
	}

	// StartClientNode, with the two control-network hooks in the middle.
	// Both run on the node's executor, as every client callback does.
	allocReqs := make(map[msg.ReqID]bool) // by request: a retransmission is not a transaction
	sizeReqs := make(map[msg.ReqID]bool)  // SetAttr, the same way
	var allocReplies []int                // frame bytes of each AllocRes reply
	writeVs := 0                          // DiskWriteV requests sent
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
		n.Router.Deliver(env)
	})
	n.SAN = New(10, topo.Disks, func(env msg.Envelope) { n.Router.DeliverSAN(env) })
	n.Ctrl.UseExecutor(n.Exec)
	n.SAN.UseExecutor(n.Exec)
	n.Router = client.NewRouter(10, []client.Authority{{ID: topo.Server}}, client.Config{Core: liveCore()},
		n.Ctrl.Clock(), func(to msg.NodeID, m msg.Message) {
			switch m := m.(type) {
			case *msg.AllocBlocks:
				allocReqs[m.Req] = true
			case *msg.SetAttr:
				sizeReqs[m.Req] = true
			}
			n.Ctrl.Send(to, m)
		}, func(to msg.NodeID, m msg.Message) {
			if _, ok := m.(*msg.DiskWriteV); ok {
				writeVs++
			}
			n.SAN.Send(to, m)
		}, nil, nil, n.Reg, nil)
	n.Client = n.Router.Sub(0)
	go n.Exec.Run()
	lc.clients = append(lc.clients, n) // closed with the installation
	lc.start(t, 0)

	sc := n.Sync(10 * time.Second)
	h, attr, err := sc.Open("/log", true, true)
	if err != nil {
		t.Fatal(err)
	}
	// Read on the executor, behind everything the calls before it ran there.
	onExec := func(read func()) {
		done := make(chan struct{})
		n.Do(func() { read(); close(done) })
		<-done
	}
	buf := make([]byte, client.BlockSize)
	for idx := uint64(0); idx < blocks; idx++ {
		buf[0] = byte(idx)
		if err := sc.WriteAt(h, idx, buf); err != nil {
			t.Fatalf("append of block %d: %v", idx, err)
		}
	}
	var sizes int
	onExec(func() { sizes = len(sizeReqs) })
	if sizes != 0 {
		t.Errorf("%d extending writes and no settle point sent %d SetAttr, want 0", blocks, sizes)
	}
	if err := sc.SyncAll(); err != nil {
		t.Fatal(err)
	}
	if err := sc.Close(h); err != nil { // trims the run granted past block 1 023
		t.Fatal(err)
	}

	var nReqs int
	var replies []int
	onExec(func() { nReqs, replies = len(allocReqs), append([]int(nil), allocReplies...) })
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
	lc.srvs[0].Exec.Submit(func() {
		st := lc.srvs[0].Srv.Store()
		in, _ := st.Get(attr.Ino)
		ch <- state{in.Size, in.Map.Len(), st.Allocator().InUse()}
	})
	if got := <-ch; got != (state{blocks * client.BlockSize, blocks, blocks}) {
		t.Errorf("after Sync and Close the server has %+v, want size %d and %d blocks, all that are in use",
			got, blocks*client.BlockSize, blocks)
	}

	// The wrap, as tankbench's append_sync does it every 1 024 blocks. Each
	// grant is one run on one disk, and the freed blocks come back merged,
	// so an append is one DiskWriteV of one run — from the second on: the
	// first is served by grants of 1, 1, 2 and 4 blocks, which rotate over
	// both disks.
	h, _, err = sc.Open("/log", true, false)
	if err != nil {
		t.Fatal(err)
	}
	if err := sc.Truncate(h, 0); err != nil {
		t.Fatal(err)
	}
	counts := func() (wv, sizes int, runs uint64) {
		onExec(func() { wv, sizes = writeVs, len(sizeReqs) })
		return wv, sizes, mediaReg.CounterValue("media.0.write_runs") + mediaReg.CounterValue("media.1.write_runs")
	}
	wvStart, _, runsStart := counts()
	for op := uint64(0); op < blocks/8; op++ {
		wv0, sizes0, runs0 := counts()
		for idx := op * 8; idx < op*8+8; idx++ {
			buf[0] = byte(idx)
			if err := sc.WriteAt(h, idx, buf); err != nil {
				t.Fatalf("append of block %d after the wrap: %v", idx, err)
			}
		}
		if err := sc.SyncAll(); err != nil {
			t.Fatal(err)
		}
		wv, sizes, runs := counts()
		if op > 0 && (wv-wv0 != 1 || runs-runs0 != 1) {
			t.Fatalf("append %d after the wrap cost %d DiskWriteV and %d media write runs, want 1 and 1",
				op, wv-wv0, runs-runs0)
		}
		if sizes-sizes0 != 1 {
			t.Fatalf("append %d after the wrap and its SyncAll sent %d SetAttr, want 1", op, sizes-sizes0)
		}
	}
	wv, _, runs := counts()
	t.Logf("after the wrap: %d appends, %d DiskWriteV, %d media write runs", blocks/8, wv-wvStart, runs-runsStart)
}
