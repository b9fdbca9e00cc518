package rpcnet

import (
	"encoding/binary"
	"testing"
	"time"

	"repro/internal/client"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
)

// TestLiveSequentialScanLeavesTheRoundTripPath scans 256 stamped blocks
// over loopback TCP with the default read-ahead window, through a client
// whose SAN traffic the test can see: the scan must cost well under one
// SAN message per read, both directions counted, and every block must
// carry its stamp — a 16-block reply is a pooled buffer at both ends: the
// disk lends its payload to the transport until the frame is written, and
// the client's copy aliases a pooled frame until the handler returns, so
// under -tags tankdebug a payload returned before it was sent, or a page
// not copied out in time, reads back as poison.
func TestLiveSequentialScanLeavesTheRoundTripPath(t *testing.T) {
	const blocks = 256
	lc := startLive(t, 1)
	lc.start(t, 0)
	w := lc.clients[0].Sync(10 * time.Second)
	hw, _, err := w.Open("/scan", true, true)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, client.BlockSize)
	for idx := uint64(0); idx < blocks; idx++ {
		binary.BigEndian.PutUint64(buf, idx)
		binary.BigEndian.PutUint64(buf[client.BlockSize-8:], ^idx)
		if err := w.WriteAt(hw, idx, buf); err != nil {
			t.Fatalf("write of block %d: %v", idx, err)
		}
	}
	if err := w.SyncAll(); err != nil {
		t.Fatal(err)
	}

	// StartClientNode, with a counter on either side of the SAN transport.
	// Both run on the node's executor, as every client callback does.
	topo := Topology{Server: 1, ServerAddr: lc.srvs[0].Addr.String(), Disks: make(map[msg.NodeID]string)}
	for i, d := range lc.disks {
		topo.Disks[msg.NodeID(1000+i)] = d.Addr.String()
	}
	sanMsgs := 0
	n := &ClientNode{Exec: NewExecutor(), Reg: stats.NewRegistry(), tmo: sim.NewRealClock(nil)}
	n.Ctrl = New(11, map[msg.NodeID]string{topo.Server: topo.ServerAddr},
		func(env msg.Envelope) { n.Router.Deliver(env) })
	n.SAN = New(11, topo.Disks, func(env msg.Envelope) {
		sanMsgs++
		n.Router.DeliverSAN(env)
	})
	n.Ctrl.UseExecutor(n.Exec)
	n.SAN.UseExecutor(n.Exec)
	n.Router = client.NewRouter(11, []client.Authority{{ID: topo.Server}}, client.Config{Core: liveCore()},
		n.Ctrl.Clock(), n.Ctrl.Send, func(to msg.NodeID, m msg.Message) {
			sanMsgs++
			n.SAN.Send(to, m)
		}, nil, nil, n.Reg, nil)
	n.Client = n.Router.Sub(0)
	go n.Exec.Run()
	lc.clients = append(lc.clients, n) // closed with the installation
	lc.start(t, 1)

	r := n.Sync(10 * time.Second)
	hr, _, err := r.Open("/scan", false, false)
	if err != nil {
		t.Fatal(err)
	}
	for idx := uint64(0); idx < blocks; idx++ {
		got, err := r.ReadAt(hr, idx)
		if err != nil {
			t.Fatalf("read of block %d: %v", idx, err)
		}
		if len(got) != client.BlockSize || binary.BigEndian.Uint64(got) != idx ||
			binary.BigEndian.Uint64(got[client.BlockSize-8:]) != ^idx {
			t.Fatalf("block %d: stamp %d/%d", idx, binary.BigEndian.Uint64(got),
				^binary.BigEndian.Uint64(got[client.BlockSize-8:]))
		}
	}

	// Off the executor, behind everything the calls above ran there.
	done := make(chan int)
	n.Do(func() { done <- sanMsgs })
	msgs := <-done
	if perRead := float64(msgs) / blocks; perRead > 0.3 {
		t.Fatalf("%d SAN messages for %d sequential reads (%.2f per read), want ≤ 0.3", msgs, blocks, perRead)
	}
	if hits := n.Reg.CounterValue("client.n11.cache.prefetch_hits"); hits < blocks*9/10 {
		t.Fatalf("prefetch_hits = %d of %d reads", hits, blocks)
	}
}
