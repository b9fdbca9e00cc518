package rpcnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/bufpool"
	"repro/internal/disk"
	"repro/internal/faultnet"
	"repro/internal/msg"
)

// TestDroppedReplyKeepsItsLoan: a reply the fault plan drops is judged on
// the caller's goroutine and never reaches a codec, so nothing ends its
// loan — the payload is left whole for the garbage collector rather than
// returned by a path that cannot know who else returns it. Ending the loan
// afterwards is then the first Put, which under -tags tankdebug is what
// distinguishes it from a second. Both lending replies, vectored and
// scalar.
func TestDroppedReplyKeepsItsLoan(t *testing.T) {
	const self, peer = msg.NodeID(1000), msg.NodeID(10)
	tr := New(self, nil, func(msg.Envelope) {})
	go tr.Run()
	defer tr.Close()
	faults := faultnet.New(1)
	faults.BlockDir(self, peer)
	tr.SetFaults(faults)

	want := bytes.Repeat([]byte{0x5A}, 2*disk.BlockSize)
	payload := bufpool.Get(len(want))
	copy(payload, want)
	res := &msg.DiskReadVRes{Req: 7, Errs: make([]msg.Errno, 2), Vers: make([]uint64, 2)}
	res.Lend(payload)
	tr.Send(peer, res)
	if !bytes.Equal(res.Data, want) {
		t.Fatalf("a dropped reply's payload was returned to the pool (first byte %#x)", res.Data[0])
	}
	msg.EndLoan(res)
	if res.Data != nil {
		t.Fatal("EndLoan left the payload on the reply")
	}
	msg.EndLoan(res) // over: a no-op, not a second Put

	block := bufpool.Get(disk.BlockSize)
	copy(block, want)
	scalar := &msg.DiskReadRes{Req: 8}
	scalar.Lend(block)
	tr.Send(peer, scalar)
	if !bytes.Equal(scalar.Data, want[:disk.BlockSize]) {
		t.Fatalf("a dropped scalar reply's payload was returned to the pool (first byte %#x)", scalar.Data[0])
	}
	msg.EndLoan(scalar)
	if scalar.Data != nil {
		t.Fatal("EndLoan left the payload on the scalar reply")
	}
	msg.EndLoan(scalar)
}

// TestLiveRepliesInFlightKeepTheirPayloads fires a burst of vectored reads
// at a live file-backed disk without waiting for any reply, so that many
// pooled payloads are on loan to the transport at once — each until its
// own frame is written — and checks every block of every reply. A payload
// returned early is found by a later read of the burst, or arrives as
// 0xDB under -tags tankdebug.
func TestLiveRepliesInFlightKeepTheirPayloads(t *testing.T) {
	const (
		width = 8
		reads = 24
		burst = 3
	)
	media, err := blockstore.Open(t.TempDir(), blockstore.Options{Blocks: crashBlocks, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	topo := Topology{Disks: map[msg.NodeID]string{crashDiskID: Loopback()}}
	dn, err := StartDiskNode(NodeSpec{ID: crashDiskID, Topo: topo}, disk.Config{Blocks: crashBlocks}, WithMedia(media))
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()
	c := newSANClient(t, adminID, dn.Addr.String())
	for i := 0; i < reads; i++ {
		req := msg.ReqID(1 + i)
		ack := c.call(batchPayload(adminID, req, uint64(i*width), width), func(m msg.Message) bool {
			res, ok := m.(*msg.DiskWriteVRes)
			return ok && res.Req == req
		})
		if ack == nil || ack.(*msg.DiskWriteVRes).Err != msg.OK {
			t.Fatalf("seeding batch %d: %v", i, ack)
		}
	}

	pending := map[msg.ReqID]uint64{} // request → first block
	for round := 0; round < burst; round++ {
		for i := 0; i < reads; i++ {
			req := msg.ReqID(1000 + round*reads + i)
			first := uint64(i * width)
			blocks := make([]uint64, width)
			for k := range blocks {
				blocks[k] = first + uint64(k)
			}
			pending[req] = first
			c.tr.Send(crashDiskID, &msg.DiskReadV{Client: adminID, Req: req, Blocks: blocks})
		}
	}
	deadline := time.After(10 * time.Second)
	for len(pending) > 0 {
		select {
		case m := <-c.replies:
			res, ok := m.(*msg.DiskReadVRes)
			if !ok {
				continue
			}
			first, ok := pending[res.Req]
			if !ok {
				continue
			}
			delete(pending, res.Req)
			if res.Err != msg.OK || len(res.Data) != width*disk.BlockSize {
				t.Fatalf("read %d: err %v, %d bytes", res.Req, res.Err, len(res.Data))
			}
			for k := 0; k < width; k++ {
				b := first + uint64(k)
				want := make([]byte, disk.BlockSize)
				copy(want, crashPayload(b))
				if !bytes.Equal(res.Data[k*disk.BlockSize:(k+1)*disk.BlockSize], want) || res.Vers[k] != b+1 {
					t.Fatalf("read %d: block %d arrived damaged (ver %d, first byte %#x)", res.Req, b, res.Vers[k], res.Data[k*disk.BlockSize])
				}
			}
		case <-deadline:
			t.Fatalf("%d reads of the burst never answered", len(pending))
		}
	}
}

// TestLiveScalarRepliesInFlightKeepTheirPayloads is the same for scalar
// reads: a file-backed disk reads each block into a pooled buffer its
// DiskReadRes lends to the transport until the frame is written, and a
// burst keeps many such loans out at once.
func TestLiveScalarRepliesInFlightKeepTheirPayloads(t *testing.T) {
	const reads = 64
	media, err := blockstore.Open(t.TempDir(), blockstore.Options{Blocks: crashBlocks, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	topo := Topology{Disks: map[msg.NodeID]string{crashDiskID: Loopback()}}
	dn, err := StartDiskNode(NodeSpec{ID: crashDiskID, Topo: topo}, disk.Config{Blocks: crashBlocks}, WithMedia(media))
	if err != nil {
		t.Fatal(err)
	}
	defer dn.Close()
	c := newSANClient(t, adminID, dn.Addr.String())
	if ack := c.call(batchPayload(adminID, 1, 0, reads), func(m msg.Message) bool {
		res, ok := m.(*msg.DiskWriteVRes)
		return ok && res.Req == 1
	}); ack == nil || ack.(*msg.DiskWriteVRes).Err != msg.OK {
		t.Fatalf("seeding: %v", ack)
	}

	pending := map[msg.ReqID]uint64{} // request → block
	for round := 0; round < 3; round++ {
		for b := uint64(0); b < reads; b++ {
			req := msg.ReqID(1000 + round*reads + int(b))
			pending[req] = b
			c.tr.Send(crashDiskID, &msg.DiskRead{Client: adminID, Req: req, Block: b})
		}
	}
	deadline := time.After(10 * time.Second)
	for len(pending) > 0 {
		select {
		case m := <-c.replies:
			res, ok := m.(*msg.DiskReadRes)
			if !ok {
				continue
			}
			b, ok := pending[res.Req]
			if !ok {
				continue
			}
			delete(pending, res.Req)
			want := make([]byte, disk.BlockSize)
			copy(want, crashPayload(b))
			if res.Err != msg.OK || res.Ver != b+1 || !bytes.Equal(res.Data, want) {
				t.Fatalf("read %d: block %d arrived damaged (err %v, ver %d)", res.Req, b, res.Err, res.Ver)
			}
		case <-deadline:
			t.Fatalf("%d reads of the burst never answered", len(pending))
		}
	}
}
