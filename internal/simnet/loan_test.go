package simnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/disk"
	"repro/internal/msg"
)

// TestLentPayloadOutlivesALaterRead keeps one disk's DiskReadVRes in
// flight while the same disk serves a second read. The first reply's
// payload is a pooled buffer the disk lent to the fabric; were it returned
// before the reply's own handler has run, the second read — which takes
// its payload from the same pool — would find it, and under -tags tankdebug
// it would arrive as 0xDB. It must be whole when its handler runs, and
// gone (the loan over) once that handler has returned.
func TestLentPayloadOutlivesALaterRead(t *testing.T) {
	const diskID, clientID = msg.NodeID(1000), msg.NodeID(10)
	fixed := 100 * time.Microsecond
	s, n := newNet(t, Config{Name: "san", DelayMin: fixed, DelayMax: fixed})
	d := disk.New(diskID, disk.Config{Blocks: 64}, s.NewClock(1, 0),
		func(to msg.NodeID, m msg.Message) { n.Send(diskID, to, m) }, nil, disk.Observer{})
	n.Attach(diskID, d.Deliver)

	content := func(b uint64) []byte { return bytes.Repeat([]byte{byte(b) + 1}, disk.BlockSize) }
	seed := &msg.DiskWriteV{Client: clientID, Req: 1, Data: make([]byte, 8*disk.BlockSize)}
	for b := uint64(0); b < 8; b++ {
		seed.Blocks = append(seed.Blocks, msg.BlockVec{Block: b, Ver: 1})
		copy(seed.Data[b*disk.BlockSize:], content(b))
	}
	reads := map[msg.ReqID][]uint64{2: {0, 1, 2, 3}, 3: {4, 5, 6, 7}}
	var delivered []*msg.DiskReadVRes
	n.Attach(clientID, func(env msg.Envelope) {
		res, ok := env.Payload.(*msg.DiskReadVRes)
		if !ok {
			return
		}
		for _, earlier := range delivered {
			if earlier.Data != nil {
				t.Errorf("reply %d still holds its payload after its handler returned", earlier.Req)
			}
		}
		if res.Err != msg.OK || len(res.Data) != 4*disk.BlockSize {
			t.Fatalf("reply %d: err %v, %d bytes", res.Req, res.Err, len(res.Data))
		}
		for i, b := range reads[res.Req] {
			if !bytes.Equal(res.Data[i*disk.BlockSize:(i+1)*disk.BlockSize], content(b)) {
				t.Errorf("reply %d: block %d arrived damaged (first byte %#x)", res.Req, b, res.Data[i*disk.BlockSize])
			}
		}
		delivered = append(delivered, res)
	})

	n.Send(clientID, diskID, seed)
	s.Run()
	// Both requests reach the disk at the same instant, so the second is
	// served — its payload taken from the pool — while the first reply is
	// still 100 µs from its handler.
	n.Send(clientID, diskID, &msg.DiskReadV{Client: clientID, Req: 2, Blocks: reads[2]})
	n.Send(clientID, diskID, &msg.DiskReadV{Client: clientID, Req: 3, Blocks: reads[3]})
	s.Run()
	if len(delivered) != 2 {
		t.Fatalf("%d replies delivered, want 2", len(delivered))
	}
	if delivered[1].Data != nil {
		t.Errorf("reply %d still holds its payload after its handler returned", delivered[1].Req)
	}
}

// TestLentScalarPayloadOutlivesALaterRead is the same for the scalar
// reply: on media that reads into the caller's buffer (blockstore.File —
// Mem serves its own and never lends) a DiskReadRes lends a pooled block,
// which must be whole when its handler runs while the disk serves a
// second read from the same pool, and gone once that handler returned.
func TestLentScalarPayloadOutlivesALaterRead(t *testing.T) {
	const diskID, clientID = msg.NodeID(1000), msg.NodeID(10)
	media, err := blockstore.Open(t.TempDir(), blockstore.Options{Blocks: 64, NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer media.Close()
	fixed := 100 * time.Microsecond
	s, n := newNet(t, Config{Name: "san", DelayMin: fixed, DelayMax: fixed})
	d := disk.New(diskID, disk.Config{Blocks: 64}, s.NewClock(1, 0),
		func(to msg.NodeID, m msg.Message) { n.Send(diskID, to, m) }, nil, disk.Observer{},
		disk.WithMedia(media))
	n.Attach(diskID, d.Deliver)

	content := func(b uint64) []byte { return bytes.Repeat([]byte{byte(b) + 1}, disk.BlockSize) }
	var delivered []*msg.DiskReadRes
	n.Attach(clientID, func(env msg.Envelope) {
		res, ok := env.Payload.(*msg.DiskReadRes)
		if !ok {
			return
		}
		for _, earlier := range delivered {
			if earlier.Data != nil {
				t.Errorf("reply %d still holds its payload after its handler returned", earlier.Req)
			}
		}
		if b := uint64(res.Req); res.Err != msg.OK || !bytes.Equal(res.Data, content(b)) {
			t.Errorf("reply %d: err %v, block %d arrived damaged", res.Req, res.Err, b)
		}
		delivered = append(delivered, res)
	})
	for b := uint64(1); b <= 2; b++ {
		n.Send(clientID, diskID, &msg.DiskWrite{Client: clientID, Req: msg.ReqID(100 + b), Block: b, Data: content(b), Ver: 1})
	}
	s.Run()
	n.Send(clientID, diskID, &msg.DiskRead{Client: clientID, Req: 1, Block: 1})
	n.Send(clientID, diskID, &msg.DiskRead{Client: clientID, Req: 2, Block: 2})
	s.Run()
	if len(delivered) != 2 {
		t.Fatalf("%d replies delivered, want 2", len(delivered))
	}
	if delivered[1].Data != nil {
		t.Errorf("reply %d still holds its payload after its handler returned", delivered[1].Req)
	}
}
