package rpcnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/disk"
	"repro/internal/msg"

	"os"
)

// Vectored-write crash harness: a disk node is SIGKILLed while a stream
// of DiskWriteV batches is in flight, then restarted from the same data
// directory. The group-commit contract under test:
//
//   - an ACKed batch is durable IN FULL — every block reads back with its
//     exact contents and version stamp (ack-implies-batch-durable);
//   - a batch torn by the crash degrades to per-block outcomes: damaged
//     blocks are refused (ErrTorn), never served as a mix of old and new
//     bytes, and unreached blocks simply read as their prior state.

// batchPayload assembles a DiskWriteV covering blocks [first, first+width).
func batchPayload(client msg.NodeID, req msg.ReqID, first uint64, width int) *msg.DiskWriteV {
	m := &msg.DiskWriteV{Client: client, Req: req, Data: make([]byte, width*disk.BlockSize)}
	for i := 0; i < width; i++ {
		b := first + uint64(i)
		m.Blocks = append(m.Blocks, msg.BlockVec{Block: b, Ver: b + 1})
		copy(m.Data[i*disk.BlockSize:], crashPayload(b))
	}
	return m
}

// readv issues one vectored read and waits for its reply.
func (c *sanClient) readv(req msg.ReqID, blocks []uint64) *msg.DiskReadVRes {
	r := c.call(&msg.DiskReadV{Client: c.tr.self, Req: req, Blocks: blocks},
		func(m msg.Message) bool {
			res, ok := m.(*msg.DiskReadVRes)
			return ok && res.Req == req
		})
	if r == nil {
		return nil
	}
	return r.(*msg.DiskReadVRes)
}

func TestCrashRestartVectoredBatchDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess crash harness")
	}
	const (
		width   = 8
		batches = 24 // 192 blocks, within crashBlocks
	)
	dir := t.TempDir()
	helper, addr := startCrashHelper(t, dir)
	writer := newSANClient(t, adminID, addr)

	// Fire every batch without waiting, then collect ACKs until at least
	// a third are in; batches genuinely mid-commit die with the process.
	for i := 0; i < batches; i++ {
		writer.tr.Send(crashDiskID, batchPayload(adminID, msg.ReqID(100+i), uint64(i*width), width))
	}
	ackedBatch := map[int]bool{}
	timeout := time.After(10 * time.Second)
collect:
	for len(ackedBatch) < batches/3 {
		select {
		case r := <-writer.replies:
			res, ok := r.(*msg.DiskWriteVRes)
			if !ok || res.Req < 100 || res.Err != msg.OK {
				continue
			}
			all := true
			for _, e := range res.Errs {
				if e != msg.OK {
					all = false
				}
			}
			if all {
				ackedBatch[int(res.Req-100)] = true
			}
		case <-timeout:
			break collect
		}
	}
	if len(ackedBatch) < 2 {
		t.Fatalf("only %d batches acknowledged before kill", len(ackedBatch))
	}
	helper.Process.Kill()
	helper.Wait()

	// Tear one block INSIDE an ACKed batch, the way a crash between the
	// batch's data pwrites and its group-commit fsync could damage a slot
	// the kernel had not yet stabilized.
	tornBatch := -1
	for i := range ackedBatch {
		if i > tornBatch {
			tornBatch = i
		}
	}
	torn := uint64(tornBatch*width) + width/2
	df, err := os.OpenFile(blockstore.DataPath(dir), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := df.WriteAt(bytes.Repeat([]byte{0xFF}, 1000), blockstore.DataOffset(torn)); err != nil {
		t.Fatal(err)
	}
	df.Close()

	helper2, addr2 := startCrashHelper(t, dir)
	reader := newSANClient(t, adminID+1, addr2)

	// (a) Ack-implies-batch-durable: every block of every ACKed batch
	// (minus the deliberately torn one) has its contents and version.
	req := msg.ReqID(1)
	for i := range ackedBatch {
		blocks := make([]uint64, width)
		for j := range blocks {
			blocks[j] = uint64(i*width + j)
		}
		res := reader.readv(req, blocks)
		req++
		if res == nil {
			t.Fatalf("no readv reply for batch %d", i)
		}
		for j, b := range blocks {
			if b == torn {
				// (b) The damaged slot degrades to ITS errno; the rest of
				// the batch still serves.
				if res.Errs[j] != msg.ErrTorn {
					t.Fatalf("torn block %d errno = %v, want ErrTorn", b, res.Errs[j])
				}
				continue
			}
			if res.Errs[j] != msg.OK {
				t.Fatalf("ACKed block %d errno = %v", b, res.Errs[j])
			}
			want := crashPayload(b)
			slot := res.Data[j*disk.BlockSize : (j+1)*disk.BlockSize]
			if !bytes.Equal(slot[:len(want)], want) ||
				!bytes.Equal(slot[len(want):], make([]byte, disk.BlockSize-len(want))) {
				t.Fatalf("block %d: ACKed batch contents lost across crash", b)
			}
			if res.Vers[j] != b+1 {
				t.Fatalf("block %d: ver = %d, want %d", b, res.Vers[j], b+1)
			}
		}
	}

	// (c) No half-truths anywhere: every block in the written range either
	// serves its exact payload with its exact version, reads as unwritten
	// (zeros, ver 0 — the batch never committed), or is refused as torn.
	for b := uint64(0); b < batches*width; b++ {
		res := reader.read(req, b)
		req++
		if res == nil {
			t.Fatalf("no reply reading block %d", b)
		}
		switch {
		case res.Err == msg.ErrTorn:
			// Detected damage is an honest answer.
		case res.Err != msg.OK:
			t.Fatalf("block %d err = %v", b, res.Err)
		case res.Ver == b+1:
			want := crashPayload(b)
			if !bytes.Equal(res.Data[:len(want)], want) {
				t.Fatalf("block %d claims ver %d with wrong contents", b, res.Ver)
			}
		case res.Ver == 0:
			if !bytes.Equal(res.Data, make([]byte, disk.BlockSize)) {
				t.Fatalf("block %d: ver 0 with non-zero contents", b)
			}
		default:
			t.Fatalf("block %d: impossible version %d", b, res.Ver)
		}
	}

	helper2.Process.Kill()
	helper2.Wait()
}
