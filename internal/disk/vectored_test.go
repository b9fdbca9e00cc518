package disk

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/msg"
	"repro/internal/sim"
)

func writeVOf(client msg.NodeID, req msg.ReqID, blocks ...uint64) *msg.DiskWriteV {
	m := &msg.DiskWriteV{Client: client, Authority: 100, Req: req, Data: make([]byte, len(blocks)*BlockSize)}
	for i, b := range blocks {
		m.Blocks = append(m.Blocks, msg.BlockVec{Block: b, Ver: 100 + b})
		copy(m.Data[i*BlockSize:], bytes.Repeat([]byte{byte(b) + 1}, BlockSize))
	}
	return m
}

func TestWriteVThenReadV(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(writeVOf(1, 1, 3, 7, 11))
	res := r.last().(*msg.DiskWriteVRes)
	if res.Err != msg.OK {
		t.Fatalf("writev err = %v (%v)", res.Err, res.Errs)
	}
	for i, e := range res.Errs {
		if e != msg.OK {
			t.Fatalf("block %d errno = %v", i, e)
		}
	}
	// ReadV the batch back plus one never-written block.
	r.deliver(&msg.DiskReadV{Client: 2, Req: 2, Blocks: []uint64{3, 7, 11, 5}})
	rv := r.last().(*msg.DiskReadVRes)
	if rv.Err != msg.OK {
		t.Fatalf("readv err = %v (%v)", rv.Err, rv.Errs)
	}
	for i, b := range []uint64{3, 7, 11} {
		slot := rv.Data[i*BlockSize : (i+1)*BlockSize]
		if !bytes.Equal(slot, bytes.Repeat([]byte{byte(b) + 1}, BlockSize)) {
			t.Fatalf("slot %d contents wrong", i)
		}
		if rv.Vers[i] != 100+b {
			t.Fatalf("slot %d ver = %d", i, rv.Vers[i])
		}
	}
	if !bytes.Equal(rv.Data[3*BlockSize:], make([]byte, BlockSize)) || rv.Vers[3] != 0 {
		t.Fatal("unwritten slot must be zeros with ver 0")
	}
}

// TestWriteVSingleServiceSlot is the actuator contract the tentpole is
// built on: a batch of N blocks occupies ONE service slot, where N scalar
// writes pay N slots.
func TestWriteVSingleServiceSlot(t *testing.T) {
	r := newRig(t, Config{Blocks: 64, ServiceTime: time.Millisecond}, Observer{})
	r.d.Deliver(msg.Envelope{From: 1, To: 9, Payload: writeVOf(1, 1, 0, 1, 2, 3, 4, 5, 6, 7)})
	r.s.Run()
	if len(r.replies) != 1 {
		t.Fatalf("replies = %d", len(r.replies))
	}
	if r.s.Now() != sim.Time(time.Millisecond) {
		t.Fatalf("batch of 8 took %v, want 1·ServiceTime", r.s.Now())
	}
	if res := r.last().(*msg.DiskWriteVRes); res.Err != msg.OK {
		t.Fatalf("err = %v", res.Err)
	}
}

// TestWriteVUntracedFormatsNothing: with the trace bus off, a one-block
// batch on Mem media costs four allocations — the reply and its Errs, and
// two of the media's; a disk with no service time runs it at once, so
// neither the envelope nor a closure moves to the heap. The batch's trace
// note is formatted only when someone reads it.
func TestWriteVUntracedFormatsNothing(t *testing.T) {
	d := New(9, Config{Blocks: 16}, sim.NewScheduler(1).NewClock(1, 0),
		func(msg.NodeID, msg.Message) {}, nil, Observer{})
	env := msg.Envelope{From: 1, To: 9, Payload: writeVOf(1, 1, 3)}
	if allocs := testing.AllocsPerRun(100, func() { d.Deliver(env) }); allocs > 4 {
		t.Errorf("an untraced one-block DiskWriteV made %.0f allocations, want 4", allocs)
	}
}

// TestReadAllocatesItsReply: a scalar read on a disk with no service time
// (a live disk) costs one allocation, its reply.
func TestReadAllocatesItsReply(t *testing.T) {
	d := New(9, Config{Blocks: 16}, sim.NewScheduler(1).NewClock(1, 0),
		func(msg.NodeID, msg.Message) {}, nil, Observer{})
	d.Deliver(msg.Envelope{From: 1, To: 9, Payload: writeVOf(1, 1, 3)})
	env := msg.Envelope{From: 1, To: 9, Payload: &msg.DiskRead{Client: 1, Req: 2, Block: 3}}
	if allocs := testing.AllocsPerRun(100, func() { d.Deliver(env) }); allocs > 1 {
		t.Errorf("a DiskRead made %.0f allocations, want 1", allocs)
	}
}

func TestWriteVFencedClient(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(&msg.FenceSet{Admin: 100, Req: 1, Authority: 100, Target: 1, Below: 1})
	r.deliver(writeVOf(1, 2, 0, 1))
	res := r.last().(*msg.DiskWriteVRes)
	if res.Err != msg.ErrFenced {
		t.Fatalf("err = %v, want ErrFenced", res.Err)
	}
	for i, e := range res.Errs {
		if e != msg.ErrFenced {
			t.Fatalf("block %d errno = %v, want ErrFenced", i, e)
		}
	}
	// One fence judgment for the whole batch, not one per block.
	if n := r.rejected(); n != 1 {
		t.Fatalf("rejected counter %d, want 1", n)
	}
	if _, _, ok := r.d.PeekBlock(0); ok {
		t.Fatal("fenced batch reached the media")
	}
}

func TestWriteVPartialRange(t *testing.T) {
	commits := 0
	r := newRig(t, Config{Blocks: 4}, Observer{
		Committed: func(d msg.NodeID, block, ver uint64, w msg.NodeID) { commits++ },
	})
	r.deliver(writeVOf(1, 1, 0, 99, 2)) // middle block beyond capacity
	res := r.last().(*msg.DiskWriteVRes)
	if res.Err != msg.ErrRange {
		t.Fatalf("aggregate err = %v, want ErrRange (first failure)", res.Err)
	}
	if res.Errs[0] != msg.OK || res.Errs[1] != msg.ErrRange || res.Errs[2] != msg.OK {
		t.Fatalf("per-block errnos = %v", res.Errs)
	}
	if commits != 2 {
		t.Fatalf("commits = %d, want 2", commits)
	}
	if _, _, ok := r.d.PeekBlock(0); !ok {
		t.Fatal("valid block 0 not committed")
	}
	if _, _, ok := r.d.PeekBlock(2); !ok {
		t.Fatal("valid block 2 not committed")
	}
}

func TestWriteVBadPayloadLength(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	m := writeVOf(1, 1, 0, 1)
	m.Data = m.Data[:BlockSize] // payload shorter than the vector demands
	r.deliver(m)
	res := r.last().(*msg.DiskWriteVRes)
	if res.Err != msg.ErrRange || res.Errs[0] != msg.ErrRange || res.Errs[1] != msg.ErrRange {
		t.Fatalf("err=%v errs=%v, want all ErrRange", res.Err, res.Errs)
	}
}

// tornMedia fails WriteV for one chosen block with a torn-block error,
// modelling a media whose group commit leaves one slot damaged.
type tornMedia struct {
	blockstore.Media
	tornBlock uint64
}

func (m *tornMedia) WriteV(batch []blockstore.BlockWrite) []error {
	errs := m.Media.WriteV(batch)
	for i, w := range batch {
		if w.Block == m.tornBlock {
			errs[i] = fmt.Errorf("slot damaged: %w", blockstore.ErrTorn)
		}
	}
	return errs
}

// TestWriteVPartialTornDegradesPerBlock: one failed slot inside a batch
// surfaces as that block's errno (ErrTorn) while its neighbours commit —
// the partial-batch degradation the protocol change promises.
func TestWriteVPartialTornDegradesPerBlock(t *testing.T) {
	torn := 0
	r := newRig(t, Config{Blocks: 16}, Observer{
		Torn: func(d msg.NodeID, block uint64) {
			torn++
			if block != 1 {
				t.Errorf("torn observer got block %d", block)
			}
		},
	})
	r.d.media = &tornMedia{Media: r.d.media, tornBlock: 1}
	r.deliver(writeVOf(1, 1, 0, 1, 2))
	res := r.last().(*msg.DiskWriteVRes)
	if res.Err != msg.ErrTorn {
		t.Fatalf("aggregate err = %v, want ErrTorn", res.Err)
	}
	if res.Errs[0] != msg.OK || res.Errs[1] != msg.ErrTorn || res.Errs[2] != msg.OK {
		t.Fatalf("per-block errnos = %v", res.Errs)
	}
	if torn != 1 {
		t.Fatalf("torn observer fired %d times", torn)
	}
}

func TestReadVFencedAndRange(t *testing.T) {
	r := newRig(t, Config{Blocks: 4}, Observer{})
	r.deliver(&msg.DiskReadV{Client: 1, Req: 1, Blocks: []uint64{0, 9}})
	res := r.last().(*msg.DiskReadVRes)
	if res.Err != msg.ErrRange || res.Errs[0] != msg.OK || res.Errs[1] != msg.ErrRange {
		t.Fatalf("err=%v errs=%v", res.Err, res.Errs)
	}
	r.deliver(&msg.FenceSet{Admin: 100, Req: 2, Authority: 100, Target: 1, Below: 1})
	r.deliver(&msg.DiskReadV{Client: 1, Authority: 100, Req: 3, Blocks: []uint64{0}})
	res = r.last().(*msg.DiskReadVRes)
	if res.Err != msg.ErrFenced || res.Errs[0] != msg.ErrFenced {
		t.Fatalf("fenced readv: err=%v errs=%v", res.Err, res.Errs)
	}
}
