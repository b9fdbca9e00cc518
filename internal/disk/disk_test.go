package disk

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// rig wires one disk to a capture of its outbound replies, with a zero
// service time by default so tests see replies synchronously.
type rig struct {
	s       *sim.Scheduler
	d       *Disk
	reg     *stats.Registry
	replies []msg.Message
}

func newRig(t *testing.T, cfg Config, obs Observer, opts ...Option) *rig {
	t.Helper()
	r := &rig{s: sim.NewScheduler(1), reg: stats.NewRegistry()}
	clock := r.s.NewClock(1, 0)
	r.d = New(9, cfg, clock, func(to msg.NodeID, m msg.Message) {
		r.replies = append(r.replies, m)
	}, r.reg, obs, opts...)
	return r
}

// rejected is the disk's count of refused requests.
func (r *rig) rejected() uint64 { return r.reg.CounterValue("disk.n9.rejected") }

func (r *rig) deliver(m msg.Message) {
	r.d.Deliver(msg.Envelope{From: 1, To: 9, Payload: m})
	r.s.Run()
}

func (r *rig) last() msg.Message { return r.replies[len(r.replies)-1] }

func TestReadUnwrittenBlockIsZeros(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(&msg.DiskRead{Client: 1, Req: 1, Block: 3})
	res := r.last().(*msg.DiskReadRes)
	if res.Err != msg.OK {
		t.Fatalf("err = %v", res.Err)
	}
	if len(res.Data) != BlockSize || !bytes.Equal(res.Data, make([]byte, BlockSize)) {
		t.Fatal("unwritten block must read as zeros")
	}
}

func TestWriteThenRead(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(&msg.DiskWrite{Client: 1, Req: 1, Block: 5, Data: []byte("hello"), Ver: 42})
	if res := r.last().(*msg.DiskWriteRes); res.Err != msg.OK {
		t.Fatalf("write err = %v", res.Err)
	}
	r.deliver(&msg.DiskRead{Client: 2, Req: 2, Block: 5})
	res := r.last().(*msg.DiskReadRes)
	if !bytes.Equal(res.Data[:5], []byte("hello")) || res.Ver != 42 {
		t.Fatalf("read back %q ver %d", res.Data[:5], res.Ver)
	}
	if data, ver, ok := r.d.PeekBlock(5); !ok || ver != 42 || !bytes.Equal(data[:5], []byte("hello")) {
		t.Fatal("PeekBlock mismatch")
	}
}

func TestOutOfRange(t *testing.T) {
	r := newRig(t, Config{Blocks: 4}, Observer{})
	r.deliver(&msg.DiskRead{Client: 1, Req: 1, Block: 4})
	if res := r.last().(*msg.DiskReadRes); res.Err != msg.ErrRange {
		t.Fatalf("read err = %v, want ErrRange", res.Err)
	}
	r.deliver(&msg.DiskWrite{Client: 1, Req: 2, Block: 9, Data: nil})
	if res := r.last().(*msg.DiskWriteRes); res.Err != msg.ErrRange {
		t.Fatalf("write err = %v, want ErrRange", res.Err)
	}
	r.deliver(&msg.DiskWrite{Client: 1, Req: 3, Block: 0, Data: make([]byte, BlockSize+1)})
	if res := r.last().(*msg.DiskWriteRes); res.Err != msg.ErrRange {
		t.Fatalf("oversized write err = %v, want ErrRange", res.Err)
	}
}

// TestFencingRejectsIndefinitely: authority 100's fence against client 1
// below epoch 3 refuses client 1's requests stamped with authority 100
// and an older epoch, for good: a lower fence does not lift it. What the
// fence leaves alone goes through: another initiator, client 1 under
// another authority, and client 1 at the epoch the fence admits.
func TestFencingRejectsIndefinitely(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(&msg.FenceSet{Admin: 100, Req: 1, Authority: 100, Target: 1, Below: 3})
	if res := r.last().(*msg.FenceRes); res.Err != msg.OK || res.Top != 3 {
		t.Fatalf("fence answered err=%v top=%d, want OK and 3", res.Err, res.Top)
	}
	refused := func(what string, m msg.Message) {
		t.Helper()
		r.deliver(m)
		if _, errno, _ := msg.SANReplyReq(r.last()); errno != msg.ErrFenced {
			t.Fatalf("%s: %v, want ErrFenced", what, errno)
		}
	}
	admitted := func(what string, m msg.Message) {
		t.Helper()
		r.deliver(m)
		if _, errno, _ := msg.SANReplyReq(r.last()); errno != msg.OK {
			t.Fatalf("%s: %v, want OK", what, errno)
		}
	}
	refused("write at epoch 2", &msg.DiskWrite{Client: 1, Authority: 100, Epoch: 2, Req: 2, Block: 0, Data: []byte("x")})
	refused("read at epoch 2", &msg.DiskRead{Client: 1, Authority: 100, Epoch: 2, Req: 3, Block: 0})
	admitted("another initiator", &msg.DiskWrite{Client: 2, Authority: 100, Epoch: 1, Req: 4, Block: 0, Data: []byte("y")})
	admitted("another authority", &msg.DiskWrite{Client: 1, Authority: 200, Epoch: 1, Req: 5, Block: 0, Data: []byte("y")})
	admitted("the epoch the fence admits", &msg.DiskWrite{Client: 1, Authority: 100, Epoch: 3, Req: 6, Block: 0, Data: []byte("z")})
	r.deliver(&msg.FenceSet{Admin: 100, Req: 7, Authority: 100, Target: 1, Below: 1})
	if res := r.last().(*msg.FenceRes); res.Err != msg.OK || res.Top != 3 {
		t.Fatalf("lower fence answered err=%v top=%d, want OK and 3", res.Err, res.Top)
	}
	refused("write at epoch 2 after a lower fence", &msg.DiskWrite{Client: 1, Authority: 100, Epoch: 2, Req: 8, Block: 0, Data: []byte("x")})
	if n := r.rejected(); n != 3 {
		t.Fatalf("rejected counter %d, want 3", n)
	}
}

// TestRefusalIsTraced: with a tracer attached, a refusal is one EvDisk
// event naming the initiator, its stamp and the floor it fell below.
func TestRefusalIsTraced(t *testing.T) {
	ring := trace.NewRing(16)
	r := newRig(t, Config{Blocks: 16}, Observer{}, WithTracer(trace.New(ring)))
	r.deliver(&msg.FenceSet{Admin: 100, Req: 1, Authority: 100, Target: 1, Below: 3})
	r.deliver(&msg.DiskRead{Client: 1, Authority: 100, Epoch: 2, Req: 2, Block: 0})
	events := ring.Events().Filter(trace.ByType(trace.EvDisk))
	if len(events) != 1 {
		t.Fatalf("%d disk events, want 1: %v", len(events), events)
	}
	if e := events[0]; e.Peer != 1 || e.Epoch != 2 || e.Note != "fenced authority=n100 floor=3" {
		t.Fatalf("refusal traced as %s", e)
	}
}

func TestObserverCommitServe(t *testing.T) {
	var commits, serves int
	r := newRig(t, Config{Blocks: 16}, Observer{
		Committed: func(d msg.NodeID, block, ver uint64, w msg.NodeID) {
			commits++
			if block != 7 || ver != 3 || w != 1 {
				t.Errorf("commit block=%d ver=%d w=%v", block, ver, w)
			}
		},
		Served: func(d msg.NodeID, block, ver uint64, rd msg.NodeID) {
			serves++
			if ver != 3 || rd != 2 {
				t.Errorf("serve ver=%d rd=%v", ver, rd)
			}
		},
	})
	r.deliver(&msg.DiskWrite{Client: 1, Req: 1, Block: 7, Data: []byte("d"), Ver: 3})
	r.deliver(&msg.DiskRead{Client: 2, Req: 2, Block: 7})
	if commits != 1 || serves != 1 {
		t.Fatalf("commits=%d serves=%d", commits, serves)
	}
}

func TestServiceTimeDelaysReply(t *testing.T) {
	r := newRig(t, Config{Blocks: 16, ServiceTime: time.Millisecond}, Observer{})
	r.d.Deliver(msg.Envelope{Payload: &msg.DiskRead{Client: 1, Req: 1, Block: 0}})
	if len(r.replies) != 0 {
		t.Fatal("reply sent before service time")
	}
	r.s.Run()
	if len(r.replies) != 1 {
		t.Fatal("reply missing after service time")
	}
	if r.s.Now() != sim.Time(time.Millisecond) {
		t.Fatalf("replied at %v, want 1ms", r.s.Now())
	}
}

func TestDiskIgnoresUnknownMessages(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	r.deliver(&msg.KeepAlive{}) // not a SAN message; must be ignored
	if len(r.replies) != 0 {
		t.Fatal("disk replied to non-SAN message")
	}
}

func TestDLockConflictAndExpiry(t *testing.T) {
	r := newRig(t, Config{Blocks: 64}, Observer{})
	ttl := 100 * time.Millisecond
	r.deliver(&msg.DLockAcquire{Client: 1, Req: 1, Start: 0, Count: 8, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.OK {
		t.Fatalf("acquire err = %v", res.Err)
	}
	// Overlapping range by another client: held.
	r.deliver(&msg.DLockAcquire{Client: 2, Req: 2, Start: 4, Count: 8, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.ErrDLockHeld {
		t.Fatalf("conflict err = %v, want ErrDLockHeld", res.Err)
	}
	// Disjoint range: fine.
	r.deliver(&msg.DLockAcquire{Client: 2, Req: 3, Start: 8, Count: 8, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.OK {
		t.Fatalf("disjoint err = %v", res.Err)
	}
	if r.d.DLockCount() != 2 {
		t.Fatalf("dlock count = %d", r.d.DLockCount())
	}
	// After TTL the first lock expires and client 2 can take the range —
	// this is exactly how GFS recovers from failed clients (§5).
	r.s.RunFor(2 * ttl)
	r.deliver(&msg.DLockAcquire{Client: 2, Req: 4, Start: 0, Count: 8, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.OK {
		t.Fatalf("post-expiry err = %v", res.Err)
	}
}

func TestDLockReacquireExtends(t *testing.T) {
	r := newRig(t, Config{Blocks: 64}, Observer{})
	ttl := 100 * time.Millisecond
	r.deliver(&msg.DLockAcquire{Client: 1, Req: 1, Start: 0, Count: 4, TTL: ttl})
	r.s.RunFor(80 * time.Millisecond)
	r.deliver(&msg.DLockAcquire{Client: 1, Req: 2, Start: 0, Count: 4, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.OK {
		t.Fatalf("re-acquire err = %v", res.Err)
	}
	r.s.RunFor(80 * time.Millisecond) // 160ms total; original would have expired
	r.deliver(&msg.DLockAcquire{Client: 2, Req: 3, Start: 0, Count: 4, TTL: ttl})
	if res := r.last().(*msg.DLockRes); res.Err != msg.ErrDLockHeld {
		t.Fatal("extension did not hold")
	}
}

func TestDLockRelease(t *testing.T) {
	r := newRig(t, Config{Blocks: 64}, Observer{})
	r.deliver(&msg.DLockAcquire{Client: 1, Req: 1, Start: 0, Count: 4, TTL: time.Hour})
	r.deliver(&msg.DLockRelease{Client: 1, Req: 2, Start: 0, Count: 4})
	if r.d.DLockCount() != 0 {
		t.Fatalf("dlock count = %d after release", r.d.DLockCount())
	}
	r.deliver(&msg.DLockAcquire{Client: 2, Req: 3, Start: 0, Count: 4, TTL: time.Hour})
	if res := r.last().(*msg.DLockRes); res.Err != msg.OK {
		t.Fatalf("acquire after release err = %v", res.Err)
	}
}

func TestDLockFencedInitiator(t *testing.T) {
	r := newRig(t, Config{Blocks: 64}, Observer{})
	r.deliver(&msg.FenceSet{Admin: 100, Req: 1, Authority: 100, Target: 1, Below: 1})
	r.deliver(&msg.DLockAcquire{Client: 1, Authority: 100, Req: 2, Start: 0, Count: 4, TTL: time.Hour})
	if res := r.last().(*msg.DLockRes); res.Err != msg.ErrFenced {
		t.Fatalf("err = %v, want ErrFenced", res.Err)
	}
}

func TestWriteIsCopied(t *testing.T) {
	r := newRig(t, Config{Blocks: 16}, Observer{})
	buf := []byte("abc")
	r.deliver(&msg.DiskWrite{Client: 1, Req: 1, Block: 0, Data: buf})
	buf[0] = 'Z' // mutate caller's buffer after the write
	data, _, _ := r.d.PeekBlock(0)
	if data[0] != 'a' {
		t.Fatal("disk aliased the writer's buffer")
	}
	// Reads return the media's buffer under a read-only contract: the
	// slice must stay stable (a snapshot) even after the block is
	// rewritten, because a rewrite installs a fresh buffer.
	r.deliver(&msg.DiskRead{Client: 1, Req: 2, Block: 0})
	res := r.last().(*msg.DiskReadRes)
	snapshot := res.Data
	r.deliver(&msg.DiskWrite{Client: 1, Req: 3, Block: 0, Data: []byte("xyz")})
	if snapshot[0] != 'a' {
		t.Fatal("rewriting the block mutated a previously returned read buffer")
	}
	// PeekBlock promises a caller-owned copy.
	data, _, _ = r.d.PeekBlock(0)
	data[0] = 'Q'
	if again, _, _ := r.d.PeekBlock(0); again[0] != 'x' {
		t.Fatal("PeekBlock handed out a shared buffer")
	}
}

func TestServiceQueueSerializes(t *testing.T) {
	r := newRig(t, Config{Blocks: 16, ServiceTime: time.Millisecond}, Observer{})
	// A burst of 5 reads arrives at once: replies must come out one
	// service time apart (single actuator), not all together.
	for i := 0; i < 5; i++ {
		r.d.Deliver(msg.Envelope{Payload: &msg.DiskRead{Client: 1, Req: msg.ReqID(i), Block: 0}})
	}
	r.s.Run()
	if len(r.replies) != 5 {
		t.Fatalf("replies = %d", len(r.replies))
	}
	if want := sim.Time(5 * time.Millisecond); r.s.Now() != want {
		t.Fatalf("burst finished at %v, want %v (serialized)", r.s.Now(), want)
	}
}

// TestDlockPartialSelfOverlapRejected is the regression test for the
// dlock re-acquire bug: any overlapping self-owned range used to count
// as a re-acquire and extend that lock's TTL, leaving the unlocked part
// of the requested range unprotected while the client believed it held
// it. Only the exact (start, count) pair may extend.
func TestDlockPartialSelfOverlapRejected(t *testing.T) {
	r := newRig(t, Config{Blocks: 64}, Observer{})
	acquire := func(req msg.ReqID, client msg.NodeID, start uint64, count uint32) msg.Errno {
		r.deliver(&msg.DLockAcquire{Client: client, Req: req,
			Start: start, Count: count, TTL: time.Minute})
		return r.last().(*msg.DLockRes).Err
	}
	if e := acquire(1, 1, 0, 4); e != msg.OK {
		t.Fatalf("initial acquire: %v", e)
	}
	// Identical range: legitimate TTL extension.
	if e := acquire(2, 1, 0, 4); e != msg.OK {
		t.Fatalf("identical re-acquire: %v", e)
	}
	// Supersets and partial overlaps of a self-owned lock must NOT be
	// treated as re-acquires: the old code extended (0,4) and reported
	// success for (0,8), leaving blocks 4..8 unlocked.
	if e := acquire(3, 1, 0, 8); e != msg.ErrDLockHeld {
		t.Fatalf("superset self-overlap = %v, want ErrDLockHeld", e)
	}
	if e := acquire(4, 1, 2, 4); e != msg.ErrDLockHeld {
		t.Fatalf("partial self-overlap = %v, want ErrDLockHeld", e)
	}
	// A disjoint range is a fresh lock, and other clients still conflict.
	if e := acquire(5, 1, 4, 4); e != msg.OK {
		t.Fatalf("disjoint acquire: %v", e)
	}
	if e := acquire(6, 2, 0, 4); e != msg.ErrDLockHeld {
		t.Fatalf("other-client overlap = %v, want ErrDLockHeld", e)
	}
}

// serviceRig is a rig with a non-zero ServiceTime that records the
// simulated time of every reply, for the queueing tests.
type serviceRig struct {
	s       *sim.Scheduler
	d       *Disk
	replies []msg.Message
	at      []time.Duration
}

func newServiceRig(t *testing.T, st time.Duration) *serviceRig {
	t.Helper()
	r := &serviceRig{s: sim.NewScheduler(1)}
	clock := r.s.NewClock(1, 0)
	epoch := clock.Now()
	r.d = New(9, Config{Blocks: 64, ServiceTime: st}, clock, func(to msg.NodeID, m msg.Message) {
		r.replies = append(r.replies, m)
		r.at = append(r.at, clock.Now().Sub(epoch))
	}, stats.NewRegistry(), Observer{})
	return r
}

// TestServiceQueueFIFO models the single-actuator device: a burst of N
// writes delivered together is serviced one at a time, FIFO, so reply i
// lands at exactly (i+1)·ServiceTime.
func TestServiceQueueFIFO(t *testing.T) {
	const st = time.Millisecond
	r := newServiceRig(t, st)
	const n = 5
	for i := 0; i < n; i++ {
		r.d.Deliver(msg.Envelope{From: 1, To: 9, Payload: &msg.DiskWrite{
			Client: 1, Req: msg.ReqID(i + 1), Block: uint64(i), Data: []byte{byte(i)}}})
	}
	r.s.Run()
	if len(r.replies) != n {
		t.Fatalf("got %d replies, want %d", len(r.replies), n)
	}
	for i, m := range r.replies {
		res := m.(*msg.DiskWriteRes)
		if res.Err != msg.OK {
			t.Fatalf("write %d err = %v", i, res.Err)
		}
		if res.Req != msg.ReqID(i+1) {
			t.Fatalf("reply %d is for req %d: service order is not FIFO", i, res.Req)
		}
		if want := time.Duration(i+1) * st; r.at[i] != want {
			t.Fatalf("reply %d at %v, want %v (N·ServiceTime queueing)", i, r.at[i], want)
		}
	}
}

// TestFenceRejectsQueuedWrites pins down when fencing takes effect: a
// FenceSet is a control operation that bypasses the service queue, so
// writes that were already queued when the fence arrived are rejected at
// execution time — the paper's safety argument does not tolerate a
// fenced client's write sneaking through because it was enqueued first.
func TestFenceRejectsQueuedWrites(t *testing.T) {
	r := newServiceRig(t, time.Millisecond)
	for i := 0; i < 3; i++ {
		r.d.Deliver(msg.Envelope{From: 1, To: 9, Payload: &msg.DiskWrite{
			Client: 1, Authority: 100, Req: msg.ReqID(i + 1), Block: uint64(i), Data: []byte("w")}})
	}
	// The fence arrives while all three writes are still queued.
	r.d.Deliver(msg.Envelope{From: 100, To: 9, Payload: &msg.FenceSet{
		Admin: 100, Req: 9, Authority: 100, Target: 1, Below: 1}})
	r.s.Run()
	if len(r.replies) != 4 {
		t.Fatalf("got %d replies, want 4", len(r.replies))
	}
	if res := r.replies[0].(*msg.FenceRes); res.Err != msg.OK {
		t.Fatalf("fence err = %v", res.Err)
	}
	for i := 1; i < 4; i++ {
		res := r.replies[i].(*msg.DiskWriteRes)
		if res.Err != msg.ErrFenced {
			t.Fatalf("queued write %d err = %v, want ErrFenced", res.Req, res.Err)
		}
	}
	if _, _, ok := r.d.PeekBlock(0); ok {
		t.Fatal("fenced client's queued write reached the media")
	}
}
