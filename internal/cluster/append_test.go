package cluster

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"repro/internal/blockstore"
	"repro/internal/meta"
	"repro/internal/msg"
	"repro/internal/simnet"
)

// The append path (DESIGN.md §17): allocation ahead of the writer, delta
// replies spliced by the client, one size push per settle point, and the
// trim that gives back what was granted and never written.

// appendBlocks writes blocks [from, to) of h on client i, one Write each.
func appendBlocks(t *testing.T, cl *Cluster, i int, h msg.Handle, from, to uint64) {
	t.Helper()
	for idx := from; idx < to; idx++ {
		if errno := cl.Write(i, h, idx, block(byte('a'+idx%26))); errno != msg.OK {
			t.Fatalf("append of block %d: %v", idx, errno)
		}
	}
}

func inode(t *testing.T, cl *Cluster, path string) *meta.Inode {
	t.Helper()
	in, errno := cl.Shards[0].Server.Store().Lookup(path)
	if errno != msg.OK {
		t.Fatalf("lookup %s: %v", path, errno)
	}
	return in
}

// setAttrs counts the SetAttr requests sent on the control network from
// now on, a retransmission once.
func setAttrs(cl *Cluster) func() int {
	reqs := make(map[msg.ReqHeader]bool)
	observe := cl.Control.Observer
	cl.Control.Observer = func(e simnet.Event) {
		observe(e)
		if m, ok := e.Env.Payload.(*msg.SetAttr); ok {
			reqs[m.ReqHeader] = true
		}
	}
	return func() int { return len(reqs) }
}

func noViolations(t *testing.T, cl *Cluster) {
	t.Helper()
	cl.FinalCheck()
	if got := cl.Violations(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}

// TestTruncateResetsSize: Stat after Truncate(h, 0) reports an empty
// file, and the writes that follow move the size again — the client
// compares a write's end with the size it holds, so a truncate that left
// the old size in place silenced every later update.
func TestTruncateResetsSize(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	sc := cl.SyncClient(0)
	h, attr := cl.MustOpen(0, "/f", true, true)
	appendBlocks(t, cl, 0, h, 0, 5)
	cl.Sync(0)
	if err := sc.Truncate(h, 0); err != nil {
		t.Fatal(err)
	}
	if a, err := sc.Stat(attr.Ino); err != nil || a.Size != 0 {
		t.Fatalf("stat after Truncate(h, 0): size %d, %v", a.Size, err)
	}
	appendBlocks(t, cl, 0, h, 0, 2)
	cl.Sync(0)
	if a, err := sc.Stat(attr.Ino); err != nil || a.Size != 2*BlockSize {
		t.Fatalf("stat after rewriting two blocks: size %d, %v; want %d", a.Size, err, 2*BlockSize)
	}
}

// TestSyncCoversSize: when Sync returns the server has the file's size,
// and a run of extending writes cost it one SetAttr — the one Sync sent
// — not one per write. Until then the server's size is the last settled
// one.
func TestSyncCoversSize(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h, _ := cl.MustOpen(0, "/f", true, true)
	before := cl.Reg.CounterValue("server.transactions")
	appendBlocks(t, cl, 0, h, 0, 40)
	if in := inode(t, cl, "/f"); in.Size != 0 {
		t.Fatalf("server size before Sync = %d: no extending write pushes the size, the settle point does", in.Size)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	if in := inode(t, cl, "/f"); in.Size != 40*BlockSize {
		t.Fatalf("server size after Sync = %d, want %d", in.Size, 40*BlockSize)
	}
	// The lock with the map — the grant carries it, where a GetBlocks used
	// to follow every grant — 7 allocations (1, 1, 2, 4, 8, 16, 32 blocks)
	// and the one SetAttr.
	if n := cl.Reg.CounterValue("server.transactions") - before; n != 9 {
		t.Fatalf("40 appended blocks and a Sync cost %d server transactions, want 9", n)
	}
}

// TestExtendingWritesSendNoSize: however many writes extend a file, none
// of them tells the server its size; only a settle point does.
func TestExtendingWritesSendNoSize(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h, attr := cl.MustOpen(0, "/f", true, true)
	sent := setAttrs(cl)
	appendBlocks(t, cl, 0, h, 0, 100)
	cl.RunFor(time.Minute)
	if n := sent(); n != 0 {
		t.Fatalf("100 extending writes and no settle point sent %d SetAttr, want 0", n)
	}
	if in := inode(t, cl, "/f"); in.Size != 0 {
		t.Fatalf("the server's size moved without a settle point: %d", in.Size)
	}
	if a, err := cl.SyncClient(0).Stat(attr.Ino); err != nil || a.Size != 100*BlockSize {
		t.Fatalf("the writer's Stat: size %d, %v; want its own %d", a.Size, err, 100*BlockSize)
	}
}

// TestOneSizePushPerSettlePoint: every settle point sends the size an
// append owes in exactly one SetAttr, whatever the number of writes
// before it, and leaves the server with it.
func TestOneSizePushPerSettlePoint(t *testing.T) {
	const n = 10
	for _, tc := range []struct {
		name   string
		opts   func(*Options)
		settle func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID)
		size   uint64 // the server's size after the settle point
	}{
		{name: "sync", size: n * BlockSize, settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if errno := cl.Sync(0); errno != msg.OK {
				t.Fatal(errno)
			}
		}},
		{name: "truncate", size: 4 * BlockSize, settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if err := cl.SyncClient(0).Truncate(h, 4); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "close", size: n * BlockSize, settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if errno := cl.Close(0, h); errno != msg.OK {
				t.Fatal(errno)
			}
		}},
		{name: "flush-interval", size: n * BlockSize,
			opts: func(o *Options) { o.FlushInterval = time.Second },
			settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
				cl.RunFor(3 * time.Second) // three ticks: one has something to send
			}},
		{name: "demand", size: n * BlockSize, settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			hr, _ := cl.MustOpen(1, "/f", false, false)
			if _, errno := cl.Read(1, hr, n-1); errno != msg.OK {
				t.Fatal(errno)
			}
		}},
		{name: "release", size: n * BlockSize, settle: func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if err := cl.SyncClient(0).ReleaseLock(ino); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			opts := DefaultOptions()
			if tc.opts != nil {
				tc.opts(&opts)
			}
			cl := New(opts)
			cl.Start()
			h, attr := cl.MustOpen(0, "/f", true, true)
			sent := setAttrs(cl)
			appendBlocks(t, cl, 0, h, 0, n)
			if got := sent(); got != 0 {
				t.Fatalf("%d extending writes sent %d SetAttr before the settle point", n, got)
			}
			tc.settle(t, cl, h, attr.Ino)
			if got := sent(); got != 1 {
				t.Fatalf("the settle point sent %d SetAttr, want 1", got)
			}
			if in := inode(t, cl, "/f"); in.Size != tc.size {
				t.Fatalf("after the settle point the server has size %d, want %d", in.Size, tc.size)
			}
		})
	}
}

// TestSyncReportsAnUnsettledSize: a Sync that could not give the server
// the size says so. The writer is cut off the control network after its
// last extending writes, so its Sync's SetAttr dies with the lease; Sync
// must return that, not OK.
func TestSyncReportsAnUnsettledSize(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h, _ := cl.MustOpen(0, "/f", true, true)
	appendBlocks(t, cl, 0, h, 0, 2)
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	appendBlocks(t, cl, 0, h, 2, 4)
	cl.IsolateClient(0)
	errno := cl.Sync(0)
	in := inode(t, cl, "/f")
	if in.Size == 4*BlockSize {
		t.Fatal("setup: the size crossed the partition")
	}
	if errno == msg.OK {
		t.Fatalf("Sync returned OK, and the server has a size of %d blocks of 4", in.Size/BlockSize)
	}
}

// TestSyncReportsARefusedWrite: a Sync whose writes a disk refused says
// so, and the pages stay dirty for the next one — a scalar write and a
// vectored one alike.
func TestSyncReportsARefusedWrite(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h, _ := cl.MustOpen(0, "/f", true, true)
	appendBlocks(t, cl, 0, h, 0, 4) // grants of 1, 1 and 2 blocks: one run each
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	sub := cl.Clients[0].Sub(0)
	fence := func() {
		for _, d := range cl.Disks {
			f := blockstore.Fence{Authority: ServerID(0), Target: ClientID(0), Below: sub.Epoch() + 1}
			if err := d.Media().RaiseFence(f); err != nil {
				t.Fatal(err)
			}
		}
	}
	// No protocol step lowers a fence; the test empties the tables to let
	// the second Sync through.
	lift := func() {
		for _, d := range cl.Disks {
			*d.Media().Fences() = blockstore.Fences{}
		}
	}
	// Rewrite in place, so the size owes nothing: block 1 goes out alone,
	// blocks 2 and 3 in one DiskWriteV.
	if b := inode(t, cl, "/f").Map.AppendRefs(nil); b[1].Disk == b[2].Disk || b[2].Disk != b[3].Disk {
		t.Fatalf("setup: blocks on disks %v, want block 1 alone and blocks 2 and 3 together", b)
	}
	fence()
	for _, idx := range []uint64{1, 2, 3} {
		if errno := cl.Write(0, h, idx, block('X')); errno != msg.OK {
			t.Fatal(errno)
		}
	}
	cache := sub.Cache()
	if errno := cl.Sync(0); errno != msg.ErrFenced {
		t.Fatalf("Sync against disks that refuse the writer returned %v, want ErrFenced", errno)
	}
	if n := cache.TotalDirty(); n != 3 {
		t.Fatalf("%d pages dirty after the refused Sync, want 3", n)
	}
	lift()
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	if n := cache.TotalDirty(); n != 0 {
		t.Fatalf("%d pages dirty after the Sync that went through", n)
	}
	hr, _ := cl.MustOpen(1, "/f", false, false)
	for _, idx := range []uint64{1, 2, 3} {
		if data, errno := cl.Read(1, hr, idx); errno != msg.OK || !bytes.Equal(data, block('X')) {
			t.Fatalf("block %d read back by another client: %v", idx, errno)
		}
	}
	noViolations(t, cl)
}

// TestWriterSeesItsOwnSize: between settle points the server's size lags
// the writer's, and every reply that carries it — Stat, a second Open —
// must not take the writer's own size backwards: the trim computes the
// blocks to keep from it. Another client sees the last settled size.
func TestWriterSeesItsOwnSize(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	sc := cl.SyncClient(0)
	h, attr := cl.MustOpen(0, "/f", true, true)
	appendBlocks(t, cl, 0, h, 0, 5)
	if a, err := sc.Stat(attr.Ino); err != nil || a.Size != 5*BlockSize {
		t.Fatalf("the writer's Stat: size %d, %v; want its own %d", a.Size, err, 5*BlockSize)
	}
	if a, err := cl.SyncClient(1).Stat(attr.Ino); err != nil || a.Size != 0 {
		t.Fatalf("another client's Stat: size %d, %v; want the last settled size, 0", a.Size, err)
	}
	hr, again := cl.MustOpen(0, "/f", false, false)
	if again.Size != 5*BlockSize {
		t.Fatalf("a second Open on the writer reports size %d", again.Size)
	}
	if errno := cl.Close(0, h); errno != msg.OK { // the last write handle: settles and trims
		t.Fatal(errno)
	}
	if in := inode(t, cl, "/f"); in.Size != 5*BlockSize || in.Map.Len() != 5 {
		t.Fatalf("after Close the server has size %d and %d blocks, want %d and 5", in.Size, in.Map.Len(), 5*BlockSize)
	}
	h1, _ := cl.MustOpen(1, "/f", false, false)
	for idx := uint64(0); idx < 5; idx++ {
		if data, errno := cl.Read(1, h1, idx); errno != msg.OK || !bytes.Equal(data, block(byte('a'+idx))) {
			t.Fatalf("block %d read back by another client: %v", idx, errno)
		}
	}
	cl.Close(0, hr)
	noViolations(t, cl)
}

// TestTrimGivesBackWhatWasGrantedAhead: wherever the exclusive lock is
// given up — on demand, on release — and when the last write handle is
// closed, the inode is left with exactly the blocks its size covers, and
// the allocator with no others.
func TestTrimGivesBackWhatWasGrantedAhead(t *testing.T) {
	for name, giveUp := range map[string]func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID){
		"demand": func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			hr, _ := cl.MustOpen(1, "/log", false, false)
			if data, errno := cl.Read(1, hr, 9); errno != msg.OK || !bytes.Equal(data, block('a'+9)) {
				t.Fatalf("the reader that demanded the lock: %v", errno)
			}
		},
		"release": func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if err := cl.SyncClient(0).ReleaseLock(ino); err != nil {
				t.Fatal(err)
			}
		},
		"close": func(t *testing.T, cl *Cluster, h msg.Handle, ino msg.ObjectID) {
			if errno := cl.Close(0, h); errno != msg.OK {
				t.Fatal(errno)
			}
		},
	} {
		t.Run(name, func(t *testing.T) {
			cl := New(DefaultOptions())
			cl.Start()
			h, attr := cl.MustOpen(0, "/log", true, true)
			appendBlocks(t, cl, 0, h, 0, 10)
			if in := inode(t, cl, "/log"); in.Map.Len() != 16 {
				t.Fatalf("10 appends left %d blocks on the inode, want a run ahead to 16", in.Map.Len())
			}
			giveUp(t, cl, h, attr.Ino)
			in := inode(t, cl, "/log")
			if in.Size != 10*BlockSize || in.Map.Len() != 10 {
				t.Fatalf("after the trim: size %d, %d blocks; want %d, 10", in.Size, in.Map.Len(), 10*BlockSize)
			}
			if n := cl.Shards[0].Server.Store().Allocator().InUse(); n != 10 {
				t.Fatalf("allocator holds %d blocks, the only file has 10", n)
			}
			cl.Sync(0)
			noViolations(t, cl)
		})
	}
}

// TestNoTrimWhenMapFitsFile: a handoff of a file that was not extended
// costs no Truncate — the demand's compliance is the flush and the
// downgrade, as it was.
func TestNoTrimWhenMapFitsFile(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	if errno := cl.Write(0, h0, 3, block('x')); errno != msg.OK { // one allocation of 4
		t.Fatal(errno)
	}
	h1, _ := cl.MustOpen(1, "/f", true, false)
	if _, errno := cl.Read(1, h1, 3); errno != msg.OK {
		t.Fatal(errno)
	}
	version := inode(t, cl, "/f").Version
	for i := 0; i < 4; i++ {
		w, r, hw, hr := i%2, 1-i%2, h0, h1
		if w == 1 {
			hw, hr = h1, h0
		}
		if errno := cl.Write(w, hw, 3, block(byte('0'+i))); errno != msg.OK {
			t.Fatal(errno)
		}
		if data, errno := cl.Read(r, hr, 3); errno != msg.OK || data[0] != byte('0'+i) {
			t.Fatalf("handoff %d: %v", i, errno)
		}
	}
	if in := inode(t, cl, "/f"); in.Version != version || in.Map.Len() != 4 {
		t.Fatalf("handoffs of an unextended file changed the inode: version %d → %d, %d blocks",
			version, in.Version, in.Map.Len())
	}
}

// TestPartitionedAppenderKeepsItsTail: a writer is cut off the control
// network in the middle of an append. What it goes on to write lands, in
// its phase-4 flush, in blocks the server granted ahead — so they have to
// be the inode's still when the lock is stolen, and stay the inode's when
// a later holder, whose idea of the size is the server's and so misses
// the pushes the partition swallowed, trims.
func TestPartitionedAppenderKeepsItsTail(t *testing.T) {
	opts := DefaultOptions()
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/log", true, true)
	appendBlocks(t, cl, 0, h0, 0, 10) // the inode now has 16 blocks
	cl.Sync(0)
	cl.IsolateClient(0)
	// The lease is still good and the blocks are granted: these appends
	// complete in the cache without the server.
	appendBlocks(t, cl, 0, h0, 10, 14)
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 4 {
		t.Fatal("setup: the isolated writer holds no dirty tail")
	}

	h1, _, errno := cl.Open(1, "/log", true, false)
	if errno != msg.OK {
		t.Fatalf("open on the survivor: %v", errno)
	}
	start := cl.Sched.Now()
	for idx := uint64(0); idx < 14; idx++ {
		data, errno := cl.Read(1, h1, idx)
		if errno != msg.OK || !bytes.Equal(data, block(byte('a'+idx%26))) {
			t.Fatalf("survivor's read of block %d after the steal: %v", idx, errno)
		}
	}
	if waited := cl.Sched.Now().Sub(start); waited < opts.Core.Tau {
		t.Fatalf("lock granted after %v, before the lease could expire", waited)
	}
	in := inode(t, cl, "/log")
	if in.Map.Len() != 16 {
		t.Fatalf("the server trimmed on its own: %d blocks", in.Map.Len())
	}
	if in.Size >= 14*BlockSize {
		t.Fatalf("setup: the size pushes crossed the partition (size %d)", in.Size)
	}

	// The survivor takes the exclusive lock, extends nothing, and gives it
	// up to a third client: its trim must leave the tail alone.
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatal(errno)
	}
	h2, _ := cl.MustOpen(2, "/log", false, false)
	for idx := uint64(10); idx < 14; idx++ {
		data, errno := cl.Read(2, h2, idx)
		if errno != msg.OK || !bytes.Equal(data, block(byte('a'+idx%26))) {
			t.Fatalf("block %d after the survivor gave the lock up: %v", idx, errno)
		}
	}
	noViolations(t, cl)
}

// TestAllocReplayedAcrossRestartRefetchesMap: an AllocBlocks that runs
// twice — the server executed it, restarted without its reply cache, and
// executed the retransmission — leaves the inode with a run the client's
// map does not have. The next reply then starts past the end of that map,
// and the client fetches the map whole instead of splicing.
func TestAllocReplayedAcrossRestartRefetchesMap(t *testing.T) {
	cl := New(DefaultOptions())
	cl.Start()
	h, attr := cl.MustOpen(0, "/f", true, true)
	appendBlocks(t, cl, 0, h, 0, 2)
	cl.Sync(0)

	// The request whose reply client 0 never sees, and its replay.
	send := func() *msg.Reply {
		var got *msg.Reply
		id := ClientID(0)
		cl.Control.Attach(id, func(env msg.Envelope) {
			if r, ok := env.Payload.(*msg.Reply); ok && got == nil {
				got = r
			}
		})
		defer cl.Control.Attach(id, cl.Clients[0].Deliver)
		cl.Control.Send(id, ServerID(0), &msg.AllocBlocks{
			ReqHeader: msg.ReqHeader{Client: id, Req: 1 << 20, Epoch: cl.Clients[0].Sub(0).Epoch()},
			Ino:       attr.Ino, Count: 1,
		})
		cl.RunFor(100 * time.Millisecond)
		return got
	}
	first := send()
	if first == nil || first.Err != msg.OK || first.Body.(msg.AllocRes).First != 2 {
		t.Fatalf("the first execution: %+v", first)
	}
	cl.CrashServer(0)
	cl.RunFor(time.Second)
	cl.RestartServer(0)
	// Any request gets the NACK that makes a client reassert its locks
	// and take a new epoch from the restarted server.
	old := cl.Clients[0].Sub(0).Epoch()
	for i := range cl.Clients {
		probe(cl, i)
	}
	cl.RunFor(time.Second)
	if cl.Clients[0].Sub(0).Epoch() == old || cl.Clients[0].Sub(0).Cache().Object(attr.Ino) == nil {
		t.Fatalf("setup: client 0 did not reassert (epoch %d → %d)", old, cl.Clients[0].Sub(0).Epoch())
	}
	// An allocation moves the file's version, which its directory's lock
	// covers: the restarted server runs it once the grace window is over.
	cl.RunFor(cl.Opts.Core.StealDelay())
	second := send()
	if second == nil || second.Err != msg.OK || second.Body.(msg.AllocRes).First != 4 {
		t.Fatalf("the replay against the restarted server did not run again: %+v", second)
	}

	// The client's map still ends at 2; the server's at 6.
	if n := cl.Clients[0].Sub(0).Cache().Object(attr.Ino).Map.Len(); n != 2 {
		t.Fatalf("setup: client map has %d blocks", n)
	}
	appendBlocks(t, cl, 0, h, 2, 8)
	cl.Sync(0)
	in := inode(t, cl, "/f")
	o := cl.Clients[0].Sub(0).Cache().Object(attr.Ino)
	if !slices.Equal(o.Map, in.Map) {
		t.Fatalf("client map %v, the inode's %v", o.Map, in.Map)
	}
	cl.RunFor(cl.Opts.Core.StealDelay()) // past the grace window
	h1, _ := cl.MustOpen(1, "/f", false, false)
	for idx := uint64(0); idx < 8; idx++ {
		data, errno := cl.Read(1, h1, idx)
		if errno != msg.OK || !bytes.Equal(data, block(byte('a'+idx%26))) {
			t.Fatalf("second client's read of block %d: %v", idx, errno)
		}
	}
	noViolations(t, cl)
}
