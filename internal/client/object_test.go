package client_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/cluster"
	"repro/internal/msg"
)

// An object demanded away leaves nothing behind: once another client has
// taken a file and the holder has complied, the holder keeps no record of
// it — no lock, no demand count, nothing in flight. Client 0 writes and
// syncs 200 files; client 1 writes each one, which demands client 0's
// lock away. Client 0 then keeps records only for what it still holds.
func TestDemandedAwayLeavesNoRecord(t *testing.T) {
	const files = 200
	opts := cluster.DefaultOptions()
	opts.NoChecker = true
	cl := cluster.New(opts)
	cl.Start()
	data := make([]byte, cluster.BlockSize)
	paths := make([]string, files)
	for i := range paths {
		paths[i] = fmt.Sprintf("/f%03d", i)
		h, _ := cl.MustOpen(0, paths[i], true, true)
		if e := cl.Write(0, h, 0, data); e != msg.OK {
			t.Fatalf("client 0 writes %s: %v", paths[i], e)
		}
		if e := cl.Close(0, h); e != msg.OK {
			t.Fatalf("client 0 closes %s: %v", paths[i], e)
		}
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("client 0 syncs: %v", e)
	}
	c0 := cl.Clients[0].Sub(0)
	if c0.LocksHeld() < files {
		t.Fatalf("setup: client 0 holds %d locks after writing %d files", c0.LocksHeld(), files)
	}
	for _, p := range paths {
		h, _ := cl.MustOpen(1, p, true, false)
		if e := cl.Write(1, h, 0, data); e != msg.OK {
			t.Fatalf("client 1 writes %s: %v", p, e)
		}
		if e := cl.Close(1, h); e != msg.OK {
			t.Fatalf("client 1 closes %s: %v", p, e)
		}
	}
	cl.RunFor(opts.Core.Tau / 10)
	if held, kept := c0.LocksHeld(), c0.Records(); kept != held {
		t.Fatalf("client 0 holds %d locks and keeps %d records: what was demanded away left state behind", held, kept)
	}
	if err := c0.AtRest(); err != nil {
		t.Fatal(err)
	}
}

// A lock acquire holds its object's record while it is in flight. A
// grant that a demand crossed is refused even after the demand's
// compliance has been acknowledged — when nothing else would keep the
// record — and a grant nothing crossed is installed in the live record
// even when the last handle closed under it.
func TestAcquireHoldsItsRecord(t *testing.T) {
	for _, tc := range []struct {
		name    string
		between func(cl *cluster.Cluster, h msg.Handle) // while the grant is held back
		want    byte                                    // what client 0's read returns
	}{
		{"crossed by a demand", func(cl *cluster.Cluster, _ msg.Handle) {
			h1, _ := cl.MustOpen(1, "/f", true, false)
			if e := cl.Write(1, h1, 0, bytes.Repeat([]byte{'b'}, cluster.BlockSize)); e != msg.OK {
				t.Fatalf("client 1 writes: %v", e)
			}
		}, 'b'},
		{"last close", func(cl *cluster.Cluster, h msg.Handle) {
			if e := cl.Close(0, h); e != msg.OK {
				t.Fatalf("client 0 closes: %v", e)
			}
		}, 'a'},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cl := cluster.New(cluster.DefaultOptions())
			cl.Start()
			populate, attr := cl.MustOpen(1, "/f", true, true)
			if e := cl.Write(1, populate, 0, bytes.Repeat([]byte{'a'}, cluster.BlockSize)); e != msg.OK {
				t.Fatal(e)
			}
			if e := cl.Close(1, populate); e != msg.OK {
				t.Fatal(e)
			}
			if err := cl.SyncClient(1).ReleaseLock(attr.Ino); err != nil {
				t.Fatal(err)
			}
			h, _ := cl.MustOpen(0, "/f", false, false)
			deliver := holdReply(cl, 0, func(b msg.Result) bool { _, ok := b.(msg.LockRes); return ok })
			var got []byte
			errno := msg.ErrStale
			done := false
			cl.Clients[0].Read(h, 0, func(d []byte, e msg.Errno) { got, errno, done = d, e, true })
			cl.RunFor(50 * time.Millisecond)
			tc.between(cl, h)
			c0 := cl.Clients[0].Sub(0)
			if done {
				t.Fatal("setup: the read did not wait for its grant")
			}
			if c0.Records() != c0.LocksHeld()+1 {
				t.Fatalf("client 0 keeps %d records for %d locks: the acquire in flight does not hold its own",
					c0.Records(), c0.LocksHeld())
			}
			if !deliver() {
				t.Fatal("setup: no grant was held back")
			}
			cl.Sched.RunWhile(func() bool { return !done })
			if errno != msg.OK || len(got) == 0 || got[0] != tc.want {
				t.Fatalf("client 0 reads %.4q… (%v), want %q", got, errno, tc.want)
			}
			if held := c0.HeldMode(attr.Ino); held != msg.LockShared ||
				cl.Shards[0].Server.Locks().Held(cluster.ClientID(0), attr.Ino) != held {
				t.Fatalf("client 0 believes it holds %v, the server records %v", held,
					cl.Shards[0].Server.Locks().Held(cluster.ClientID(0), attr.Ino))
			}
			noViolations(t, cl)
		})
	}
}

// raceOn is set in a build with the race detector (race_on_test.go).
var raceOn bool

// Allocation pins on the data path: a read served from a cached page
// under a held lock and a write into a cached dirty page, each exactly —
// both are one call of their hit function, so the read allocates only the
// copy it hands out and the write nothing (4 each when they ran through
// the callback chain) — the same two through the simulated installation's
// Read and Write, which are calls on its SyncClient and so take the hit
// functions too (6 and 4 when they pumped their own callbacks); one
// writer→reader handoff cycle over the simulated installation, at what it
// measured once a dropped page's header was reused (228 before, 256
// before a flush and a pumped call allocated per batch and per record,
// 314 before a request and a renewal armed no timer); and one append
// cycle — eight writes and a Sync — at what it measured once a flush
// allocated per batch (70 before); and one growing append cycle, eight
// new blocks and a Sync as append_sync runs them, at what it measured
// when it was added. They guard alloc_kb_per_op on scan_cold, append_sync
// and lock_handoff.
func TestDataPathAllocations(t *testing.T) {
	if bufpool.Debug {
		t.Skip("tankdebug hooks allocate by design")
	}
	opts := cluster.DefaultOptions()
	opts.NoChecker = true
	cl := cluster.New(opts)
	cl.Start()
	data := make([]byte, cluster.BlockSize)
	h0, _ := cl.MustOpen(0, "/hot", true, true)
	if e := cl.Write(0, h0, 0, data); e != msg.OK {
		t.Fatal(e)
	}
	if _, e := cl.Read(0, h0, 0); e != msg.OK {
		t.Fatal(e)
	}
	h1, _ := cl.MustOpen(1, "/hot", true, false)
	c0 := cl.Clients[0].Sub(0)
	hits := cl.Reg.CounterValue("client.n10.cache.hits")
	read := func(d []byte, e msg.Errno) {
		if e != msg.OK || len(d) != cluster.BlockSize {
			t.Errorf("read hit: %d bytes, %v", len(d), e)
		}
	}
	wrote := func(e msg.Errno) {
		if e != msg.OK {
			t.Errorf("write hit: %v", e)
		}
	}
	sent := cl.Reg.CounterValue("client.n10.chan.sent")
	for _, tc := range []struct {
		name string
		want float64
		op   func()
	}{
		{"read hit", 1, func() { c0.Read(h0, 0, read) }},
		{"write hit", 0, func() { c0.Write(h0, 0, data, wrote) }},
		{"cl.Read hit", 1, func() { read(cl.Read(0, h0, 0)) }},
		{"cl.Write hit", 0, func() { wrote(cl.Write(0, h0, 0, data)) }},
	} {
		got := testing.AllocsPerRun(200, tc.op)
		t.Logf("%s: %v allocations", tc.name, got)
		if got != tc.want {
			t.Errorf("%s: %v allocations, want %v", tc.name, got, tc.want)
		}
	}
	if cl.Reg.CounterValue("client.n10.chan.sent") != sent || cl.Reg.CounterValue("client.n10.cache.hits") == hits {
		t.Fatal("the operations measured were not served from the cache under the held lock")
	}

	handoff := func() {
		for w := 0; w < 2; w++ {
			hw, hr := h0, h1
			if w == 1 {
				hw, hr = h1, h0
			}
			if e := cl.Write(w, hw, 0, data); e != msg.OK {
				t.Fatalf("client %d writes: %v", w, e)
			}
			if _, e := cl.Read(1-w, hr, 0); e != msg.OK {
				t.Fatalf("client %d reads: %v", 1-w, e)
			}
		}
	}
	if raceOn {
		t.Skip("the handoff cycle's count is not repeatable under the race detector")
	}
	handoff()
	demands := cl.Reg.CounterValue("server.demands_sent")
	const maxHandoff = 226
	got := testing.AllocsPerRun(50, handoff)
	t.Logf("handoff cycle: %v allocations", got)
	if got > maxHandoff {
		t.Errorf("handoff cycle: %v allocations, want at most %v", got, maxHandoff)
	}
	// AllocsPerRun runs the cycle once more than it measures.
	if n := cl.Reg.CounterValue("server.demands_sent") - demands; n < 4*51 {
		t.Fatalf("the handoff cycles made %d demands, want at least 4 a cycle", n)
	}

	// The append cycle: eight blocks written, then a Sync that flushes
	// them as one vectored write.
	ha, _ := cl.MustOpen(0, "/append", true, true)
	appendCycle := func() {
		for idx := uint64(0); idx < 8; idx++ {
			if e := cl.Write(0, ha, idx, data); e != msg.OK {
				t.Fatalf("write %d: %v", idx, e)
			}
		}
		if e := cl.Sync(0); e != msg.OK {
			t.Fatalf("sync: %v", e)
		}
	}
	batched := func() (n uint64) {
		for _, d := range cl.Disks {
			n += cl.Reg.CounterValue(fmt.Sprintf("disk.%v.batched_blocks", d.ID()))
		}
		return n
	}
	appendCycle()
	blocks := batched()
	const maxAppend = 46
	got = testing.AllocsPerRun(50, appendCycle)
	t.Logf("append cycle: %v allocations", got)
	if got > maxAppend {
		t.Errorf("append cycle: %v allocations, want at most %v", got, maxAppend)
	}
	if n := batched() - blocks; n != 8*51 {
		t.Fatalf("the append cycles wrote %d blocks in batches, want 8 a cycle", n)
	}

	// The growing append cycle is append_sync's: eight blocks past the end
	// of the file, then a Sync. Each cycle fills new pages, and once the
	// file has 64 blocks every eighth one waits for a grant of 64 more
	// (meta.MaxGrantAhead). Sixteen cycles bring the file to 128 blocks;
	// the 64 measured cycles, and the one AllocsPerRun runs first, take
	// nine grants.
	hg, attr := cl.MustOpen(0, "/grow", true, true)
	var end uint64
	grow := func() {
		for stop := end + 8; end < stop; end++ {
			if e := cl.Write(0, hg, end, data); e != msg.OK {
				t.Fatalf("write %d: %v", end, e)
			}
		}
		if e := cl.Sync(0); e != msg.OK {
			t.Fatalf("sync: %v", e)
		}
	}
	granted := func() int {
		in, e := cl.Shards[0].Store.Get(attr.Ino)
		if e != msg.OK {
			t.Fatal(e)
		}
		return in.Map.Len()
	}
	for i := 0; i < 16; i++ {
		grow()
	}
	before := granted()
	const maxGrow = 54
	got = testing.AllocsPerRun(64, grow)
	t.Logf("growing append cycle: %v allocations", got)
	if got > maxGrow {
		t.Errorf("growing append cycle: %v allocations, want at most %v", got, maxGrow)
	}
	if n := granted() - before; n != 9*64 {
		t.Fatalf("the growing append cycles were granted %d blocks, want nine grants of 64", n)
	}
}
