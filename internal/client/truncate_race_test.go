package client_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// slowSAN boots an installation whose disks take 5 ms an operation — far
// slower than the control network — and populates path with 12 blocks
// from client 1, which then gives the lock back: client 0 starts cold and
// nobody has to be asked for the lock.
func slowSAN(t *testing.T, path string, prefetch int) *cluster.Cluster {
	t.Helper()
	opts := cluster.DefaultOptions()
	opts.DiskService = 5 * time.Millisecond
	opts.NoChecker = true // the oracle has no notion of Truncate: a hole reads as version 0
	opts.Prefetch = prefetch
	cl := cluster.New(opts)
	cl.Start()
	populateBlocks(t, cl, 1, path, 12)
	attr, err := cl.SyncClient(1).Lookup(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.SyncClient(1).ReleaseLock(attr.Ino); err != nil {
		t.Fatal(err)
	}
	return cl
}

// mustBeHole fails unless a read of block idx is served as a hole and
// leaves no page behind.
func mustBeHole(t *testing.T, cl *cluster.Cluster, h msg.Handle, ino msg.ObjectID, idx uint64) {
	t.Helper()
	got, e := cl.Read(0, h, idx)
	if e != msg.OK {
		t.Fatalf("read %d past the truncated end: %v", idx, e)
	}
	if !bytes.Equal(got, make([]byte, cluster.BlockSize)) {
		t.Fatalf("block %d past the truncated end read back old content %x…: "+
			"a read that completed across the Truncate re-installed a freed block", idx, got[:8])
	}
	if o := cl.Clients[0].Sub(0).Cache().Object(ino); o != nil && o.Page(idx) != nil {
		t.Fatalf("a page for freed block %d is resident", idx)
	}
}

// A read-ahead batch that completes across a Truncate must not put back
// the pages the Truncate dropped: their blocks have returned to the
// allocator. A demand read parked on that batch gets what a read issued
// after the Truncate gets — a hole.
func TestTruncateAcrossReadAheadInstallsNothingPastTheEnd(t *testing.T) {
	cl := slowSAN(t, "/t", 0)
	c := cl.Clients[0].Sub(0)
	h, attr := cl.MustOpen(0, "/t", true, false)
	for i := uint64(0); i < 2; i++ {
		if _, e := cl.Read(0, h, i); e != msg.OK {
			t.Fatalf("read %d: %v", i, e)
		}
	}
	// Block 3 is on the wire behind block 1 on the same disk: park on it.
	var parked []byte
	parkedErr := msg.ErrStale
	c.Read(h, 3, func(d []byte, e msg.Errno) { parked, parkedErr = d, e })
	if c.ParkedReads() != 1 {
		t.Fatalf("test is vacuous: the read of block 3 did not park (parked=%d, in flight=%d)",
			c.ParkedReads(), c.PrefetchInflight())
	}
	if err := cl.SyncClient(0).Truncate(h, 2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if c.PrefetchInflight() == 0 {
		t.Fatal("test is vacuous: the read-ahead completed before the Truncate did")
	}
	cl.RunFor(100 * time.Millisecond)

	mustBeHole(t, cl, h, attr.Ino, 3)
	mustBeHole(t, cl, h, attr.Ino, 2)
	if parkedErr != msg.OK || !bytes.Equal(parked, make([]byte, cluster.BlockSize)) {
		t.Fatalf("read parked across the Truncate: errno %v, want a hole", parkedErr)
	}
	if c.ParkedReads() != 0 || c.PrefetchInflight() != 0 || c.Inflight() != 0 {
		t.Fatalf("left behind: parked=%d in flight=%d ops=%d", c.ParkedReads(), c.PrefetchInflight(), c.Inflight())
	}
}

// The demand-read twin: a scalar read in flight across the Truncate must
// not Fill the freed block's content back in either.
func TestTruncateAcrossDemandReadInstallsNothingPastTheEnd(t *testing.T) {
	cl := slowSAN(t, "/t", -1)
	c := cl.Clients[0].Sub(0)
	h, attr := cl.MustOpen(0, "/t", true, false)
	if _, e := cl.Read(0, h, 0); e != msg.OK { // lock and map in hand
		t.Fatal(e)
	}
	var got []byte
	gotErr := msg.ErrStale
	c.Read(h, 3, func(d []byte, e msg.Errno) { got, gotErr = d, e })
	if err := cl.SyncClient(0).Truncate(h, 2); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if gotErr == msg.OK {
		t.Fatal("test is vacuous: the read completed before the Truncate did")
	}
	cl.RunFor(100 * time.Millisecond)
	mustBeHole(t, cl, h, attr.Ino, 3)
	if gotErr != msg.OK || !bytes.Equal(got, make([]byte, cluster.BlockSize)) {
		t.Fatalf("read in flight across the Truncate: errno %v, want a hole", gotErr)
	}
	if c.Inflight() != 0 {
		t.Fatalf("%d operations left in flight", c.Inflight())
	}
}
