package client_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// Direct client-behaviour tests over the simulated installation.

func boot(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	return cl
}

func TestOpsRefusedBeforeRegistration(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	// No Start(): clients are unregistered.
	errno := msg.OK
	cl.Clients[0].Lookup("/x", func(_ msg.Attr, e msg.Errno) { errno = e })
	if errno != msg.ErrStale {
		t.Fatalf("pre-registration op errno = %v, want ErrStale", errno)
	}
	if cl.Reg.CounterValue("client.n10.ops_refused") != 1 {
		t.Fatal("refusal not counted")
	}
}

func TestBadHandleErrors(t *testing.T) {
	cl := boot(t)
	var errno msg.Errno
	done := false
	cl.Clients[0].Read(999, 0, func(_ []byte, e msg.Errno) { errno = e; done = true })
	if !done || errno != msg.ErrBadHandle {
		t.Fatalf("read bad handle = %v", errno)
	}
	done = false
	cl.Clients[0].Write(999, 0, nil, func(e msg.Errno) { errno = e; done = true })
	if !done || errno != msg.ErrBadHandle {
		t.Fatalf("write bad handle = %v", errno)
	}
	done = false
	cl.Clients[0].Close(999, func(e msg.Errno) { errno = e; done = true })
	if !done || errno != msg.ErrBadHandle {
		t.Fatalf("close bad handle = %v", errno)
	}
}

func TestWriteThroughReadOnlyHandleRefused(t *testing.T) {
	cl := boot(t)
	cl.MustOpen(0, "/ro", true, true)
	h, _, errno := cl.Open(0, "/ro", false, false) // read-only open
	if errno != msg.OK {
		t.Fatal(errno)
	}
	if e := cl.Write(0, h, 0, []byte("x")); e != msg.ErrNotHolder {
		t.Fatalf("write through RO handle = %v, want ErrNotHolder", e)
	}
}

func TestOversizedWriteRefused(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/f", true, true)
	if e := cl.Write(0, h, 0, make([]byte, cluster.BlockSize+1)); e != msg.ErrRange {
		t.Fatalf("oversized write = %v, want ErrRange", e)
	}
}

func TestOpenCreateRace(t *testing.T) {
	cl := boot(t)
	// Both clients open-create the same path concurrently; both must end
	// up with valid handles on the SAME inode.
	var a1, a2 msg.Attr
	n := 0
	cl.Clients[0].Open("/race", true, true, func(_ msg.Handle, a msg.Attr, e msg.Errno) {
		if e != msg.OK {
			t.Errorf("open 0: %v", e)
		}
		a1 = a
		n++
	})
	cl.Clients[1].Open("/race", true, true, func(_ msg.Handle, a msg.Attr, e msg.Errno) {
		if e != msg.OK {
			t.Errorf("open 1: %v", e)
		}
		a2 = a
		n++
	})
	cl.Sched.RunWhile(func() bool { return n < 2 })
	if a1.Ino == 0 || a1.Ino != a2.Ino {
		t.Fatalf("race produced inos %v and %v", a1.Ino, a2.Ino)
	}
}

func TestLockCachingMakesRepeatOpsFree(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/hot", true, true)
	if e := cl.Write(0, h, 0, make([]byte, 64)); e != msg.OK {
		t.Fatal(e)
	}
	sent0 := cl.Reg.CounterValue("client.n10.chan.sent")
	// 50 more writes and reads of the same block: lock cached, map
	// cached, page cached — zero control messages.
	for i := 0; i < 50; i++ {
		if e := cl.Write(0, h, 0, make([]byte, 64)); e != msg.OK {
			t.Fatal(e)
		}
		if _, e := cl.Read(0, h, 0); e != msg.OK {
			t.Fatal(e)
		}
	}
	if got := cl.Reg.CounterValue("client.n10.chan.sent"); got != sent0 {
		t.Fatalf("hot path sent %d control messages", got-sent0)
	}
}

func TestReleaseLockDropsState(t *testing.T) {
	cl := boot(t)
	h, attr := cl.MustOpen(0, "/rel", true, true)
	if e := cl.Write(0, h, 0, []byte("data")); e != msg.OK {
		t.Fatal(e)
	}
	done := false
	var errno msg.Errno
	cl.Clients[0].Sub(0).ReleaseLock(attr.Ino, func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatalf("release: %v", errno)
	}
	if cl.Clients[0].Sub(0).Cache().Object(attr.Ino) != nil {
		t.Fatal("cache object survived release")
	}
	if cl.Shards[0].Server.Locks().Held(cluster.ClientID(0), attr.Ino) != msg.LockNone {
		t.Fatal("server still records the lock")
	}
	// The dirty write was flushed (not lost) before release.
	data, e := cl.Read(1, mustOpen(t, cl, 1, "/rel"), 0)
	if e != msg.OK || string(data[:4]) != "data" {
		t.Fatalf("post-release read: %v %q", e, data[:4])
	}
}

func mustOpen(t *testing.T, cl *cluster.Cluster, i int, path string) msg.Handle {
	t.Helper()
	h, _, errno := cl.Open(i, path, false, false)
	if errno != msg.OK {
		t.Fatalf("open %s: %v", path, errno)
	}
	return h
}

func TestQuiescedClientRefusesNewOps(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/q", true, true)
	cl.Write(0, h, 0, []byte("x"))
	cl.IsolateClient(0)
	// Run into phase 3 (quiesce begins at 0.70τ).
	cl.RunFor(8 * time.Second)
	if !cl.Clients[0].Sub(0).Quiesced() {
		t.Fatalf("client not quiesced (phase %v)", cl.Clients[0].Sub(0).Lease().Phase())
	}
	errno := msg.OK
	cl.Clients[0].Read(h, 0, func(_ []byte, e msg.Errno) { errno = e })
	if errno != msg.ErrStale {
		t.Fatalf("quiesced read = %v, want ErrStale", errno)
	}
}

func TestSyncIdempotent(t *testing.T) {
	cl := boot(t)
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("sync with clean cache: %v", e)
	}
	h, _ := cl.MustOpen(0, "/s", true, true)
	cl.Write(0, h, 0, []byte("x"))
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatalf("second sync: %v", e)
	}
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 0 {
		t.Fatal("dirty after sync")
	}
}

func TestInflightGaugeReturnsToZero(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/g", true, true)
	for i := 0; i < 5; i++ {
		cl.Clients[0].Write(h, uint64(i), make([]byte, 8), func(msg.Errno) {})
	}
	cl.RunFor(2 * time.Second)
	if n := cl.Clients[0].Sub(0).Inflight(); n != 0 {
		t.Fatalf("inflight = %d after drain", n)
	}
}

func TestEpochAdvancesAcrossRecovery(t *testing.T) {
	cl := boot(t)
	e1 := cl.Clients[0].Sub(0).Epoch()
	h, _ := cl.MustOpen(0, "/e", true, true)
	cl.Write(0, h, 0, []byte("x"))
	cl.IsolateClient(0)
	// Force the full expiry (survivor contention not needed).
	cl.RunFor(12 * time.Second)
	cl.HealControl()
	cl.RunFor(5 * time.Second)
	if !cl.Clients[0].Registered() {
		t.Fatal("client did not rejoin")
	}
	if e2 := cl.Clients[0].Sub(0).Epoch(); e2 <= e1 {
		t.Fatalf("epoch did not advance: %d -> %d", e1, e2)
	}
	// The old handle is dead after recovery.
	if _, e := cl.Read(0, h, 0); e == msg.OK {
		t.Fatal("pre-recovery handle still works")
	}
}

func TestPeriodicWriteBack(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.FlushInterval = 500 * time.Millisecond
	cl := cluster.New(opts)
	cl.Start()
	h, _ := cl.MustOpen(0, "/wb", true, true)
	if e := cl.Write(0, h, 0, []byte("periodic")); e != msg.OK {
		t.Fatal(e)
	}
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 1 {
		t.Fatal("setup: not dirty")
	}
	// No Sync, no demand: the background flush alone must clean the page.
	cl.RunFor(2 * time.Second)
	if cl.Clients[0].Sub(0).Cache().TotalDirty() != 0 {
		t.Fatal("periodic write-back did not flush")
	}
	// The page is still cached (clean), not dropped.
	obj := cl.Clients[0].Sub(0).Cache().Object(2)
	if obj == nil || obj.Page(0) == nil || obj.Page(0).Dirty {
		t.Fatal("flushed page missing or still dirty")
	}
}

func TestUnlinkFlow(t *testing.T) {
	cl := boot(t)
	done := false
	var errno msg.Errno
	cl.Clients[0].Create("/gone", false, func(_ msg.Attr, e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatal(errno)
	}
	done = false
	cl.Clients[0].Unlink("/gone", func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatalf("unlink: %v", errno)
	}
	done = false
	cl.Clients[0].Lookup("/gone", func(_ msg.Attr, e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.ErrNoEnt {
		t.Fatalf("lookup after unlink = %v, want ErrNoEnt", errno)
	}
}

func TestReaddirThroughClient(t *testing.T) {
	cl := boot(t)
	cl.MustOpen(0, "/lsfile", true, true)
	var entries []msg.DirEntry
	done := false
	cl.Clients[0].Sub(0).Readdir(1, func(es []msg.DirEntry, e msg.Errno) { entries = es; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	found := false
	for _, e := range entries {
		if e.Name == "lsfile" {
			found = true
		}
	}
	if !found {
		t.Fatalf("readdir missing file: %v", entries)
	}
}

func TestRenameFlow(t *testing.T) {
	cl := boot(t)
	cl.MustOpen(0, "/old", true, true)
	// Rename is refused while the creator's exclusive lock stands... but
	// Open alone takes no data lock, so this rename goes through.
	done := false
	var errno msg.Errno
	cl.Clients[0].Rename("/old", "/new", func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatalf("rename: %v", errno)
	}
	done = false
	cl.Clients[0].Lookup("/new", func(_ msg.Attr, e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatal("renamed file not found")
	}
	done = false
	cl.Clients[0].Lookup("/old", func(_ msg.Attr, e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.ErrNoEnt {
		t.Fatal("old name still resolves")
	}
}

func TestRenameLockedRefused(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/busy", true, true)
	if e := cl.Write(0, h, 0, []byte("x")); e != msg.OK {
		t.Fatal(e)
	}
	done := false
	var errno msg.Errno
	cl.Clients[1].Rename("/busy", "/elsewhere", func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.ErrConflict {
		t.Fatalf("rename of locked file = %v, want ErrConflict", errno)
	}
}

func TestTruncateFlow(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(0, "/trunc", true, true)
	for i := uint64(0); i < 4; i++ {
		if e := cl.Write(0, h, i, []byte{byte('a' + i)}); e != msg.OK {
			t.Fatal(e)
		}
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	done := false
	var errno msg.Errno
	cl.Clients[0].Truncate(h, 2, func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.OK {
		t.Fatalf("truncate: %v", errno)
	}
	// Reads past the cut see zeros (the pages and blocks are gone).
	data, e := cl.Read(0, h, 3)
	if e != msg.OK || data[0] != 0 {
		t.Fatalf("post-truncate read: %v %q", e, data[0])
	}
	// Reads below the cut still see the data.
	data, e = cl.Read(0, h, 1)
	if e != msg.OK || data[0] != 'b' {
		t.Fatalf("kept block read: %v %q", e, data[0])
	}
	// Server-side blocks freed.
	in, _ := cl.Shards[0].Server.Store().Lookup("/trunc")
	if in.Map.Len() != 2 {
		t.Fatalf("server block map = %d blocks", in.Map.Len())
	}
	// Truncate through a read-only handle is refused.
	hr, _, _ := cl.Open(1, "/trunc", false, false)
	done = false
	cl.Clients[1].Truncate(hr, 0, func(e msg.Errno) { errno = e; done = true })
	cl.Sched.RunWhile(func() bool { return !done })
	if errno != msg.ErrNotHolder {
		t.Fatalf("RO truncate = %v, want ErrNotHolder", errno)
	}
}

func TestTruncateContendedRefused(t *testing.T) {
	cl := boot(t)
	h0, _ := cl.MustOpen(0, "/shared-trunc", true, true)
	if e := cl.Write(0, h0, 0, []byte("x")); e != msg.OK {
		t.Fatal(e)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	// Reader takes a shared lock.
	h1, _, _ := cl.Open(1, "/shared-trunc", false, false)
	if _, e := cl.Read(1, h1, 0); e != msg.OK {
		t.Fatal(e)
	}
	// Writer 0 (now downgraded to shared) truncates: ensureLock upgrades
	// to exclusive first (demanding the reader away), so it succeeds.
	done := false
	var errno msg.Errno
	cl.Clients[0].Truncate(h0, 0, func(e msg.Errno) { errno = e; done = true })
	deadline := cl.Sched.Now().Add(30 * time.Second)
	cl.Sched.RunWhile(func() bool { return !done && !cl.Sched.Now().After(deadline) })
	if !done || errno != msg.OK {
		t.Fatalf("contended truncate: done=%v errno=%v", done, errno)
	}
}

func TestCachePressureRefetchesFromSAN(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.CacheMaxPages = 4
	cl := cluster.New(opts)
	cl.Start()
	h, _ := cl.MustOpen(0, "/pressure", true, true)
	for i := uint64(0); i < 8; i++ {
		if e := cl.Write(0, h, i, []byte{byte('a' + i)}); e != msg.OK {
			t.Fatal(e)
		}
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	// Eight pages were written but only four fit; the rest were evicted
	// after the flush. Every read must still return the right data
	// (refetched from the SAN), and evictions must have happened.
	for i := uint64(0); i < 8; i++ {
		data, e := cl.Read(0, h, i)
		if e != msg.OK || data[0] != byte('a'+i) {
			t.Fatalf("read %d: %v %q", i, e, data[0])
		}
	}
	if cl.Reg.CounterValue("client.n10.cache.evictions") == 0 {
		t.Fatal("no evictions under pressure")
	}
	if got := cl.Clients[0].Sub(0).Cache().ResidentPages(); got > 4 {
		t.Fatalf("resident pages = %d > capacity", got)
	}
	cl.FinalCheck()
	if len(cl.Violations()) != 0 {
		t.Fatalf("violations: %v", cl.Violations())
	}
}
