package shard_test

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
	"repro/internal/trace"
)

// releaseLock looks up path on node i and voluntarily returns its data
// lock — renames (like unlinks) are refused while any client holds a
// lock on the object, so tests release after writing.
func releaseLock(t *testing.T, inst *cluster.Cluster, i int, path string) {
	t.Helper()
	var ino msg.ObjectID
	ok := inst.Await(time.Minute, func(done func()) {
		inst.Clients[i].Lookup(path, func(attr msg.Attr, e msg.Errno) {
			if e != msg.OK {
				t.Fatalf("lookup %s: %v", path, e)
			}
			ino = attr.Ino
			done()
		})
	})
	if !ok {
		t.Fatalf("lookup %s timed out", path)
	}
	sub := inst.Clients[i].Owner(path)
	if sub == nil {
		t.Fatalf("owner(%s): no authority", path)
	}
	if !inst.Await(time.Minute, func(done func()) {
		sub.ReleaseLock(ino, func(e msg.Errno) {
			if e != msg.OK {
				t.Fatalf("release %s: %v", path, e)
			}
			done()
		})
	}) {
		t.Fatalf("release %s timed out", path)
	}
}

// lookupErr resolves path on node i and returns the errno.
func lookupErr(t *testing.T, inst *cluster.Cluster, i int, path string) msg.Errno {
	t.Helper()
	errno := msg.ErrStale
	if !inst.Await(2*time.Minute, func(done func()) {
		inst.Clients[i].Lookup(path, func(_ msg.Attr, e msg.Errno) { errno = e; done() })
	}) {
		t.Fatalf("lookup %s timed out", path)
	}
	return errno
}

// TestCrossShardRenameMovesData is the handoff happy path: a file with
// data on shard 0 renamed into shard 1's namespace migrates — the old
// name stops resolving, the new name serves the same bytes (from the
// file's ORIGINAL disk blocks), and the trace shows the ordered
// handshake: source handoff → destination install → source done.
func TestCrossShardRenameMovesData(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	opts := subtreeOptions()
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()

	h, _ := inst.MustOpen(0, "/s0/file", true, true)
	if errno := inst.Write(0, h, 0, block('M')); errno != msg.OK {
		t.Fatal(errno)
	}
	inst.Sync(0)
	releaseLock(t, inst, 0, "/s0/file")

	if errno := inst.Rename(0, "/s0/file", "/s1/file"); errno != msg.OK {
		t.Fatalf("cross-shard rename: %v", errno)
	}

	if e := lookupErr(t, inst, 1, "/s0/file"); e != msg.ErrNoEnt {
		t.Fatalf("old name still resolves: %v", e)
	}
	rh, _ := inst.MustOpen(1, "/s1/file", false, false)
	if data, errno := inst.Read(1, rh, 0); errno != msg.OK || !bytes.Equal(data, block('M')) {
		t.Fatalf("read at new home: %v", errno)
	}
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}

	// The handshake, in global event order: the source announced the
	// handoff, the destination durably installed, and only then did the
	// source retire its copy (single-owner: the overlap is dual-frozen,
	// never dual-served).
	events := ring.Events()
	src, dst := cluster.ServerID(0), cluster.ServerID(1)
	if n := events.Count(trace.ByNode(src), trace.ByType(trace.EvShardHandoff), trace.ByPeer(dst)); n != 1 {
		t.Fatalf("handoff announced %d times, want 1", n)
	}
	if n := events.Count(trace.ByNode(dst), trace.ByType(trace.EvShardInstall), trace.ByPeer(src)); n != 1 {
		t.Fatalf("installed %d times, want 1", n)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(src), trace.ByType(trace.EvShardHandoff)),
		trace.And(trace.ByNode(dst), trace.ByType(trace.EvShardInstall))); err != nil {
		t.Fatalf("handoff/install ordering: %v", err)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(dst), trace.ByType(trace.EvShardInstall)),
		trace.And(trace.ByNode(src), trace.ByType(trace.EvShardDone))); err != nil {
		t.Fatalf("install/done ordering: %v", err)
	}
	if err := events.None(trace.ByType(trace.EvShardAbort)); err != nil {
		t.Fatalf("unexpected abort: %v", err)
	}
}

// TestCrossShardRenameSameShardStaysLocal: a rename whose source and
// destination live on the same authority is an ordinary local move — no
// handoff traffic at all.
func TestCrossShardRenameSameShardStaysLocal(t *testing.T) {
	ring := trace.NewRing(1 << 12)
	opts := subtreeOptions()
	opts.Tracer = trace.New(ring)
	inst := cluster.New(opts)
	inst.Start()
	inst.MustOpen(0, "/s0/a", true, true)
	if errno := inst.Rename(0, "/s0/a", "/s0/b"); errno != msg.OK {
		t.Fatalf("local rename: %v", errno)
	}
	if err := ring.Events().None(trace.ByType(
		trace.EvShardHandoff, trace.EvShardInstall, trace.EvShardDone, trace.EvShardAbort)); err != nil {
		t.Fatalf("local rename emitted handoff traffic: %v", err)
	}
}

// TestCrossShardRenameLockedRefused: an active lock holder pins the
// object to its shard; the handoff never starts.
func TestCrossShardRenameLockedRefused(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	h, _ := inst.MustOpen(0, "/s0/busy", true, true)
	if errno := inst.Write(0, h, 0, block('B')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := inst.Rename(1, "/s0/busy", "/s1/busy"); errno != msg.ErrConflict {
		t.Fatalf("rename of locked file = %v, want ErrConflict", errno)
	}
}

// TestCrossShardRenameDirRefused: directory subtrees are placed, not
// migrated — single-inode handoff only.
func TestCrossShardRenameDirRefused(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	if !inst.Await(time.Minute, func(done func()) {
		inst.Clients[0].Create("/s0/dir", true, func(_ msg.Attr, e msg.Errno) {
			if e != msg.OK {
				t.Fatalf("mkdir: %v", e)
			}
			done()
		})
	}) {
		t.Fatal("mkdir timed out")
	}
	if errno := inst.Rename(0, "/s0/dir", "/s1/dir"); errno != msg.ErrIsDir {
		t.Fatalf("cross-shard dir rename = %v, want ErrIsDir", errno)
	}
}

// TestCrossShardRenameUnroutableDest: a destination name no authority
// serves fails cleanly; the object stays put.
func TestCrossShardRenameUnroutableDest(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	inst.MustOpen(0, "/s0/f", true, true)
	if errno := inst.Rename(0, "/s0/f", "/limbo/f"); errno != msg.ErrNoEnt {
		t.Fatalf("rename to unroutable dest = %v, want ErrNoEnt", errno)
	}
	if e := lookupErr(t, inst, 0, "/s0/f"); e != msg.OK {
		t.Fatalf("object lost after refused rename: %v", e)
	}
}
