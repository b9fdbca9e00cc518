package client_test

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/msg"
)

// The hit functions behind SyncClient (and at the head of Client.Read,
// Write, Lookup, Stat and Readdir) serve from the cache only under every
// check the callback path makes. Each test below fails with its check
// taken out of the hit function.

func fill(b byte) []byte { return bytes.Repeat([]byte{b}, cluster.BlockSize) }

// A ReadAt while the lease does not admit operations — quiescing in phase
// 3, then expired — fails with ErrStale and hands out none of the cached
// bytes, although the page and the lock are still there in phase 3.
func TestReadHitRefusedOutsideTheLease(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	h, _ := cl.MustOpen(0, "/f", true, true)
	if e := cl.Write(0, h, 0, fill('a')); e != msg.OK {
		t.Fatal(e)
	}
	sc := cl.SyncClient(0)
	if d, err := sc.ReadAt(h, 0); err != nil || d[0] != 'a' {
		t.Fatalf("setup: read %.4q… (%v)", d, err)
	}
	c0 := cl.Clients[0].Sub(0)
	hits := cl.Reg.Counter("client.n10.cache.hits")
	cl.IsolateClient(0)
	deadline := cl.Sched.Now().Add(time.Minute)
	for _, phase := range []struct {
		name string
		in   func() bool
	}{
		{"quiescing", c0.Quiesced},
		{"expired", func() bool { return !c0.Registered() }},
	} {
		cl.Sched.RunWhile(func() bool { return !phase.in() && cl.Sched.Now().Before(deadline) })
		if !phase.in() {
			t.Fatalf("the isolated client never started %s", phase.name)
		}
		before := hits.Value()
		d, err := sc.ReadAt(h, 0)
		if !errors.Is(err, msg.ErrStale) || d != nil {
			t.Fatalf("%s: read %d bytes (%v), want none and ErrStale", phase.name, len(d), err)
		}
		if hits.Value() != before {
			t.Fatalf("%s: the refused read was served from the cache", phase.name)
		}
	}
}

// A WriteAt that arrives while a demand's compliance is between its flush
// and its report waits behind the downgrade: it dirties nothing while the
// flush is on its way, the reader that demanded the lock reads what was
// written before, and the write lands after.
func TestWriteHitWaitsBehindADowngrade(t *testing.T) {
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	h0, attr := cl.MustOpen(0, "/f", true, true)
	if e := cl.Write(0, h0, 0, fill('a')); e != msg.OK {
		t.Fatal(e)
	}
	h1, _ := cl.MustOpen(1, "/f", false, false)
	var read []byte
	readDone := false
	cl.Clients[1].Read(h1, 0, func(d []byte, e msg.Errno) {
		if e != msg.OK {
			t.Errorf("client 1 reads: %v", e)
		}
		read, readDone = d, true
	})
	c0 := cl.Clients[0].Sub(0)
	deadline := cl.Sched.Now().Add(time.Minute)
	cl.Sched.RunWhile(func() bool { return !c0.Downgrading(attr.Ino) && cl.Sched.Now().Before(deadline) })
	if !c0.Downgrading(attr.Ino) || readDone {
		t.Fatal("setup: client 0 is not complying with client 1's demand")
	}
	// Runs inside the pump of the WriteAt below, at the first event.
	probed, cached := false, byte(0)
	cl.Sched.After(0, func() {
		probed = true
		if p := c0.Cache().Object(attr.Ino).Page(0); p != nil {
			cached = p.Bytes()[0]
		}
	})
	if err := cl.SyncClient(0).WriteAt(h0, 0, fill('b')); err != nil {
		t.Fatalf("client 0 writes: %v", err)
	}
	if !probed || cached != 'a' {
		t.Fatalf("while the downgrade was in flight client 0's page held %q (probed %v), want 'a'", cached, probed)
	}
	cl.Sched.RunWhile(func() bool { return !readDone })
	if len(read) == 0 || read[0] != 'a' {
		t.Fatalf("client 1 read %.4q…, want what client 0 wrote before the demand", read)
	}
	if d, e := cl.Read(0, h0, 0); e != msg.OK || d[0] != 'b' {
		t.Fatalf("client 0 reads back %.4q… (%v)", d, e)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	noViolations(t, cl)
}

// Under the V baseline a lock whose object lease has lapsed may have been
// stolen: a ReadAt asks for the lock again instead of serving the page, and
// the grant renews the object lease, so the next ReadAt is a hit again.
func TestReadHitReacquiresALapsedObjectLease(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Policy = baselines.VSystem()
	cl := cluster.New(opts)
	cl.Start()
	h, attr := cl.MustOpen(0, "/f", true, true)
	if e := cl.Write(0, h, 0, fill('a')); e != msg.OK {
		t.Fatal(e)
	}
	sc := cl.SyncClient(0)
	sent := cl.Reg.Counter("client.n10.chan.sent")
	read := func() uint64 {
		t.Helper()
		before := sent.Value()
		d, err := sc.ReadAt(h, 0)
		if err != nil || d[0] != 'a' {
			t.Fatalf("read %.4q… (%v)", d, err)
		}
		return sent.Value() - before
	}
	if n := read(); n != 0 {
		t.Fatalf("setup: a read under a live object lease sent %d requests", n)
	}
	cl.Clients[0].Sub(0).LapseObjectLease(attr.Ino)
	if n := read(); n == 0 {
		t.Fatal("a read under a lapsed object lease was served without asking for the lock")
	}
	if n := read(); n != 0 {
		t.Fatalf("the read after the re-acquire sent %d requests", n)
	}
	if e := cl.Sync(0); e != msg.OK {
		t.Fatal(e)
	}
	noViolations(t, cl)
}
