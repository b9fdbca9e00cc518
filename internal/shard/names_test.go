package shard_test

import (
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/msg"
)

// TestNamesPerAuthority: a node caches names per lease authority, as it
// holds leases per authority. A rename across shards takes the old
// directory's lock from everybody at the source and the new directory's
// at the destination, each on its own authority: the watching node's two
// instances each lose one directory, and then see the file where it went.
func TestNamesPerAuthority(t *testing.T) {
	inst := cluster.New(subtreeOptions())
	inst.Start()
	create := func(i int, path string) {
		t.Helper()
		errno := msg.ErrStale
		inst.Await(time.Minute, func(done func()) {
			inst.Clients[i].Create(path, false, func(_ msg.Attr, e msg.Errno) { errno = e; done() })
		})
		if errno != msg.OK {
			t.Fatalf("create %s: %v", path, errno)
		}
	}
	create(1, "/s0/a")
	create(1, "/s1/b")

	// Node 0 learns both directories: what is there, and what is not.
	for _, c := range []struct {
		path string
		want msg.Errno
	}{{"/s0/a", msg.OK}, {"/s1/b", msg.OK}, {"/s1/a", msg.ErrNoEnt}} {
		if got := lookupErr(t, inst, 0, c.path); got != c.want {
			t.Fatalf("lookup %s: %v", c.path, got)
		}
	}
	sent := inst.Reg.CounterValue("net.control.sent.control-req")
	for _, path := range []string{"/s0/a", "/s1/b", "/s1/a"} {
		lookupErr(t, inst, 0, path)
	}
	if n := inst.Reg.CounterValue("net.control.sent.control-req") - sent; n != 0 {
		t.Fatalf("%d requests for names both instances had cached", n)
	}
	revoked := inst.Reg.CounterValue("client.n10.names.revoked")
	d0, d1 := inst.Reg.CounterValue("server.n1.dir_revokes"), inst.Reg.CounterValue("server.n2.dir_revokes")
	if errno := inst.Rename(1, "/s0/a", "/s1/a"); errno != msg.OK {
		t.Fatalf("cross-shard rename: %v", errno)
	}
	if n := inst.Reg.CounterValue("client.n10.names.revoked") - revoked; n != 2 {
		t.Fatalf("the watching node lost %d directories, want one on each authority", n)
	}
	if inst.Reg.CounterValue("server.n1.dir_revokes") == d0 || inst.Reg.CounterValue("server.n2.dir_revokes") == d1 {
		t.Fatal("a shard changed a directory without asking for its lock")
	}
	if got := lookupErr(t, inst, 0, "/s0/a"); got != msg.ErrNoEnt {
		t.Fatalf("the old name after the rename: %v", got)
	}
	if got := lookupErr(t, inst, 0, "/s1/a"); got != msg.OK {
		t.Fatalf("the new name after the rename: %v", got)
	}
	if got := inst.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}
