package server_test

import (
	"testing"
	"time"

	"repro/internal/baselines"
	"repro/internal/cluster"
	"repro/internal/msg"
)

func policyFunctionShip() baselines.Policy { return baselines.FunctionShip() }

// These tests poke the server's request handling directly through a
// simulated installation, covering paths the integration suite exercises
// only incidentally.

func boot(t *testing.T) *cluster.Cluster {
	t.Helper()
	cl := cluster.New(cluster.DefaultOptions())
	cl.Start()
	return cl
}

// raw sends a hand-built request from client index 0's address and
// returns the first Reply observed at that client.
func raw(t *testing.T, cl *cluster.Cluster, req msg.Request) *msg.Reply {
	t.Helper()
	var got *msg.Reply
	id := cluster.ClientID(0)
	orig := cl.Clients[0]
	cl.Control.Attach(id, func(env msg.Envelope) {
		if r, ok := env.Payload.(*msg.Reply); ok && got == nil {
			got = r
		}
	})
	defer cl.Control.Attach(id, orig.Deliver)
	cl.Control.Send(id, cluster.ServerID(0), req)
	cl.RunFor(time.Second)
	return got
}

func hdrFor(cl *cluster.Cluster, reqID msg.ReqID) msg.ReqHeader {
	return msg.ReqHeader{
		Client: cluster.ClientID(0),
		Req:    reqID,
		Epoch:  cl.Clients[0].Sub(0).Epoch(),
	}
}

func TestUnregisteredClientNACKed(t *testing.T) {
	cl := boot(t)
	r := raw(t, cl, &msg.GetAttr{
		ReqHeader: msg.ReqHeader{Client: cluster.ClientID(0), Req: 5001, Epoch: 0},
		Ino:       1,
	})
	if r == nil || r.Status != msg.NACK {
		t.Fatalf("reply = %+v, want NACK for epoch 0", r)
	}
}

func TestLookupErrnoPaths(t *testing.T) {
	cl := boot(t)
	r := raw(t, cl, &msg.Lookup{ReqHeader: hdrFor(cl, 6001), Path: "/missing"})
	if r == nil || r.Status != msg.ACK || r.Err != msg.ErrNoEnt {
		t.Fatalf("reply = %+v, want ACK/ErrNoEnt", r)
	}
	r = raw(t, cl, &msg.Lookup{ReqHeader: hdrFor(cl, 6002), Path: "relative"})
	if r == nil || r.Err != msg.ErrNoEnt {
		t.Fatalf("relative path reply = %+v", r)
	}
}

func TestReplyCacheResendsOnDuplicate(t *testing.T) {
	cl := boot(t)
	req := &msg.Create{ReqHeader: hdrFor(cl, 7001), Path: "/dup-test"}
	r1 := raw(t, cl, req)
	if r1 == nil || r1.Err != msg.OK {
		t.Fatalf("create: %+v", r1)
	}
	// Identical retry: must be answered from the reply cache, NOT
	// executed again (which would yield ErrExist).
	r2 := raw(t, cl, req)
	if r2 == nil || r2.Err != msg.OK {
		t.Fatalf("duplicate create reply = %+v, want cached OK", r2)
	}
	if cl.Reg.CounterValue("server.replycache.duplicates") == 0 {
		t.Fatal("duplicate not counted")
	}
	// A fresh create of the same path does fail.
	r3 := raw(t, cl, &msg.Create{ReqHeader: hdrFor(cl, 7002), Path: "/dup-test"})
	if r3 == nil || r3.Err != msg.ErrExist {
		t.Fatalf("fresh duplicate create = %+v, want ErrExist", r3)
	}
}

func TestUnlinkLockedFileRefused(t *testing.T) {
	cl := boot(t)
	h, _ := cl.MustOpen(1, "/locked", true, true)
	if errno := cl.Write(1, h, 0, make([]byte, 64)); errno != msg.OK {
		t.Fatal(errno)
	}
	r := raw(t, cl, &msg.Unlink{ReqHeader: hdrFor(cl, 8001), Path: "/locked"})
	if r == nil || r.Err != msg.ErrConflict {
		t.Fatalf("unlink of locked file = %+v, want ErrConflict", r)
	}
}

func TestSetAttrAndReaddir(t *testing.T) {
	cl := boot(t)
	_, attr := cl.MustOpen(0, "/sized", true, true)
	r := raw(t, cl, &msg.SetAttr{ReqHeader: hdrFor(cl, 9001), Ino: attr.Ino, NewSize: 12345})
	if r == nil || r.Err != msg.OK || r.Body.(msg.AttrRes).Attr.Size != 12345 {
		t.Fatalf("setattr = %+v", r)
	}
	r = raw(t, cl, &msg.Readdir{ReqHeader: hdrFor(cl, 9002), Ino: 1})
	if r == nil || r.Err != msg.OK {
		t.Fatalf("readdir = %+v", r)
	}
	found := false
	for _, e := range r.Body.(msg.ReaddirRes).Entries {
		if e.Name == "sized" {
			found = true
		}
	}
	if !found {
		t.Fatal("readdir missing created file")
	}
}

func TestAllocExhaustion(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Disks = 1
	opts.DiskBlocks = 4
	cl := cluster.New(opts)
	cl.Start()
	_, attr := cl.MustOpen(0, "/big", true, true)
	r := raw(t, cl, &msg.AllocBlocks{ReqHeader: hdrFor(cl, 9101), Ino: attr.Ino, Count: 100})
	if r == nil || r.Err != msg.ErrNoSpace {
		t.Fatalf("over-alloc = %+v, want ErrNoSpace", r)
	}
	// Exactly-fitting allocation still works afterwards (rollback).
	r = raw(t, cl, &msg.AllocBlocks{ReqHeader: hdrFor(cl, 9102), Ino: attr.Ino, Count: 4})
	if r == nil || r.Err != msg.OK || r.Body.(msg.AllocRes).Map.Len() != 4 {
		t.Fatalf("fitting alloc = %+v", r)
	}
}

func TestLockReleaseByNonHolder(t *testing.T) {
	cl := boot(t)
	_, attr := cl.MustOpen(0, "/rel", true, true)
	r := raw(t, cl, &msg.LockRelease{ReqHeader: hdrFor(cl, 9201), Ino: attr.Ino, To: msg.LockNone})
	if r == nil || r.Err != msg.ErrNotHolder {
		t.Fatalf("release by non-holder = %+v, want ErrNotHolder", r)
	}
}

func TestServerCountsTransactions(t *testing.T) {
	cl := boot(t)
	before := cl.Reg.CounterValue("server.transactions")
	cl.MustOpen(0, "/txn", true, true)
	if cl.Reg.CounterValue("server.transactions") <= before {
		t.Fatal("transactions not counted")
	}
}

// TestServerCountsBytesSent: what server.bytes_out adds for a reply is
// the frame body the live codec writes for it — header, metadata and
// tail — not a model of it.
func TestServerCountsBytesSent(t *testing.T) {
	cl := boot(t)
	msgs, bytes := cl.Reg.CounterValue("server.msgs_out"), cl.Reg.CounterValue("server.bytes_out")
	r := raw(t, cl, &msg.Lookup{ReqHeader: hdrFor(cl, 6101), Path: "/"})
	if r == nil || r.Status != msg.ACK || r.Err != msg.OK {
		t.Fatalf("reply = %+v, want ACK OK", r)
	}
	if n := cl.Reg.CounterValue("server.msgs_out") - msgs; n != 1 {
		t.Fatalf("server sent %d messages, want the one reply", n)
	}
	env := &msg.Envelope{From: cluster.ServerID(0), To: cluster.ClientID(0), Payload: r}
	meta, tail, err := msg.BinarySize(env)
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, meta)
	if err := msg.EncodeBinary(body, env); err != nil {
		t.Fatal(err)
	}
	body = append(body, tail...)
	if _, err := msg.DecodeBinary(body); err != nil {
		t.Fatalf("the reply's encoded body does not decode: %v", err)
	}
	if got := cl.Reg.CounterValue("server.bytes_out") - bytes; got != uint64(len(body)) {
		t.Errorf("bytes_out rose by %d for the reply, its encoded body is %d bytes", got, len(body))
	}
}

func TestFuncReadHoleReturnsZeros(t *testing.T) {
	opts := cluster.DefaultOptions()
	opts.Policy = policyFunctionShip()
	cl := cluster.New(opts)
	cl.Start()
	h, _ := cl.MustOpen(0, "/hole", true, true)
	data, errno := cl.Read(0, h, 7) // never written
	if errno != msg.OK {
		t.Fatalf("hole read: %v", errno)
	}
	for _, b := range data {
		if b != 0 {
			t.Fatal("hole not zero-filled")
		}
	}
}

// TestGraceTimerIgnoresStoppedIncarnation is the regression test for the
// stale grace-period timer: a server that crashes DURING its
// post-restart grace window leaves an AfterFunc(GracePeriod, ...)
// pending on the shared clock. That callback used to clear inRecovery
// unconditionally — mutating the retired incarnation after Stop(),
// unlike every other timer path, which checks s.stopped. The retired
// incarnation's recovery flag must stay frozen at its crash-time value,
// while the live incarnation's own window closes normally.
func TestGraceTimerIgnoresStoppedIncarnation(t *testing.T) {
	cl := boot(t)
	cl.CrashServer(0)
	cl.RunFor(time.Second)

	cl.RestartServer(0)
	mid := cl.Shards[0].Server // incarnation 2: grace window open
	if !mid.InGrace() || !mid.Recovering() {
		t.Fatal("restarted server must open a grace window")
	}

	// Crash again midway through the grace window, then restart.
	cl.RunFor(500 * time.Millisecond)
	cl.CrashServer(0) // Stop()s the mid incarnation; its grace timer stays armed
	cl.RestartServer(0)
	final := cl.Shards[0].Server

	// Run well past both grace windows: the stale timer fires now.
	cl.RunFor(3 * cl.Opts.Core.StealDelay())
	if !mid.Recovering() {
		t.Fatal("stale grace timer mutated the stopped incarnation")
	}
	if final.Recovering() {
		t.Fatal("live incarnation's grace window never closed")
	}
	if final.InGrace() {
		t.Fatal("live incarnation still reports an open grace window")
	}
}

// TestStealForgetsReplyHistory: after a steal the client is NACKed before
// its requests reach the reply cache, until it rejoins, and the rejoin
// starts its history afresh, so the steal drops the history. A client that
// never comes back must not pin its last replies (each LockRes with its
// file's block map) for good.
func TestStealForgetsReplyHistory(t *testing.T) {
	cl := boot(t)
	srv := cl.Shards[0].Server
	victim := cluster.ClientID(0)
	h0, _ := cl.MustOpen(0, "/stolen", true, true)
	if errno := cl.Write(0, h0, 0, make([]byte, cluster.BlockSize)); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	if srv.RepliesKept(victim) == 0 {
		t.Fatal("no replies kept before the steal")
	}
	cl.IsolateClient(0)
	h1, _ := cl.MustOpen(1, "/stolen", true, false)
	// The write needs the victim's lock: its demand goes unanswered, and
	// τ(1+ε) later the authority steals.
	if errno := cl.Write(1, h1, 0, make([]byte, cluster.BlockSize)); errno != msg.OK {
		t.Fatal(errno)
	}
	if !srv.Authority().Expired(victim) {
		t.Fatal("the victim's locks were not stolen")
	}
	if n := srv.RepliesKept(victim); n != 0 {
		t.Fatalf("server keeps %d replies for a client it stole from", n)
	}
	if err := srv.AtRest(); err != nil {
		t.Fatal(err)
	}
}
