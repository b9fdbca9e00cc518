package cluster

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
)

// TestTraceTheorem31Ordering replays the paper's central scenario (Fig 2)
// with the trace bus attached and asserts Theorem 3.1 against the event
// record itself: the isolated client walks all four lease phases and its
// PhaseExpired strictly precedes the server's steal — on the global
// event order, not on any synchronized clock.
func TestTraceTheorem31Ordering(t *testing.T) {
	ring := trace.NewRing(8192)
	opts := DefaultOptions()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()

	h0, _ := cl.MustOpen(0, "/shared", true, true)
	if errno := cl.Write(0, h0, 0, block('X')); errno != msg.OK {
		t.Fatal(errno)
	}
	cl.Sync(0)
	// Re-dirty the block so the isolated client has something for its
	// phase-4 flush.
	if errno := cl.Write(0, h0, 0, block('Y')); errno != msg.OK {
		t.Fatal(errno)
	}

	cl.IsolateClient(0)

	// The survivor demands the same file; the server's demand goes
	// undelivered, the steal timer arms, and after τ(1+ε) the lock moves.
	h1, _, errno := cl.Open(1, "/shared", true, false)
	if errno != msg.OK {
		t.Fatalf("open on survivor: %v", errno)
	}
	if errno := cl.Write(1, h1, 0, block('Z')); errno != msg.OK {
		t.Fatalf("survivor write: %v", errno)
	}

	events := ring.Events()
	isolated := ClientID(0)

	// The client walked the full state machine of Fig 4, in order.
	phases := events.PhaseSequence(isolated)
	want := []string{"valid", "renewal", "suspect", "flush", "expired"}
	if !trace.HasSubsequence(phases, want) {
		t.Fatalf("client phase sequence %v missing subsequence %v", phases, want)
	}

	// The server observed the delivery failure and armed, then fired, the
	// τ(1+ε) steal timer for exactly this client.
	if n := events.Count(trace.ByNode(ServerID(0)), trace.ByType(trace.EvStealArmed), trace.ByPeer(isolated)); n != 1 {
		t.Fatalf("steal timer armed %d times, want 1", n)
	}
	if n := events.Count(trace.ByNode(ServerID(0)), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated)); n != 1 {
		t.Fatalf("steal fired %d times, want 1", n)
	}

	// Theorem 3.1: the client's own expiry (after its flush completed)
	// precedes the server's steal in the global event order.
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(ServerID(0)), trace.ByType(trace.EvStealFired))); err != nil {
		t.Fatalf("Theorem 3.1 ordering: %v", err)
	}
	// And the flush finished before the lease ran out: the expiry event
	// must not be marked dirty.
	exp, _ := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire))
	if exp.Note == "dirty" {
		t.Fatal("client expired with the phase-4 flush incomplete")
	}
	// The fence ROSE with (not before) the steal.
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(ServerID(0)), trace.ByType(trace.EvFence))); err != nil {
		t.Fatalf("fence ordering: %v", err)
	}

	// Every event carries a node and a clock reading; client events
	// during the valid lease carry the registration epoch.
	for _, e := range events {
		if e.Node == 0 {
			t.Fatalf("event without node identity: %s", e)
		}
	}
}

// TestTraceSteadyStateServerSilent asserts the paper's headline claim on
// the event record: during failure-free operation — active clients,
// cross-client sharing, several lease periods long — the server emits NO
// lease events at all, and the clients renew purely opportunistically
// (zero keep-alives, because traffic never pauses long enough to reach
// phase 2).
func TestTraceSteadyStateServerSilent(t *testing.T) {
	ring := trace.NewRing(1 << 16)
	opts := DefaultOptions()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()
	// Registration itself emits rejoin events; the steady-state claim
	// starts after every client is registered.
	steadyFrom := ring.Total()

	// Ordinary metadata traffic: every message doubles as a renewal
	// (§3.1). Cache-hit-only activity would legitimately need
	// keep-alives — the lease is renewed by messages, not local work —
	// so each iteration opens a fresh file (a Create request) and writes.
	end := cl.Sched.Now().Add(2*opts.Core.Tau + opts.Core.Tau/2)
	for i := 0; cl.Sched.Now().Before(end); i++ {
		h, _ := cl.MustOpen(0, fmt.Sprintf("/steady-%d", i), true, true)
		if errno := cl.Write(0, h, 0, block(byte('a'+i%26))); errno != msg.OK {
			t.Fatal(errno)
		}
		cl.Close(0, h)
		cl.RunFor(opts.Core.Tau / 25)
	}

	events := ring.Events().Filter(func(e trace.Event) bool { return e.Seq > steadyFrom })
	// The server performed zero lease work: no NACKs, no steal timers, no
	// demands-gone-bad, no fences. (Demands themselves are lock traffic
	// and legitimate; none occur in this single-writer run either.)
	if err := events.None(trace.ByNode(ServerID(0)), trace.ByType(
		trace.EvNACKSent, trace.EvStealArmed, trace.EvStealFired,
		trace.EvDemandFailed, trace.EvFence)); err != nil {
		t.Fatalf("server lease activity in steady state: %v", err)
	}
	if cl.Shards[0].Server.Authority().SuspectCount() != 0 {
		t.Fatal("authority holds lease state in steady state")
	}
	if ops := cl.Reg.CounterValue("server.authority.ops"); ops != 0 {
		t.Fatalf("authority performed %d lease operations in steady state", ops)
	}

	// The ACTIVE client renewed opportunistically the whole time:
	// renewals present, keep-alives absent, no phase past renewal. (The
	// idle clients legitimately keep-alive to preserve their caches —
	// that is phase 2 doing its job, not a violation.)
	if n := events.Count(trace.ByNode(ClientID(0)), trace.ByType(trace.EvRenew)); n == 0 {
		t.Fatal("no opportunistic renewals recorded")
	}
	if err := events.None(trace.ByNode(ClientID(0)), trace.ByType(trace.EvKeepAlive)); err != nil {
		t.Fatalf("keep-alive during active traffic: %v", err)
	}
	for _, bad := range []string{"suspect", "flush", "expired"} {
		for _, ph := range events.PhaseSequence(ClientID(0)) {
			if ph == bad {
				t.Fatalf("active client reached phase %q", bad)
			}
		}
	}
}

// TestRejoinStealRaisesNoFence: a client the server has begun to time out
// — its demand went unanswered — that rejoins before the timer fires makes
// the steal safe at once: it has just said it holds nothing. That steal
// raises no fence, so the rejoin sends nothing to the disks, and the
// client's writes under its new registration reach them.
func TestRejoinStealRaisesNoFence(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	opts := DefaultOptions()
	opts.Tracer = trace.New(ring)
	cl := New(opts)
	cl.Start()
	h0, _ := cl.MustOpen(0, "/f", true, true)
	if errno := cl.Write(0, h0, 0, block('A')); errno != msg.OK {
		t.Fatal(errno)
	}
	// Cut client 0 off just long enough for a demand to fail.
	cl.IsolateClient(0)
	h1, _, _ := cl.Open(1, "/f", true, false)
	cl.Clients[1].Write(h1, 0, block('B'), func(msg.Errno) {})
	cl.RunFor(2 * time.Second)
	srv := ServerID(0)
	if !cl.Shards[0].Server.Authority().Suspect(ClientID(0)) {
		t.Fatal("setup: the server never began timing the client out")
	}
	cl.HealControl()
	// The client learns by NACK, runs out its lease and rejoins, all before
	// the server's τ(1+ε).
	cl.RunFor(opts.Core.Tau)
	events := ring.Events()
	if _, ok := events.First(trace.ByNode(srv), trace.ByType(trace.EvStealFired), trace.ByNote("rejoin")); !ok {
		t.Fatal("setup: the steal was not the rejoin's")
	}
	if err := events.None(trace.ByNode(srv), trace.ByType(trace.EvFence), trace.ByPeer(ClientID(0))); err != nil {
		t.Fatalf("the rejoin's steal raised a fence: %v", err)
	}
	// In good standing again: what it writes reaches the disks.
	h0, _ = cl.MustOpen(0, "/f", true, false)
	if errno := cl.Write(0, h0, 1, block('C')); errno != msg.OK {
		t.Fatal(errno)
	}
	if errno := cl.Sync(0); errno != msg.OK {
		t.Fatal(errno)
	}
	if got := cl.FinalCheck(); len(got) != 0 {
		t.Fatalf("violations: %v", got)
	}
}
