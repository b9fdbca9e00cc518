package rpcnet

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// TestLiveChaosPartitionStealHealRejoin drives real TCP nodes through
// the full failure lifecycle using the runtime fault layer instead of
// killing connections: a control-network partition isolates a client
// holding dirty data, the client walks quiesce → flush → expiry
// unattended (its SAN stays healthy, so the phase-4 flush lands), the
// server's demand goes undelivered and the τ(1+ε) steal fires, the
// survivor reads the flushed data, and after Heal the isolated client
// rejoins — every step asserted from trace events alone.
func TestLiveChaosPartitionStealHealRejoin(t *testing.T) {
	ring := trace.NewRing(1 << 14)
	tracer := trace.New(ring)
	cfg := liveCore()
	cfg.Tau = 1500 * time.Millisecond

	// One control-network fault plan shared by every node: the live
	// equivalent of the simulator's network-wide failure controls.
	ctrl := faultnet.New(1)
	lc := startLiveCfg(t, 2, cfg, WithTracer(tracer), WithFaults(ctrl, nil))
	lc.start(t, 0)
	lc.start(t, 1)
	isolated := msg.NodeID(10)

	h0 := lc.open(t, 0, "/chaos.txt", true, true)
	payload := []byte("dirty-at-partition")
	lc.write(t, 0, h0, 0, payload) // stays in the write-back cache

	// The open left client 0 caching names, too: the root directory, the
	// file in it, its attributes.
	entries := func() int64 {
		ch := make(chan int64, 1)
		lc.clients[0].Do(func() { ch <- lc.clients[0].Reg.Gauge("client.n10.names.entries").Value() })
		return <-ch
	}
	if n := entries(); n == 0 {
		t.Fatal("setup: the isolated client caches no names")
	}

	// Partition: client 0 loses the control network in both directions.
	// Unlike closing the transport, the TCP connections stay up — only
	// the fault layer stops messages, exactly like a partitioned fabric.
	ctrl.Isolate(isolated)

	// The survivor demands the file; its open completes only after the
	// server's steal reassigns the lock, and the read must observe the
	// isolated client's phase-4 flush (no dirty data lost).
	h1 := lc.open(t, 1, "/chaos.txt", true, false)
	if got := lc.read(t, 1, h1, 0); !bytes.HasPrefix(got, payload) {
		t.Fatalf("survivor read %q, want the isolated client's flushed data %q", got[:24], payload)
	}

	// The survivor's open changed nothing in the root, but its lock moved
	// only with the steal, and the steal only after the isolated client's
	// lease had run out: which took the names with the pages.
	if n := entries(); n != 0 {
		t.Fatalf("the isolated client still caches %d names after its lease expired", n)
	}

	// Stay partitioned until the client's Rejoin — first sent when it
	// expired, about when the steal fired — is more than τ old: the ACK
	// that gets through after Heal then grants a lease that is already
	// over, and the client must ask again rather than come back
	// registered and leaseless (its open below would be refused).
	time.Sleep(cfg.Tau + 200*time.Millisecond)

	// Heal the partition; the expired client's rejoin loop (still
	// retrying over the surviving TCP connections) now gets through.
	rejoined := make(chan msg.Epoch, 1)
	lc.clients[0].Do(func() {
		lc.clients[0].Client.OnRecovered = func(e msg.Epoch) { rejoined <- e }
	})
	ctrl.Heal()
	select {
	case <-rejoined:
	case <-time.After(10 * time.Second):
		t.Fatal("isolated client failed to rejoin after heal")
	}
	// The rejoined client reads the file afresh (cache was invalidated).
	h2 := lc.open(t, 0, "/chaos.txt", false, false)
	if got := lc.read(t, 0, h2, 0); !bytes.HasPrefix(got, payload) {
		t.Fatalf("rejoined client read %q, want %q", got[:24], payload)
	}

	events := ring.Events()

	// The isolated client walked the full Fig 4 state machine.
	phases := events.PhaseSequence(isolated)
	want := []string{"valid", "renewal", "suspect", "flush", "expired"}
	if !trace.HasSubsequence(phases, want) {
		t.Fatalf("client phase sequence %v missing subsequence %v", phases, want)
	}

	// Theorem 3.1 on live TCP under injected partition: the client's
	// expiry strictly precedes the server's lock steal.
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire)),
		trace.And(trace.ByNode(1), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated))); err != nil {
		t.Fatalf("Theorem 3.1 ordering on live transport: %v", err)
	}

	// The phase-4 flush completed before expiry: no dirty data lost.
	if exp, ok := events.First(trace.ByNode(isolated), trace.ByType(trace.EvExpire)); !ok || exp.Note == "dirty" {
		t.Fatalf("expiry event = %v (ok=%v), want a clean (flushed) expiry", exp, ok)
	}
	if err := events.Precedes(
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvFlushDone)),
		trace.And(trace.ByNode(isolated), trace.ByType(trace.EvExpire))); err != nil {
		t.Fatalf("flush/expiry ordering: %v", err)
	}

	// The fault layer recorded the partition in the trace stream, with
	// the simulator's drop taxonomy, on both sides of the cut: the
	// client's keep-alives and the server's demand retries.
	blockedNote := trace.ByNote(simnet.DropBlocked.Note())
	if n := events.Count(trace.ByNode(isolated), blockedNote); n == 0 {
		t.Fatal("no injected drops recorded at the isolated client")
	}
	if n := events.Count(trace.ByNode(1), trace.ByPeer(isolated), blockedNote); n == 0 {
		t.Fatal("no injected drops recorded at the server toward the isolated client")
	}

	// After heal, the server granted the client a fresh epoch — and only
	// after the steal. (The first EvRejoin is the initial registration,
	// so compare against the last one.)
	steal, ok := events.First(trace.ByNode(1), trace.ByType(trace.EvStealFired), trace.ByPeer(isolated))
	if !ok {
		t.Fatal("no steal recorded at the server")
	}
	rejoin, ok := events.Last(trace.ByNode(1), trace.ByType(trace.EvRejoin), trace.ByPeer(isolated))
	if !ok || rejoin.Seq <= steal.Seq {
		t.Fatalf("no post-steal rejoin: steal=%v last-rejoin=%v (ok=%v)", steal, rejoin, ok)
	}
}

// TestLiveFaultLatency: injected link latency delays delivery without
// dropping anything.
func TestLiveFaultLatency(t *testing.T) {
	faults := faultnet.New(1)
	faults.SetLink(1, 2, faultnet.Link{Delay: 150 * time.Millisecond})

	got := make(chan time.Time, 1)
	recv := New(2, nil, func(msg.Envelope) { got <- time.Now() })
	go recv.Run()
	defer recv.Close()
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	tr := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) {})
	tr.SetFaults(faults)
	go tr.Run()
	defer tr.Close()

	start := time.Now()
	tr.Send(2, &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 1, Req: 1}})
	select {
	case at := <-got:
		if d := at.Sub(start); d < 150*time.Millisecond {
			t.Fatalf("delivered after %v, want >= 150ms of injected latency", d)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("message with injected latency never delivered")
	}
}
