package rpcnet

import (
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/trace"
	"repro/internal/wire"
)

// dialRawBinary opens a raw TCP connection to addr and performs the
// binary-codec preamble + hello by hand, so the test controls every
// subsequent byte on the wire.
func dialRawBinary(t *testing.T, addr string, from msg.NodeID) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	var hello [5]byte
	hello[0] = 4<<4 | uint8(wire.Binary) // preamble: revision 4, binary
	binary.BigEndian.PutUint32(hello[1:], uint32(int32(from)))
	if _, err := conn.Write(hello[:]); err != nil {
		t.Fatal(err)
	}
	return conn
}

// waitForNote polls the ring until an EvTransport note about peer
// matches want, or fails after two seconds.
func waitForNote(t *testing.T, ring *trace.Ring, peer msg.NodeID, want string) trace.Event {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		for _, ev := range ring.Events() {
			if ev.Type == trace.EvTransport && ev.Peer == peer && strings.Contains(ev.Note, want) {
				return ev
			}
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("no EvTransport note containing %q for peer %v; events: %+v",
		want, peer, ring.Events())
	return trace.Event{}
}

// TestCorruptFrameTraceDistinguishesPeerClose is the regression test
// for the ErrBadFrame/io.EOF split: a peer that sends protocol damage
// must be reported as a corrupt frame, and a peer that goes away must
// be reported as a closed connection — previously both surfaced as the
// same generic read error, so chaos traces blamed "peer restart" for
// what was actually frame corruption.
func TestCorruptFrameTraceDistinguishesPeerClose(t *testing.T) {
	ring := trace.NewRing(1 << 10)
	tr := New(99, nil, func(env msg.Envelope) {})
	tr.SetTracer(trace.New(ring))
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tr.Run()
	t.Cleanup(tr.Close)

	// Peer 55 sends an impossible length prefix after a valid handshake.
	corrupt := dialRawBinary(t, addr.String(), 55)
	var lenb [4]byte
	binary.BigEndian.PutUint32(lenb[:], uint32(wire.MaxFrame+7))
	if _, err := corrupt.Write(lenb[:]); err != nil {
		t.Fatal(err)
	}
	ev := waitForNote(t, ring, 55, "corrupt frame")
	if strings.Contains(ev.Note, "connection closed") {
		t.Fatalf("corrupt frame misreported as a peer close: %q", ev.Note)
	}

	// Peer 56 hangs up cleanly after the handshake.
	closer := dialRawBinary(t, addr.String(), 56)
	// Give the acceptor a moment to register the peer before the close
	// races the hello read.
	waitForNote(t, ring, 56, "accepted")
	closer.Close()
	ev = waitForNote(t, ring, 56, "connection closed")
	if strings.Contains(ev.Note, "corrupt frame") {
		t.Fatalf("peer close misreported as frame corruption: %q", ev.Note)
	}

	// And the corrupt peer was never blamed for a clean close.
	for _, ev := range ring.Events() {
		if ev.Peer == 55 && strings.Contains(ev.Note, "connection closed") {
			t.Fatalf("corrupt peer also reported as clean close: %q", ev.Note)
		}
	}
}

// TestCorruptFrameDropsOnlyThatConnection: frame damage on one
// connection must not disturb traffic on another — the transport drops
// the damaged connection and keeps serving.
func TestCorruptFrameDropsOnlyThatConnection(t *testing.T) {
	got := make(chan msg.Envelope, 16)
	tr := New(99, nil, func(env msg.Envelope) { got <- env })
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tr.Run()
	t.Cleanup(tr.Close)

	// A healthy peer using the real codec.
	healthyConn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthyConn.Close() })
	healthy, err := wire.Dial(healthyConn, wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.SendHello(60); err != nil {
		t.Fatal(err)
	}

	// A corrupt peer: valid handshake, then garbage.
	corrupt := dialRawBinary(t, addr.String(), 61)
	corrupt.Write([]byte{0, 0, 0, 12, 0xde, 0xad, 0xbe, 0xef, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})

	// The healthy peer's traffic still flows after the corrupt drop.
	want := &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 60, Req: 77}}
	deadline := time.After(2 * time.Second)
	for {
		if err := healthy.Send(&msg.Envelope{From: 60, To: 99, Payload: want}); err != nil {
			t.Fatalf("healthy connection broken by another peer's corruption: %v", err)
		}
		select {
		case env := <-got:
			if ka, ok := env.Payload.(*msg.KeepAlive); ok && ka.Req == 77 {
				return
			}
		case <-deadline:
			t.Fatal("keep-alive never delivered after corrupt-frame drop")
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestForeignPreambleDropsOnlyThatConnection: a dialer that opens with
// anything but this revision's preamble — the retired gob codec 0, a
// future version — is refused at that byte, the refusal is in the trace,
// and a peer on another connection never notices.
func TestForeignPreambleDropsOnlyThatConnection(t *testing.T) {
	ring := trace.NewRing(1 << 10)
	got := make(chan msg.Envelope, 16)
	tr := New(99, nil, func(env msg.Envelope) { got <- env })
	tr.SetTracer(trace.New(ring))
	addr, err := tr.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go tr.Run()
	t.Cleanup(tr.Close)

	healthyConn, err := net.Dial("tcp", addr.String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { healthyConn.Close() })
	healthy, err := wire.Dial(healthyConn, wire.Binary)
	if err != nil {
		t.Fatal(err)
	}
	if err := healthy.SendHello(60); err != nil {
		t.Fatal(err)
	}
	waitForNote(t, ring, 60, "accepted")

	for _, pre := range []byte{0x10, 0x31, 0x51} { // version 1 codec 0 (gob); the previous revision; the next
		foreign, err := net.Dial("tcp", addr.String())
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { foreign.Close() })
		// A gob dialer's hello would follow; the acceptor must not wait for it.
		if _, err := foreign.Write([]byte{pre}); err != nil {
			t.Fatal(err)
		}
		waitForNote(t, ring, 0, fmt.Sprintf("bad frame: preamble %#02x", pre))
		foreign.SetReadDeadline(time.Now().Add(2 * time.Second))
		if n, err := foreign.Read(make([]byte, 1)); n != 0 || err == nil {
			t.Fatalf("preamble %#02x: connection still open (read %d, %v)", pre, n, err)
		}
	}

	// The healthy connection was registered before and still delivers.
	if err := healthy.Send(&msg.Envelope{From: 60, To: 99,
		Payload: &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 60, Req: 77}}}); err != nil {
		t.Fatal(err)
	}
	select {
	case env := <-got:
		if ka, ok := env.Payload.(*msg.KeepAlive); !ok || ka.Req != 77 {
			t.Fatalf("delivered %+v", env.Payload)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("healthy peer's keep-alive never delivered")
	}
	for _, ev := range ring.Events() {
		if ev.Peer == 60 && !strings.Contains(ev.Note, "accepted") {
			t.Fatalf("healthy peer disturbed: %q", ev.Note)
		}
	}
}

// TestOversizedSendKeepsConnection: a message whose frame would exceed
// wire.MaxFrame is dropped at the sender with a trace note, and the
// connection it would have gone out on keeps carrying traffic — no
// redial. Written at the receiver's end instead, the same frame is an
// impossible length prefix: the connection dies, every message in flight
// on it with it, and the sender's retry does it again.
func TestOversizedSendKeepsConnection(t *testing.T) {
	tr, ring, dials, arrives := countedDials(t)
	arrives(1)
	tr.Send(2, &msg.FuncWrite{ReqHeader: msg.ReqHeader{Client: 1, Req: 2}, Ino: 3,
		Data: make([]byte, wire.MaxFrame)})
	waitForNote(t, ring, 2, "frame exceeds MaxFrame")
	arrives(3)
	if n := dials.Load(); n != 1 {
		t.Fatalf("dialed %d times, want 1: the oversized send cost the connection", n)
	}
	for _, ev := range ring.Events() {
		if ev.Peer == 2 && strings.Contains(ev.Note, "connection closed") {
			t.Fatalf("connection dropped: %q", ev.Note)
		}
	}
}

// foreign is a message the wire registry has no layout for.
type foreign struct{}

func (foreign) Kind() msg.Kind { return 0 }

// TestUnframeableSendDropsConnection pins the other half of the send
// error semantics: a message that cannot be framed for any reason but its
// size — a type the registry does not know — costs the connection, as
// every send error but ErrFrameTooLarge does, and the next send redials.
func TestUnframeableSendDropsConnection(t *testing.T) {
	tr, ring, dials, arrives := countedDials(t)
	arrives(1)
	tr.Send(2, foreign{})
	waitForNote(t, ring, 2, msg.ErrNoBinaryLayout.Error())
	if connected, _, _ := linkState(tr, 2); connected {
		t.Fatal("the link survived a send error other than ErrFrameTooLarge")
	}
	arrives(3)
	if n := dials.Load(); n != 2 {
		t.Fatalf("dialed %d times, want 2: a redial after the dropped connection", n)
	}
}

// countedDials connects transport 1 to a listening transport 2, counting
// its dials, and returns it with its trace ring and arrives, which sends
// a keep-alive and waits for 2 to deliver it.
func countedDials(t *testing.T) (*Transport, *trace.Ring, *atomic.Int32, func(msg.ReqID)) {
	got := make(chan msg.Envelope, 16)
	recv := New(2, nil, func(env msg.Envelope) { got <- env })
	go recv.Run()
	t.Cleanup(recv.Close)
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	ring := trace.NewRing(1 << 10)
	tr := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) {})
	tr.SetTracer(trace.New(ring))
	go tr.Run()
	t.Cleanup(tr.Close)
	dials := new(atomic.Int32)
	tr.dialFn = func(a string) (net.Conn, error) {
		dials.Add(1)
		return net.Dial("tcp", a)
	}
	arrives := func(req msg.ReqID) {
		t.Helper()
		tr.Send(2, &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 1, Req: req}})
		select {
		case env := <-got:
			if ka, ok := env.Payload.(*msg.KeepAlive); !ok || ka.Req != req {
				t.Fatalf("delivered %+v, want keep-alive %d", env.Payload, req)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("keep-alive %d never arrived", req)
		}
	}
	return tr, ring, dials, arrives
}
