package rpcnet

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/wire"
)

// smallBuffers shrinks a socket's kernel buffers before it connects, so
// that a peer that stops reading has the sender's socket full after a few
// KiB: set later, the window already advertised would stand.
func smallBuffers(_, _ string, c syscall.RawConn) error {
	var err error
	c.Control(func(fd uintptr) {
		for _, opt := range []int{syscall.SO_RCVBUF, syscall.SO_SNDBUF} {
			if e := syscall.SetsockoptInt(int(fd), syscall.SOL_SOCKET, opt, 4<<10); e != nil {
				err = e
			}
		}
	})
	return err
}

func dialSmall(addr string) (net.Conn, error) {
	d := net.Dialer{Control: smallBuffers}
	return d.Dial("tcp", addr)
}

// listenSmall is a listener whose connections have small buffers.
func listenSmall(t *testing.T) net.Listener {
	t.Helper()
	lc := net.ListenConfig{Control: smallBuffers}
	ln, err := lc.Listen(context.Background(), "tcp", Loopback())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return ln
}

// mute is a peer that accepts one connection and reads nothing until
// the test starts reading it (codec).
type mute struct {
	ln       net.Listener
	accepted chan net.Conn
	conn     net.Conn
}

func newMute(t *testing.T) *mute {
	m := &mute{ln: listenSmall(t), accepted: make(chan net.Conn, 1)}
	go func() {
		c, err := m.ln.Accept()
		if err != nil {
			return
		}
		t.Cleanup(func() { c.Close() })
		m.accepted <- c
	}()
	return m
}

func (m *mute) addr() string { return m.ln.Addr().String() }

// codec starts reading: the preamble and the hello, then frames.
func (m *mute) codec(t *testing.T) *wire.Codec {
	t.Helper()
	select {
	case m.conn = <-m.accepted:
	case <-time.After(5 * time.Second):
		t.Fatal("the transport never connected")
	}
	codec, err := wire.Accept(m.conn)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := codec.RecvHello(); err != nil {
		t.Fatal(err)
	}
	return codec
}

// expect reads the next frame and checks it is the keep-alive req.
func expect(t *testing.T, codec *wire.Codec, req msg.ReqID) {
	t.Helper()
	env, err := codec.Recv()
	if err != nil {
		t.Fatalf("reading keep-alive %d: %v", req, err)
	}
	defer env.Release()
	if ka, ok := env.Payload.(*msg.KeepAlive); !ok || ka.Req != req {
		t.Fatalf("read %T %+v, want keep-alive %d", env.Payload, env.Payload, req)
	}
}

// expectNothingMore checks that no frame follows: every frame arrived
// exactly once.
func expectNothingMore(t *testing.T, codec *wire.Codec, conn interface{ SetReadDeadline(time.Time) error }) {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	if env, err := codec.Recv(); err == nil {
		t.Fatalf("an extra frame arrived: %T %+v", env.Payload, env.Payload)
	}
}

func keepAlive(req msg.ReqID) *msg.KeepAlive {
	return &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 1, Req: req}}
}

// linkState reports the send path to peer: connected, the token held,
// frames queued.
func linkState(tr *Transport, peer msg.NodeID) (connected, writing bool, queued int) {
	tr.mu.Lock()
	l := tr.links[peer]
	tr.mu.Unlock()
	if l == nil {
		return false, false, 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.codec != nil, l.writing, len(l.queue)
}

func idle(tr *Transport, peer msg.NodeID) func() bool {
	return func() bool {
		connected, writing, queued := linkState(tr, peer)
		return connected && !writing && queued == 0
	}
}

func backlogged(tr *Transport, peer msg.NodeID) bool {
	_, writing, queued := linkState(tr, peer)
	return writing || queued > 0
}

// TestSendNeverBlocksTheCaller: a peer that stops reading fills the
// socket, and 10 000 Sends from inside an executor task still all return
// at once — the frames the socket does not take wait on the link. Once
// the peer reads again, every frame arrives exactly once, in order.
func TestSendNeverBlocksTheCaller(t *testing.T) {
	const n = 10000
	peer := newMute(t)
	tr := New(1, map[msg.NodeID]string{2: peer.addr()}, func(msg.Envelope) {})
	tr.dialFn = dialSmall
	go tr.Run()
	defer tr.Close()
	tr.Send(2, keepAlive(0))
	waitFor(t, "the link to connect and write its first frame", idle(tr, 2))

	took := make(chan time.Duration, 1)
	tr.Submit(func() {
		start := time.Now()
		for i := 1; i <= n; i++ {
			tr.Send(2, keepAlive(msg.ReqID(i)))
		}
		took <- time.Since(start)
	})
	select {
	case d := <-took:
		t.Logf("%d sends into a full socket took %v", n, d)
	case <-time.After(10 * time.Second):
		t.Fatal("Send blocked its caller behind a peer that does not read")
	}
	if !backlogged(tr, 2) {
		t.Fatal("nothing waits on the link: the peer's silence never filled the socket, so this proved nothing")
	}

	codec := peer.codec(t)
	for i := 0; i <= n; i++ {
		expect(t, codec, msg.ReqID(i))
	}
	waitFor(t, "the link to drain", idle(tr, 2))
	expectNothingMore(t, codec, peer.conn)
}

// TestSendKeepsPeerOrder: frames to one peer leave in the order they were
// sent across every change of path — written inline by an idle link,
// queued behind a 256 KiB DiskWriteV the socket took only part of, and
// inline again once the writer has drained the queue — and the big frame
// arrives whole.
func TestSendKeepsPeerOrder(t *testing.T) {
	peer := newMute(t)
	tr := New(1, map[msg.NodeID]string{2: peer.addr()}, func(msg.Envelope) {})
	tr.dialFn = dialSmall
	go tr.Run()
	defer tr.Close()
	tr.Send(2, keepAlive(0))
	waitFor(t, "the link to connect and write its first frame", idle(tr, 2))

	tr.Send(2, keepAlive(1)) // inline: the socket has room
	big := batchPayload(1, 100, 0, 64)
	tr.Send(2, big) // a short write: most of it waits
	if !backlogged(tr, 2) {
		t.Fatal("a 256 KiB frame fit a socket its peer does not read")
	}
	for i := 2; i <= 50; i++ {
		tr.Send(2, keepAlive(msg.ReqID(i))) // queued behind it
	}

	codec := peer.codec(t)
	expect(t, codec, 0)
	expect(t, codec, 1)
	env, err := codec.Recv()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := env.Payload.(*msg.DiskWriteV)
	if !ok || got.Req != 100 || !bytes.Equal(got.Data, big.Data) {
		t.Fatalf("read %T, want the DiskWriteV whole", env.Payload)
	}
	env.Release()
	for i := 2; i <= 50; i++ {
		expect(t, codec, msg.ReqID(i))
	}

	waitFor(t, "the writer to drain the link", idle(tr, 2))
	for i := 51; i <= 60; i++ {
		tr.Send(2, keepAlive(msg.ReqID(i))) // inline again
	}
	for i := 51; i <= 60; i++ {
		expect(t, codec, msg.ReqID(i))
	}
	expectNothingMore(t, codec, peer.conn)
}

// TestReadLoopsCannotDeadlock: two nodes whose handlers — running on their
// read loops whenever their executors are idle — answer every frame with
// a 64 KiB one, into a connection whose buffers are a few KiB each way.
// Were a send to park in a write, both read loops would be parked
// writing into sockets only the other could drain. Both must finish.
func TestReadLoopsCannotDeadlock(t *testing.T) {
	const n = 64
	payload := make([]byte, 64<<10)
	type node struct {
		tr       *Transport
		peer     msg.NodeID
		received atomic.Int32
	}
	var a, b node
	handler := func(self *node) func(msg.Envelope) {
		return func(env msg.Envelope) {
			self.received.Add(1)
			if w := env.Payload.(*msg.FuncWrite); w.Ino == 0 {
				self.tr.Send(self.peer, &msg.FuncWrite{ReqHeader: w.ReqHeader, Ino: 1, Data: payload})
			}
		}
	}
	ln := listenSmall(t)
	b.tr, b.peer = New(2, nil, handler(&b)), 1
	a.tr, a.peer = New(1, map[msg.NodeID]string{2: ln.Addr().String()}, handler(&a)), 2
	a.tr.dialFn = dialSmall
	for _, nd := range []*node{&a, &b} {
		go nd.tr.Run()
		defer nd.tr.Close()
	}
	go func() {
		c, err := ln.Accept()
		if err == nil {
			b.tr.handleInbound(c)
		}
	}()

	start := func(nd *node) {
		for i := 0; i < n; i++ {
			nd.tr.Send(nd.peer, &msg.FuncWrite{ReqHeader: msg.ReqHeader{Req: msg.ReqID(i)}, Data: payload})
		}
	}
	start(&a)
	waitFor(t, "b to learn a's connection", func() bool { c, _, _ := linkState(b.tr, 1); return c })
	start(&b)
	deadline := time.Now().Add(20 * time.Second)
	for a.received.Load() < 2*n || b.received.Load() < 2*n {
		if time.Now().After(deadline) {
			t.Fatalf("stalled: a received %d of %d frames, b %d of %d", a.received.Load(), 2*n, b.received.Load(), 2*n)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestInjectedLatencyStillDelays: a faultnet latency on the link delays
// every frame by at least its amount, and a delayed frame is a timer, not
// a parked goroutine: the goroutine count does not grow with the frames
// in flight.
func TestInjectedLatencyStillDelays(t *testing.T) {
	const (
		n     = 200
		delay = 100 * time.Millisecond
	)
	arrived := make(chan time.Time, n+1)
	recv := New(2, nil, func(msg.Envelope) { arrived <- time.Now() })
	go recv.Run()
	defer recv.Close()
	addr, err := recv.Listen(Loopback())
	if err != nil {
		t.Fatal(err)
	}
	tr := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) {})
	go tr.Run()
	defer tr.Close()
	tr.Send(2, keepAlive(0))
	<-arrived

	faults := faultnet.New(1)
	faults.SetLink(1, 2, faultnet.Link{Delay: delay})
	tr.SetFaults(faults)
	before := runtime.NumGoroutine()
	sent := time.Now()
	for i := 1; i <= n; i++ {
		tr.Send(2, keepAlive(msg.ReqID(i)))
	}
	if grew := runtime.NumGoroutine() - before; grew > n/10 {
		t.Errorf("%d goroutines more with %d delayed frames in flight", grew, n)
	}
	for i := 0; i < n; i++ {
		select {
		case at := <-arrived:
			if d := at.Sub(sent); d < delay {
				t.Fatalf("a frame delayed by %v arrived after %v", delay, d)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%d of %d delayed frames arrived", i, n)
		}
	}
}

// TestInboundConnectionTakesQueuedFrames: frames queued behind a dial
// still in progress are not lost when the peer's own connection arrives
// first and replaces the dialing link: they leave on the new connection,
// once each, in order, ahead of what is sent after.
func TestInboundConnectionTakesQueuedFrames(t *testing.T) {
	const n = 20
	a := New(1, map[msg.NodeID]string{2: "gated"}, func(msg.Envelope) {})
	dialing, gate := make(chan struct{}), make(chan struct{})
	a.dialFn = func(string) (net.Conn, error) {
		close(dialing)
		<-gate
		return nil, errors.New("the test's dial never connects")
	}
	go a.Run()
	defer a.Close()
	defer close(gate)
	addr, err := a.Listen(Loopback())
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan msg.ReqID, 2*n)
	b := New(2, map[msg.NodeID]string{1: addr.String()}, func(env msg.Envelope) {
		got <- env.Payload.(*msg.KeepAlive).Req
	})
	go b.Run()
	defer b.Close()

	for i := 1; i <= n; i++ {
		a.Send(2, keepAlive(msg.ReqID(i)))
	}
	<-dialing
	b.Send(1, keepAlive(0)) // b dials a: a's inbound link from 2
	for i := n + 1; i <= 2*n; i++ {
		a.Send(2, keepAlive(msg.ReqID(i)))
	}
	for want := msg.ReqID(1); want <= 2*n; want++ {
		select {
		case req := <-got:
			if req != want {
				t.Fatalf("b received keep-alive %d, want %d", req, want)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("keep-alive %d never arrived: the frames queued behind the dial were lost", want)
		}
	}
}

// BenchmarkTransportSend is a control message to a connected peer that
// keeps up: encoded on the caller and written there, inline, with the
// link's token — the path every send takes while nothing is queued. Its
// allocs/op must be 0.
func BenchmarkTransportSend(b *testing.B) {
	ln, err := net.Listen("tcp", Loopback())
	if err != nil {
		b.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c)
		c.Close()
	}()
	tr := New(1, map[msg.NodeID]string{2: ln.Addr().String()}, func(msg.Envelope) {})
	defer tr.Close()
	m := keepAlive(1)
	tr.Send(2, m)
	waitFor(b, "the link to connect", idle(tr, 2))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.Send(2, m)
	}
}
