package rpcnet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/msg"
	"repro/internal/stats"
)

// TestConnToSingleFlight is the regression test for the concurrent-dial
// race: two (or more) simultaneous Sends to an unconnected peer each
// used to dial, and every register replaced — and closed — the previous
// winner's connection, so a message written on a just-replaced codec
// was silently lost on a perfectly healthy network. The dial must be
// single-flight per peer: one TCP connection, every message delivered.
func TestConnToSingleFlight(t *testing.T) {
	var delivered atomic.Int32
	recv := New(2, nil, func(msg.Envelope) { delivered.Add(1) })
	go recv.Run()
	defer recv.Close()
	addr, err := recv.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	tr := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) {})
	go tr.Run()
	defer tr.Close()

	// Gate the dial so every concurrent Send reaches connTo while the
	// peer is still unconnected — the deterministic version of the race.
	var dials atomic.Int32
	gate := make(chan struct{})
	tr.dialFn = func(a string) (net.Conn, error) {
		dials.Add(1)
		<-gate
		return net.Dial("tcp", a)
	}

	const n = 16
	for i := 0; i < n; i++ {
		tr.Send(2, &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 1, Req: msg.ReqID(i + 1)}})
	}
	// Let all n send goroutines reach the dial path, then release it.
	time.Sleep(100 * time.Millisecond)
	close(gate)

	deadline := time.Now().Add(5 * time.Second)
	for delivered.Load() < n && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if got := dials.Load(); got != 1 {
		t.Fatalf("%d concurrent sends dialed %d times, want 1 (single-flight)", n, got)
	}
	if got := delivered.Load(); got != n {
		t.Fatalf("delivered %d of %d messages sent on a healthy network", got, n)
	}
}

// TestInlineDeliveryKeepsPeerOrder: two frames from one peer are handled
// in the order they arrived, the second only after the first's handler has
// returned, whichever goroutine runs them — the read loop's when the
// executor is idle as the first arrives, Run's when it is busy.
func TestInlineDeliveryKeepsPeerOrder(t *testing.T) {
	for _, busy := range []bool{false, true} {
		name := "idle at arrival"
		if busy {
			name = "busy at arrival"
		}
		t.Run(name, func(t *testing.T) {
			var (
				order   []msg.ReqID // written by handlers: executor tasks
				holding bool
				overlap bool
			)
			entered, gate := make(chan struct{}), make(chan struct{})
			handled := make(chan struct{}, 2)
			recv := New(2, nil, func(env msg.Envelope) {
				req := env.Payload.(*msg.KeepAlive).Req
				if holding {
					overlap = true
				}
				if req == 1 {
					holding = true
					close(entered)
					<-gate
					holding = false
				}
				order = append(order, req)
				handled <- struct{}{}
			})
			go recv.Run()
			defer recv.Close()
			addr, err := recv.Listen("127.0.0.1:0")
			if err != nil {
				t.Fatal(err)
			}
			tr := New(1, map[msg.NodeID]string{2: addr.String()}, func(msg.Envelope) {})
			go tr.Run()
			defer tr.Close()

			release := make(chan struct{})
			if busy {
				occupied := make(chan struct{})
				recv.Submit(func() {
					close(occupied)
					<-release
				})
				<-occupied
			}
			frame := func(req msg.ReqID) *msg.KeepAlive {
				return &msg.KeepAlive{ReqHeader: msg.ReqHeader{Client: 1, Req: req}}
			}
			// Two Sends race each other to the socket, so the second goes
			// out only when the first has provably arrived.
			tr.Send(2, frame(1))
			if busy {
				queued := func(n int) func() bool {
					return func() bool {
						recv.own.mu.Lock()
						defer recv.own.mu.Unlock()
						return recv.own.n == n
					}
				}
				waitFor(t, "the first frame to queue behind the busy executor", queued(1))
				tr.Send(2, frame(2))
				waitFor(t, "the second frame to queue behind the first", queued(2))
				close(release)
				<-entered
			} else {
				<-entered
				tr.Send(2, frame(2))
				// The second frame cannot be handled while the first holds
				// the executor; give a wrong implementation time to try.
				time.Sleep(20 * time.Millisecond)
			}
			close(gate)
			for i := 0; i < 2; i++ {
				select {
				case <-handled:
				case <-time.After(5 * time.Second):
					t.Fatal("a frame was never handled")
				}
			}
			done := make(chan struct{})
			recv.Submit(func() {
				defer close(done)
				if overlap {
					t.Error("the second frame's handler ran while the first's was still running")
				}
				if len(order) != 2 || order[0] != 1 || order[1] != 2 {
					t.Errorf("frames handled in order %v, want [1 2]", order)
				}
			})
			<-done
		})
	}
}

// waitFor polls cond until it holds, failing the test after 5 s.
func waitFor(t testing.TB, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHandlerDropsItsOwnLink: a handler running inline on the read loop —
// the executor was idle — drops the link it arrived on, as a failed send
// to the same peer does. The handler returns, the read loop exits, and the
// descriptor is closed: the connection's Close shut the socket down rather
// than wait for the read the handler runs inside.
func TestHandlerDropsItsOwnLink(t *testing.T) {
	returned := make(chan struct{}, 1)
	var b *Transport
	b = New(2, nil, func(msg.Envelope) {
		b.mu.Lock()
		l := b.links[1]
		b.mu.Unlock()
		b.drop(l)
		returned <- struct{}{}
	})
	go b.Run()
	defer b.Close()
	ln, err := net.Listen("tcp", Loopback())
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		b.handleInbound(c) // returns when the read loop exits
		served <- c
	}()
	a := New(1, map[msg.NodeID]string{2: ln.Addr().String()}, func(msg.Envelope) {})
	go a.Run()
	defer a.Close()

	a.Send(2, keepAlive(1))
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("the handler that dropped its own link never returned")
	}
	select {
	case c := <-served:
		raw, err := c.(*net.TCPConn).SyscallConn()
		if err != nil {
			t.Fatal(err)
		}
		if raw.Control(func(uintptr) {}) == nil {
			t.Fatal("the read loop exited and left the descriptor open")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("the read loop never exited")
	}
}

// TestNodesCountReadsPerFrame: every node registers its transports'
// net.reads and net.frames_in, and on a live installation a frame costs
// one read, not the two of a loop that reads until EAGAIN: one to bring
// it, one to find the socket empty.
func TestNodesCountReadsPerFrame(t *testing.T) {
	lc := startLive(t, 1)
	lc.start(t, 0)
	fs := lc.clients[0].Sync(5 * time.Second)
	for i := 0; i < 20; i++ {
		if _, err := fs.Create(fmt.Sprintf("/f%d", i), false); err != nil {
			t.Fatal(err)
		}
	}
	for _, c := range []struct {
		reg  *stats.Registry
		node string
	}{{lc.clients[0].Reg, "client.n10"}, {lc.srvs[0].Reg, "server.n1"}} {
		reads := c.reg.Gauge(c.node + ".net.reads").Value()
		frames := c.reg.Gauge(c.node + ".net.frames_in").Value()
		t.Logf("%s: %d frames in %d reads", c.node, frames, reads)
		if frames < 20 || reads >= 2*frames {
			t.Errorf("%s: %d frames in %d reads, want at least 20 frames and fewer than two reads each", c.node, frames, reads)
		}
	}
}
