// Package rpcnet runs the Storage Tank protocol over real TCP. It gives
// each node the same three things the simulator gives it — a Clock, a
// best-effort Send, and a serial executor for all callbacks — so the
// protocol code in internal/core, internal/client, and internal/server
// runs unchanged.
//
// Datagram semantics are preserved deliberately: Send never blocks the
// executor, a dead connection silently drops traffic until the next dial
// attempt, and delivery gives no feedback. Retries, ACK/NACK, and
// at-most-once execution all come from the protocol layer, as on the
// simulated network. (A TCP connection does provide ordering per peer,
// which the protocol does not rely on — it is safe under weaker
// assumptions.)
package rpcnet

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faultnet"
	"repro/internal/msg"
	"repro/internal/sim"
	"repro/internal/simnet"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Transport is one node's endpoint on one network (control or SAN).
type Transport struct {
	self msg.NodeID
	// addrs maps peers this node dials (clients dial servers/disks;
	// acceptors learn peers from Hello frames).
	addrs map[msg.NodeID]string

	mu       sync.Mutex
	conns    map[msg.NodeID]*wire.Codec
	dials    map[msg.NodeID]*dialCall
	listener net.Listener
	closed   bool

	// tasks is the executor every handler and timer callback is a task of:
	// own, the transport's private one that Run and Close drive, until
	// UseExecutor names a shared one.
	tasks   *Executor
	own     *Executor
	handler func(env msg.Envelope)
	clock   *sim.RealClock
	// delayClock times fault-injected send latency. Unlike clock, its
	// callbacks must never funnel through the executor: the send
	// goroutine parks on it, and a drained executor would turn a 5ms
	// injected delay into a leaked goroutine. Defaults to a plain wall
	// clock; SetClock overrides it for tests that own time.
	delayClock sim.Clock

	// dialFn establishes outbound connections (net.Dial in production;
	// tests swap it to observe and gate dialing).
	dialFn func(addr string) (net.Conn, error)
	// faults, when set, is the live fault-injection plan consulted for
	// every outbound and inbound message (see internal/faultnet).
	faults atomic.Pointer[faultnet.Faults]

	tracer *trace.Tracer
}

// New creates a transport for node self that can dial the given peers.
// handler receives every delivered envelope as a task of the transport's
// executor: one at a time with every other callback of the node, on the
// read loop's goroutine when the executor is idle and on Run's otherwise.
func New(self msg.NodeID, addrs map[msg.NodeID]string, handler func(env msg.Envelope)) *Transport {
	t := &Transport{
		self:    self,
		addrs:   addrs,
		conns:   make(map[msg.NodeID]*wire.Codec),
		dials:   make(map[msg.NodeID]*dialCall),
		own:     NewExecutor(),
		handler: handler,
		dialFn:  func(addr string) (net.Conn, error) { return net.Dial("tcp", addr) },
	}
	t.tasks = t.own
	t.clock = sim.NewRealClock(t.own.Do)
	t.delayClock = sim.NewRealClock(nil)
	return t
}

// UseExecutor makes this transport's deliveries and timers tasks of a
// shared executor, for nodes attached to more than one network. Call
// before traffic flows.
func (t *Transport) UseExecutor(e *Executor) {
	t.tasks = e
	t.clock.SetExec(e.Do)
}

// SetClock overrides the clock that times fault-injected send latency
// (default: a wall clock firing on the timer goroutine). Call before
// traffic flows.
func (t *Transport) SetClock(c sim.Clock) {
	if c != nil {
		t.delayClock = c
	}
}

// SetTracer attaches a trace bus; connection-level diagnostics (accepts,
// dial failures, dropped sends) are emitted as EvTransport events
// stamped with this node's ID and wall clock.
func (t *Transport) SetTracer(tr *trace.Tracer) { t.tracer = tr }

// SetFaults installs (or, with nil, removes) a fault-injection plan.
// Every outbound message is judged by faults.JudgeSend — structural
// blocks and probabilistic loss drop it, configured latency delays it —
// and every inbound message by faults.JudgeRecv. Safe to call at
// runtime; faults apply to messages judged after the call.
func (t *Transport) SetFaults(f *faultnet.Faults) { t.faults.Store(f) }

// Faults returns the installed fault plan, if any.
func (t *Transport) Faults() *faultnet.Faults { return t.faults.Load() }

// dropInjected reports a fault-injected drop under the canonical
// EvTransport note (DropReason.Note()).
func (t *Transport) dropInjected(peer msg.NodeID, r simnet.DropReason) {
	if t.tracer.Enabled() {
		t.tracer.Emit(trace.Event{
			Type: trace.EvTransport,
			Node: t.self,
			Time: t.clock.Now(),
			Peer: peer,
			Note: r.Note(),
		})
	}
}

// debugf reports a transport diagnostic to the trace bus, when one is
// attached (trace.NewLogf turns it into log lines). peer is the remote
// node the diagnostic concerns (0 when unknown).
func (t *Transport) debugf(peer msg.NodeID, format string, args ...any) {
	if t.tracer.Enabled() {
		t.tracer.Emit(trace.Event{
			Type: trace.EvTransport,
			Node: t.self,
			Time: t.clock.Now(),
			Peer: peer,
			Note: fmt.Sprintf(format, args...),
		})
	}
}

// Clock returns the node's wall clock; its timers fire as executor tasks.
func (t *Transport) Clock() sim.Clock { return t.clock }

// Submit enqueues fn on the executor.
func (t *Transport) Submit(fn func()) { t.tasks.Submit(fn) }

// Run processes the private executor's queued tasks until Close. Call from
// a dedicated goroutine (or main). Not needed when UseExecutor routes
// callbacks to a shared executor.
func (t *Transport) Run() { t.own.Run() }

// Listen accepts inbound connections on addr (servers, disks).
func (t *Transport) Listen(addr string) (net.Addr, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: listen %s: %w", addr, err)
	}
	t.mu.Lock()
	t.listener = l
	t.mu.Unlock()
	go t.acceptLoop(l)
	return l.Addr(), nil
}

func (t *Transport) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		go t.handleInbound(conn)
	}
}

func (t *Transport) handleInbound(conn net.Conn) {
	codec, err := wire.Accept(conn)
	if err != nil {
		t.debugf(0, "inbound preamble from %v failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	from, err := codec.RecvHello()
	if err != nil {
		t.debugf(0, "inbound hello from %v failed: %v", conn.RemoteAddr(), err)
		conn.Close()
		return
	}
	t.debugf(from, "accepted %v from %v", from, conn.RemoteAddr())
	t.register(from, codec)
	t.readLoop(from, codec)
}

// register installs the connection for outbound traffic to the peer,
// replacing (and closing) any previous one.
func (t *Transport) register(peer msg.NodeID, codec *wire.Codec) {
	t.mu.Lock()
	old := t.conns[peer]
	t.conns[peer] = codec
	t.mu.Unlock()
	if old != nil && old != codec {
		old.Close()
	}
}

func (t *Transport) dropConn(peer msg.NodeID, codec *wire.Codec) {
	t.mu.Lock()
	if t.conns[peer] == codec {
		delete(t.conns, peer)
	}
	t.mu.Unlock()
	codec.Close()
}

func (t *Transport) readLoop(peer msg.NodeID, codec *wire.Codec) {
	for {
		env, err := codec.Recv()
		if err != nil {
			// A typed bad frame is protocol damage — corrupt framing, a
			// codec bug, a garbage-injecting middlebox — and is reported as
			// such; everything else (io.EOF above all) is the peer going
			// away, the ordinary redial case. Conflating them made chaos
			// traces blame "peer restart" for what was really frame
			// corruption.
			if errors.Is(err, wire.ErrBadFrame) {
				t.debugf(peer, "read from %v: dropping connection on corrupt frame: %v", peer, err)
			} else {
				t.debugf(peer, "read from %v: connection closed: %v", peer, err)
			}
			t.dropConn(peer, codec)
			return
		}
		if f := t.faults.Load(); f != nil {
			if v := f.JudgeRecv(env.From, t.self); !v.Deliver {
				t.dropInjected(env.From, v.Reason)
				env.Release()
				continue
			}
		}
		e := *env
		t.tasks.Do(func() {
			t.handler(e)
			// The handler's return ends the borrow on any pooled receive
			// buffer the payload aliases; handlers that defer work past
			// this point (disk service queues) Retain first.
			e.Release()
		})
	}
}

// Send transmits best-effort. It runs the (possibly blocking) dial and
// write on a goroutine so the executor never stalls — and, now that a
// delivery may be running on a read loop's goroutine, so that no read loop
// ever parks in a write: two nodes that each wrote from their read loop
// into the other's full socket would wait on each other for good. Failures
// drop the message, exactly like a lost datagram. An installed fault plan is
// consulted first: blocked or lost messages are dropped before any
// socket work, and injected latency sleeps on the send goroutine. A
// payload the sender lent (msg.EndLoan) goes back to its pool when the
// send goroutine is through with the message, written or not; one dropped
// before that is left to the garbage collector. (The two calls are not a
// defer: a defer record makes this goroutine's frame 32 bytes larger,
// which is enough for the deepest encode under it to outgrow the 2 KiB
// stack every send goroutine starts with — measured, −8 % on meta_storm.)
func (t *Transport) Send(to msg.NodeID, m msg.Message) {
	env := msg.Envelope{From: t.self, To: to, Payload: m}
	var delay time.Duration
	if f := t.faults.Load(); f != nil {
		v := f.JudgeSend(t.self, to)
		if !v.Deliver {
			t.dropInjected(to, v.Reason)
			return
		}
		delay = v.Delay
	}
	go func() {
		if delay > 0 {
			sim.Sleep(t.delayClock, delay)
		}
		codec, err := t.connTo(to)
		if err != nil {
			t.debugf(to, "send to %v: %v", to, err)
			msg.EndLoan(env.Payload)
			return
		}
		err = codec.Send(&env)
		msg.EndLoan(env.Payload)
		if errors.Is(err, wire.ErrFrameTooLarge) {
			// Refused before a byte was written: the connection and
			// everything else in flight on it are fine, and dropping it
			// would only have the sender redial to be refused again.
			t.debugf(to, "send to %v: dropping %T: %v", to, env.Payload, err)
		} else if err != nil {
			t.debugf(to, "send to %v: %v", to, err)
			t.dropConn(to, codec)
		}
	}()
}

// dialCall is an in-flight dial to one peer; concurrent senders wait on
// done instead of dialing again.
type dialCall struct {
	done  chan struct{}
	codec *wire.Codec
	err   error
}

// connTo returns (dialing if necessary) a connection to the peer. Dials
// are single-flight per peer: without that, two simultaneous Sends to
// an unconnected peer would both dial, the loser's connection would be
// closed by register, and its in-flight message silently lost even
// though the network was healthy.
func (t *Transport) connTo(peer msg.NodeID) (*wire.Codec, error) {
	t.mu.Lock()
	if c, ok := t.conns[peer]; ok {
		t.mu.Unlock()
		return c, nil
	}
	if t.closed {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpcnet: transport closed")
	}
	if dc, ok := t.dials[peer]; ok {
		t.mu.Unlock()
		<-dc.done
		return dc.codec, dc.err
	}
	addr, ok := t.addrs[peer]
	if !ok {
		t.mu.Unlock()
		return nil, fmt.Errorf("rpcnet: no address for %v and no inbound connection", peer)
	}
	dc := &dialCall{done: make(chan struct{})}
	t.dials[peer] = dc
	t.mu.Unlock()

	dc.codec, dc.err = t.dial(peer, addr)
	t.mu.Lock()
	delete(t.dials, peer)
	t.mu.Unlock()
	close(dc.done)
	return dc.codec, dc.err
}

// dial establishes and registers one outbound connection: the version
// preamble, then the hello.
func (t *Transport) dial(peer msg.NodeID, addr string) (*wire.Codec, error) {
	conn, err := t.dialFn(addr)
	if err != nil {
		return nil, fmt.Errorf("rpcnet: dial %v (%s): %w", peer, addr, err)
	}
	codec, err := wire.Dial(conn, wire.Binary)
	if err != nil {
		conn.Close()
		return nil, err
	}
	if err := codec.SendHello(t.self); err != nil {
		conn.Close()
		return nil, err
	}
	t.register(peer, codec)
	go t.readLoop(peer, codec)
	return codec, nil
}

// Close shuts the transport down: the listener, every connection, and the
// private executor, whose Close waits out a handler still running there.
// Call it from outside a handler.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	l := t.listener
	conns := t.conns
	t.conns = make(map[msg.NodeID]*wire.Codec)
	t.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	t.own.Close()
}
