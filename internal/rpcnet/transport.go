// Package rpcnet runs the Storage Tank protocol over real TCP. It gives
// each node the same three things the simulator gives it — a Clock, a
// best-effort Send, and a serial executor for all callbacks — so the
// protocol code in internal/core, internal/client, and internal/server
// runs unchanged.
//
// Datagram semantics are preserved deliberately: Send never blocks its
// caller, a dead connection silently drops traffic until the next dial
// attempt, and delivery gives no feedback. Retries, ACK/NACK, and
// at-most-once execution all come from the protocol layer, as on the
// simulated network. (Frames to one peer do leave in the order they were
// sent, over one TCP connection; the protocol does not rely on it — it
// is safe under weaker assumptions.)
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
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Transport is one node's endpoint on one network (control or SAN).
type Transport struct {
	self msg.NodeID
	// addrs maps peers this node dials (clients dial servers/disks;
	// acceptors learn peers from Hello frames).
	addrs map[msg.NodeID]string

	mu sync.Mutex
	// links holds the send path to each peer: connected, or dialing.
	links    map[msg.NodeID]*link
	listener net.Listener
	closed   bool

	// tasks is the executor every handler and timer callback is a task of:
	// own, the transport's private one that Run and Close drive, until
	// UseExecutor names a shared one.
	tasks   *Executor
	own     *Executor
	handler func(env msg.Envelope)
	clock   *sim.RealClock
	// delayClock times fault-injected send latency: a delayed message is
	// a timer on it whose callback hands the message to the send path.
	// That callback never blocks, so it may run anywhere; the default is
	// a plain wall clock firing on the timer's goroutine, and SetClock
	// overrides it for tests that own time.
	delayClock sim.Clock

	// dialFn establishes outbound connections (net.Dial in production;
	// tests swap it to observe and gate dialing).
	dialFn func(addr string) (net.Conn, error)
	// faults, when set, is the live fault-injection plan consulted for
	// every outbound and inbound message (see internal/faultnet).
	faults atomic.Pointer[faultnet.Faults]

	tracer *trace.Tracer
	// reads and framesIn count its connections' reads and the frames they
	// brought (Instrument); nil counts nothing.
	reads, framesIn *stats.Gauge
}

// New creates a transport for node self that can dial the given peers.
// handler receives every delivered envelope as a task of the transport's
// executor: one at a time with every other callback of the node, on the
// read loop's goroutine when the executor is idle and on Run's otherwise.
func New(self msg.NodeID, addrs map[msg.NodeID]string, handler func(env msg.Envelope)) *Transport {
	t := &Transport{
		self:    self,
		addrs:   addrs,
		links:   make(map[msg.NodeID]*link),
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

// Instrument registers prefix+"reads" and prefix+"frames_in" in reg: every
// read the transport's connections make (wire.Codec.Instrument), and every
// frame they bring. Both are gauges that only rise, not counters, because
// how many reads a frame costs is a matter of timing. A node's transports
// share one prefix. Call before traffic flows.
func (t *Transport) Instrument(reg *stats.Registry, prefix string) {
	t.reads, t.framesIn = reg.Gauge(prefix+"reads"), reg.Gauge(prefix+"frames_in")
}

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

// handleInbound runs an accepted connection: the preamble, the hello,
// then its writer on a goroutine of its own and its read loop on this
// one.
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
	l := t.install(from, codec)
	if l == nil {
		return
	}
	go l.drain()
	t.readLoop(l, codec)
}

// install makes a connection the send path to the peer, replacing (and
// closing) any previous one, and returns its link; nil once the
// transport is closed. What the previous link had queued — behind a dial
// still in progress, say — is not lost: an encoded frame is as good on
// any connection to the peer, so it moves to the front of the new link's
// queue. Install holds the new link's token until it has.
func (t *Transport) install(peer msg.NodeID, codec *wire.Codec) *link {
	l := newLink(t, peer)
	l.codec = codec
	l.writing = true
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		codec.Close()
		return nil
	}
	old := t.links[peer]
	t.links[peer] = l
	t.mu.Unlock()
	var queued []wire.Frame
	if old != nil {
		queued = old.retire()
	}
	l.inherit(queued)
	return l
}

// drop retires a link: it stops being the peer's send path (unless
// something has replaced it already), and its connection and queued
// frames go.
func (t *Transport) drop(l *link) {
	t.mu.Lock()
	if t.links[l.peer] == l {
		delete(t.links, l.peer)
	}
	t.mu.Unlock()
	l.close()
}

// readLoop serves the connection's read side until it ends
// (wire.Codec.Serve, DESIGN §21.6): every frame the fault plan lets
// through becomes a task of the executor, on this goroutine when the
// executor is idle.
func (t *Transport) readLoop(l *link, codec *wire.Codec) {
	peer := l.peer
	codec.Instrument(t.reads, t.framesIn)
	err := codec.Serve(func(env *msg.Envelope) {
		if f := t.faults.Load(); f != nil {
			if v := f.JudgeRecv(env.From, t.self); !v.Deliver {
				t.dropInjected(env.From, v.Reason)
				env.Release()
				return
			}
		}
		t.tasks.Do(func() {
			t.handler(*env)
			// The handler's return ends the borrow on any pooled receive
			// buffer the payload aliases; handlers that defer work past
			// this point (disk service queues) Retain first.
			env.Release()
		})
	})
	// A typed bad frame is protocol damage — corrupt framing, a codec bug,
	// a garbage-injecting middlebox — and is reported as such; everything
	// else (io.EOF above all) is the peer going away, the ordinary redial
	// case. Conflating them made chaos traces blame "peer restart" for what
	// was really frame corruption.
	if errors.Is(err, wire.ErrBadFrame) {
		t.debugf(peer, "read from %v: dropping connection on corrupt frame: %v", peer, err)
	} else {
		t.debugf(peer, "read from %v: connection closed: %v", peer, err)
	}
	t.drop(l)
}

// Send transmits best-effort and never blocks its caller: the message is
// encoded on the calling goroutine and written there with one
// nonblocking write when the peer's link is idle, and otherwise queued
// for the link's writer (DESIGN §21). So no read loop — which runs
// handlers, which send — ever parks in a write, and two nodes writing
// into each other's full sockets cannot wait on each other. Frames to
// one peer leave in the order they were sent. Failures drop the message,
// exactly like a lost datagram. An installed fault plan is consulted
// first: blocked or lost messages are dropped before any socket work,
// and injected latency is a timer on the delay clock that hands the
// message to the same path when it fires. A payload the sender lent
// (msg.EndLoan) goes back to its pool when its frame has been written or
// dropped, or when there is no way to the peer; one the fault plan drops
// is left to the garbage collector.
func (t *Transport) Send(to msg.NodeID, m msg.Message) {
	if f := t.faults.Load(); f != nil {
		v := f.JudgeSend(t.self, to)
		if !v.Deliver {
			t.dropInjected(to, v.Reason)
			return
		}
		if v.Delay > 0 {
			t.delay(to, m, v.Delay)
			return
		}
	}
	t.send(to, m)
}

// delay hands m to the send path once d has passed on the delay clock.
func (t *Transport) delay(to msg.NodeID, m msg.Message, d time.Duration) {
	t.delayClock.AfterFunc(d, func() { t.send(to, m) })
}

// send is Send after the fault plan.
func (t *Transport) send(to msg.NodeID, m msg.Message) {
	if l := t.linkTo(to); l != nil {
		l.send(m)
	} else {
		msg.EndLoan(m)
	}
}

// linkTo returns the send path to the peer, starting one — a link whose
// token the dial holds until it connects, so that every send meanwhile
// queues — when there is none. Dials are single-flight per peer because
// links are: two simultaneous Sends to an unconnected peer queue on one
// link behind one dial. It returns nil, having said why, when there is
// no way to reach the peer.
func (t *Transport) linkTo(peer msg.NodeID) *link {
	t.mu.Lock()
	if l := t.links[peer]; l != nil {
		t.mu.Unlock()
		return l
	}
	if t.closed {
		t.mu.Unlock()
		t.debugf(peer, "send to %v: rpcnet: transport closed", peer)
		return nil
	}
	addr, ok := t.addrs[peer]
	if !ok {
		t.mu.Unlock()
		t.debugf(peer, "send to %v: rpcnet: no address for %v and no inbound connection", peer, peer)
		return nil
	}
	l := newLink(t, peer)
	l.writing = true
	t.links[peer] = l
	t.mu.Unlock()
	go t.dial(l, addr)
	return l
}

// dial connects a link that linkTo started — the version preamble, then
// the hello — and then becomes its writer, draining what queued while it
// dialed. A failed dial drops the link and everything queued on it.
func (t *Transport) dial(l *link, addr string) {
	codec, err := t.connect(l.peer, addr)
	if err != nil {
		t.debugf(l.peer, "send to %v: %v", l.peer, err)
		t.drop(l)
		return
	}
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		codec.Close()
		return
	}
	l.codec = codec
	l.writing = false
	l.mu.Unlock()
	go t.readLoop(l, codec)
	l.ring()
	l.drain()
}

// connect establishes one outbound connection.
func (t *Transport) connect(peer msg.NodeID, addr string) (*wire.Codec, error) {
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
	return codec, nil
}

// Close shuts the transport down: the listener, every link with what is
// queued on it, and the private executor, whose Close waits out a
// handler still running there. Call it from outside a handler.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	l := t.listener
	links := t.links
	t.links = make(map[msg.NodeID]*link)
	t.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, lk := range links {
		lk.close()
	}
	t.own.Close()
}

// link is the send path to one peer over one connection: a FIFO of
// encoded frames and a write token (DESIGN §21) — Executor.Do's
// discipline, applied to a socket. Whoever holds the token is the only
// one writing to the connection: a Send that found the link idle, for
// one nonblocking write; the link's writer, for a blocking drain; the
// dial, until the connection exists; or install, until the frames of the
// link it replaced are queued. A Send that finds the token held, or
// frames queued, queues its own frame behind them and returns. So:
//
//   - Send never blocks its caller: the only write it makes is TryWrite,
//     which never parks, and only with the token;
//   - frames leave in the order they were queued, and a Send writes
//     inline only when nothing is queued, which overtakes nothing; what a
//     short inline write leaves goes back to the head of the queue;
//   - the queue is unbounded, as the executor's is (ROADMAP item 1).
type link struct {
	t    *Transport
	peer msg.NodeID

	mu sync.Mutex
	// codec is the connection; nil while the dial that holds the token
	// is in progress.
	codec *wire.Codec
	// enc is the encoder every Send to this peer runs on, under mu.
	enc msg.Coder
	// queue holds the frames not yet wholly written, in order; spare is
	// the writer's other buffer: the two swap at every drain.
	queue, spare []wire.Frame
	// writing is the token.
	writing bool
	closed  bool
	// wake is the writer's doorbell: rung with frames queued and the
	// token free, and when the link closes.
	wake chan struct{}
}

func newLink(t *Transport, peer msg.NodeID) *link {
	return &link{t: t, peer: peer, wake: make(chan struct{}, 1)}
}

// send encodes m and writes it inline if the link is idle, or queues it.
func (l *link) send(m msg.Message) {
	env := msg.Envelope{From: l.t.self, To: l.peer, Payload: m}
	l.mu.Lock()
	f, err := wire.Encode(&l.enc, &env)
	if err != nil {
		l.mu.Unlock()
		msg.EndLoan(m)
		if errors.Is(err, wire.ErrFrameTooLarge) {
			l.t.refuse(l.peer, m, err)
		} else {
			l.t.fail(l, err)
		}
		return
	}
	if l.closed || l.writing || len(l.queue) > 0 {
		l.enqueue(f)
		l.mu.Unlock()
		return
	}
	l.writing = true
	codec := l.codec
	l.mu.Unlock()
	done, err := codec.TryWrite(&f)
	if err != nil {
		f.Release()
		l.t.fail(l, err)
		return
	}
	if done {
		f.Release()
	}
	l.mu.Lock()
	if !done {
		l.requeue(f)
	}
	l.writing = false
	if len(l.queue) > 0 {
		l.ring()
	}
	l.mu.Unlock()
}

// enqueue appends f to the queue, or ends it on a closed link. Called
// with l.mu held.
func (l *link) enqueue(f wire.Frame) {
	if l.closed {
		f.Release()
		return
	}
	l.queue = append(l.queue, f)
	if !l.writing {
		l.ring()
	}
}

// requeue puts back what a short inline write left of f: at the head of
// the queue, in front of whatever queued while it was being written.
// Called with l.mu held and the token.
func (l *link) requeue(f wire.Frame) {
	if l.closed {
		f.Release()
		return
	}
	l.queue = append(l.queue, wire.Frame{})
	copy(l.queue[1:], l.queue)
	l.queue[0] = f
}

// ring wakes the writer, if it is not awake already.
func (l *link) ring() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// drain is the link's writer: one goroutine per connection, from its
// accept or dial until the link closes. At each wake it takes the token
// and everything queued, writes it all with one writev — parking here,
// on a goroutine of its own, is what it is for — ends the frames, and
// gives the token back.
func (l *link) drain() {
	for range l.wake {
		for {
			l.mu.Lock()
			if l.closed {
				l.mu.Unlock()
				return
			}
			if l.writing || len(l.queue) == 0 {
				l.mu.Unlock()
				break
			}
			batch := l.queue
			l.queue, l.spare = l.spare, nil
			l.writing = true
			codec := l.codec
			l.mu.Unlock()
			err := codec.WriteFrames(batch)
			for i := range batch {
				batch[i].Release()
			}
			if err != nil {
				l.t.fail(l, err)
				return
			}
			l.mu.Lock()
			l.writing = false
			l.spare = batch[:0]
			l.mu.Unlock()
		}
	}
}

// close ends the link: what is queued is dropped, each frame ended, and
// the connection closed, which fails a write in progress; the writer
// wakes to find the link closed.
func (l *link) close() {
	queued := l.retire()
	for i := range queued {
		queued[i].Release()
	}
}

// retire closes the link as close does, but returns what was queued on it
// instead of ending it: the caller owns those frames now.
func (l *link) retire() []wire.Frame {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	queued := l.queue
	l.queue = nil
	codec := l.codec
	l.mu.Unlock()
	if codec != nil {
		codec.Close()
	}
	l.ring()
	return queued
}

// inherit puts the frames a replaced link had queued in front of l's own,
// each rewound — a frame the old connection took part of never reached
// the peer whole — and gives back the token install held meanwhile.
func (l *link) inherit(fs []wire.Frame) {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		for i := range fs {
			fs[i].Release()
		}
		return
	}
	for i := range fs {
		fs[i].Rewind()
	}
	l.queue = append(fs, l.queue...)
	l.writing = false
	if len(l.queue) > 0 {
		l.ring()
	}
	l.mu.Unlock()
}

// refuse reports a message too large to frame. Nothing was written, so
// the connection and everything else in flight on it are fine: dropping
// it would only have the sender redial to be refused again.
func (t *Transport) refuse(peer msg.NodeID, m msg.Message, err error) {
	t.debugf(peer, "send to %v: dropping %T: %v", peer, m, err)
}

// fail reports any other send error — a write's, or an encoding's other
// than ErrFrameTooLarge — and drops the link it happened on.
func (t *Transport) fail(l *link, err error) {
	t.debugf(l.peer, "send to %v: %v", l.peer, err)
	t.drop(l)
}
