package wire

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/stats"
)

// MaxFrame bounds a frame body: a received length prefix beyond it is
// treated as corrupt rather than a reason to allocate gigabytes, and
// Encode refuses to produce one. It is no tight bound on legitimate
// frames. A flush batch or a read-ahead reply is at most a few hundred
// KiB, but a grant's block map grows with its file and a ReaddirRes with
// its directory. So the receiver does not trust a length prefix with
// memory: beyond bufpool.MaxClass its buffer grows only as the frame's
// bytes arrive (DESIGN.md §12.3).
const MaxFrame = 1 << 24

// Codec frames envelopes over one connection: length-prefixed frames in
// the fixed layout of msg.Coder (DESIGN.md §12). A connection is read by
// one goroutine, with Serve, or with RecvHello and Recv, which park it
// for every read. A connection is written one of two ways, never both:
// Send, safe for concurrent use and parking its caller until the socket
// has taken the frame; or by whoever holds the connection's write token —
// a token its user keeps (internal/rpcnet keeps one per peer, DESIGN.md
// §21) — with TryWrite, which never parks, and WriteFrames, which does.
//
// A frame stages the length prefix and metadata in a pooled buffer and
// carries bulk page data as a scatter-gather tail straight from the
// sender's buffer (writev), so steady-state sends copy no page bytes and
// allocate nothing. A received frame costs its message and nothing more
// (DESIGN.md §12.3): every frame is decoded where it landed in the
// connection buffer, a pooled one. A SAN page message, whose Data aliases
// its frame, takes that buffer with it and owns it through its borrow
// until the last release returns it to the pool; the connection reads on
// into a fresh one. A page frame under half its buffer is copied into a
// pooled body of its own instead, so no message pins more than twice its
// frame's bytes.
type Codec struct {
	conn net.Conn

	// The reader's, whether it reads with Serve or Recv. buf is a pooled
	// buffer, and buf[r:w] is what has been read and not parsed: whole
	// frames, then the start of one, which is decoded in the buffer once
	// it has all arrived (DESIGN.md §12.3). env is what the last frame
	// decoded to, until Serve has delivered it or Recv handed it over.
	dec  msg.Coder
	buf  []byte
	r, w int
	env  msg.Envelope
	// reads and frames count reads and decoded frames (Instrument).
	reads, frames *stats.Gauge

	// Serve's: deliver, dry and serveErr are readFrames' state across the
	// calls the runtime makes of it. readMsg is its recvmsg header, naming
	// readIOV and inq, room for the kernel's TCP_INQ control message: a
	// Cmsghdr and an int32.
	deliver  func(*msg.Envelope)
	dry      bool
	serveErr error
	readMsg  syscall.Msghdr
	readIOV  syscall.Iovec
	inq      [3]uint64
	// state is idle, serving or closed: Close shuts a served socket down
	// where it closes any other.
	state atomic.Int32

	wmu sync.Mutex
	enc msg.Coder // Send's, under wmu
	// one is the frame Send hands WriteFrames, under wmu.
	one [1]Frame

	// The write token's scratch, used only by its holder.
	//
	// raw is the connection's file descriptor, for TryWrite (and Serve and
	// Close), nil when the connection has none (then TryWrite takes
	// nothing and every frame waits for WriteFrames). tryFD is writeFD
	// bound once, so handing it to raw allocates nothing; tryHead and
	// tryTail are what it writes, tryN and tryErr its results, and tryIOV
	// its writev vector.
	raw              syscall.RawConn
	tryFD            func(fd uintptr) bool
	tryHead, tryTail []byte
	tryN             int
	tryErr           error
	tryIOV           [2]syscall.Iovec
	// vec and bufs are WriteFrames' scatter list, reused across drains
	// (and across Sends, on a connection written that way).
	vec  [][]byte
	bufs net.Buffers
}

// readBuf is the size of a connection's receive buffer until a frame
// outgrows it.
const readBuf = 64 << 10

// The codec's states: Serve moves idle to serving, Close anything to
// closed.
const (
	idle int32 = iota
	serving
	closed
)

func newCodec(conn net.Conn) *Codec {
	c := &Codec{conn: conn, buf: bufpool.Get(readBuf)}
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
		}
	}
	c.tryFD = c.writeFD
	return c
}

// Instrument counts every read the codec makes into reads — in Serve,
// every recvmsg(2), EAGAIN included — and every frame it decodes into
// frames. Call before the first read.
func (c *Codec) Instrument(reads, frames *stats.Gauge) { c.reads, c.frames = reads, frames }

// Frame is one envelope framed for the wire and not yet wholly written:
// the length prefix and metadata section in a pooled buffer the frame
// owns, then the bulk Data, sent in place from the sender's buffer. A
// frame ends with Release, written or dropped.
type Frame struct {
	head, tail []byte
	off        int         // bytes of head, then tail, already written
	m          msg.Message // the payload, whose loan ends with the frame
}

// Encode frames env on the calling goroutine, on enc, which the caller
// holds exclusively for the call. An envelope whose frame the receiver
// would refuse is refused here, with ErrFrameTooLarge and nothing
// allocated: refused at the far end it reads as a corrupt length prefix,
// and the connection dies with everything else in flight on it while
// the sender retries the same frame.
func Encode(enc *msg.Coder, env *msg.Envelope) (Frame, error) {
	meta, tail, err := enc.Size(env)
	if err != nil {
		return Frame{}, err
	}
	if meta+len(tail) > MaxFrame {
		return Frame{}, ErrFrameTooLarge
	}
	buf := bufpool.Get(4 + meta)
	binary.BigEndian.PutUint32(buf, uint32(meta+len(tail)))
	if err := enc.Encode(buf[4:], env); err != nil {
		bufpool.Put(buf)
		return Frame{}, err
	}
	return Frame{head: buf, tail: tail, m: env.Payload}, nil
}

// Release ends the frame, written or dropped: its head goes back to the
// pool, and a payload its sender lent ends its loan (msg.EndLoan).
func (f *Frame) Release() {
	bufpool.Put(f.head)
	msg.EndLoan(f.m)
	*f = Frame{}
}

// Rewind makes f whole again, to be written from its first byte on
// another connection to the same peer. What a closed connection took of a
// frame it never finished is no frame to the peer: its reader fails on
// the truncated body and drops that connection.
func (f *Frame) Rewind() { f.off = 0 }

// rest returns what is still to be written of f.
func (f *Frame) rest() (head, tail []byte) {
	if f.off < len(f.head) {
		return f.head[f.off:], f.tail
	}
	return nil, f.tail[f.off-len(f.head):]
}

// TryWrite writes as much of f as the socket takes now — one write, or
// one writev when what is left has a tail — and never parks: the callback
// it hands the connection's RawConn reports done whatever the system call
// said, so a full socket (EAGAIN) is nothing written rather than a wait.
// It reports whether f is now wholly written; what is not stays in f for
// WriteFrames. The caller holds the connection's write token.
func (c *Codec) TryWrite(f *Frame) (bool, error) {
	if c.raw == nil {
		return false, nil
	}
	c.tryHead, c.tryTail = f.rest()
	err := c.raw.Write(c.tryFD)
	n, werr := c.tryN, c.tryErr
	c.tryHead, c.tryTail, c.tryN, c.tryErr = nil, nil, 0, nil
	if err == nil {
		err = werr
	}
	if err != nil {
		return false, err
	}
	f.off += n
	return f.off == len(f.head)+len(f.tail), nil
}

// writeFD is TryWrite's one system call, on the connection's descriptor,
// which the runtime keeps nonblocking.
func (c *Codec) writeFD(fd uintptr) bool {
	head, tail := c.tryHead, c.tryTail
	var n uintptr
	var errno syscall.Errno
	switch {
	case len(tail) == 0:
		n, _, errno = syscall.Syscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&head[0])), uintptr(len(head)))
	case len(head) == 0:
		n, _, errno = syscall.Syscall(syscall.SYS_WRITE, fd, uintptr(unsafe.Pointer(&tail[0])), uintptr(len(tail)))
	default:
		c.tryIOV[0].Base, c.tryIOV[1].Base = &head[0], &tail[0]
		c.tryIOV[0].SetLen(len(head))
		c.tryIOV[1].SetLen(len(tail))
		n, _, errno = syscall.Syscall(syscall.SYS_WRITEV, fd, uintptr(unsafe.Pointer(&c.tryIOV[0])), 2)
		c.tryIOV = [2]syscall.Iovec{} // the vector must not pin a frame
	}
	switch errno {
	case 0:
		c.tryN = int(n)
	case syscall.EAGAIN, syscall.EINTR:
		// Nothing taken: the frame waits for WriteFrames.
	default:
		c.tryErr = os.NewSyscallError("write", errno)
	}
	return true
}

// WriteFrames writes what is left of every frame in fs, in order, with
// one writev where the socket takes it all (more where it takes less, or
// fs holds more buffers than one writev may), parking until it has. It
// is the token holder's blocking drain: the caller runs it on a goroutine
// that may wait, and releases the frames after.
func (c *Codec) WriteFrames(fs []Frame) error {
	for i := range fs {
		head, tail := fs[i].rest()
		if len(head) > 0 {
			c.vec = append(c.vec, head)
		}
		if len(tail) > 0 {
			c.vec = append(c.vec, tail)
		}
	}
	c.bufs = c.vec
	_, err := c.bufs.WriteTo(c.conn)
	clear(c.vec) // the scratch must not pin the frames' buffers
	c.vec, c.bufs = c.vec[:0], nil
	return err
}

// Send frames one envelope and writes it, parking its caller until the
// socket has taken it all. Safe for concurrent use; a connection written
// with Send is not also written with TryWrite/WriteFrames. Unlike a
// frame's Release, Send leaves a lent payload's loan to its caller.
func (c *Codec) Send(env *msg.Envelope) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	f, err := Encode(&c.enc, env)
	if err != nil {
		return err
	}
	c.one[0] = f
	err = c.WriteFrames(c.one[:])
	c.one[0] = Frame{}
	bufpool.Put(f.head)
	return err
}

// Serve reads the connection until it ends and hands every frame to
// deliver, in order, on the calling goroutine. The envelope is the
// codec's own, valid only until deliver returns: what outlives the call
// is a copy. It carries the borrow a Recv caller would own: deliver must
// Release it or pass it on.
// Serve returns what ended the connection — io.EOF at a frame boundary,
// an error wrapping ErrBadFrame, net.ErrClosed after Close — and closes
// it on the way out.
//
// It does not ask a socket it knows to be empty (DESIGN.md §21.6). One
// RawConn.Read lasts the connection's life. Its callback reads until the
// kernel reports the receive queue empty (TCP_INQ) and then waits for the
// next readiness event, rather than for a read that returns EAGAIN. A
// connection that cannot report its queue — no RawConn, or no TCP_INQ —
// is read by Recv's blocking loop.
func (c *Codec) Serve(deliver func(*msg.Envelope)) error {
	defer func() {
		c.state.Store(closed)
		c.conn.Close()
	}()
	if !c.state.CompareAndSwap(idle, serving) {
		return net.ErrClosed
	}
	if !c.reportsQueue() {
		for c.state.Load() != closed {
			if err := c.read(); err != nil {
				return err
			}
			c.hand(deliver)
		}
		return net.ErrClosed
	}
	c.deliver = deliver
	c.readMsg.Iov, c.readMsg.Iovlen = &c.readIOV, 1
	c.readMsg.Control = (*byte)(unsafe.Pointer(&c.inq[0]))
	err := c.raw.Read(c.readFrames)
	c.deliver = nil
	if err == nil {
		err = c.serveErr
	}
	return err
}

// tcpINQ is Linux's TCP_INQ socket option (since 4.18): with it on, every
// recvmsg(2) carries a control message giving the bytes the receive queue
// still holds after it — or 1 when it holds none but the peer's FIN has
// arrived, which a short read alone cannot tell apart from an idle peer.
const tcpINQ = 36

// reportsQueue turns TCP_INQ on, and reports whether it is.
func (c *Codec) reportsQueue() bool {
	if c.raw == nil {
		return false
	}
	var err error
	if cerr := c.raw.Control(func(fd uintptr) {
		err = syscall.SetsockoptInt(int(fd), syscall.IPPROTO_TCP, tcpINQ, 1)
	}); cerr != nil {
		return false
	}
	return err == nil
}

// readFrames is Serve's callback, on the descriptor the runtime keeps
// nonblocking. Before each read it delivers every frame already read. It
// returns false — wait for the next readiness event — once a read has
// left the receive queue empty, or found it so, and true when Serve is
// done.
func (c *Codec) readFrames(fd uintptr) bool {
	for {
		if c.state.Load() == closed {
			c.serveErr = net.ErrClosed
			return true
		}
		ok, err := c.next()
		switch {
		case err != nil:
			c.serveErr = err
			return true
		case ok:
			c.hand(c.deliver)
			continue
		case c.dry:
			c.dry = false
			return false
		}
		n, more, errno := c.readFD(fd)
		switch {
		case errno == syscall.EAGAIN:
			return false
		case errno == syscall.EINTR:
			continue
		case errno != 0:
			c.serveErr = c.lost(os.NewSyscallError("recvmsg", errno))
			return true
		case n == 0:
			c.serveErr = c.lost(io.EOF)
			return true
		}
		c.w += n
		c.dry = !more
	}
}

// readFD is one recvmsg(2) into the free end of the buffer, and reports
// whether the receive queue still held something after it: bytes, or the
// peer's FIN. Anything that arrives later raises a readiness event.
func (c *Codec) readFD(fd uintptr) (n int, more bool, errno syscall.Errno) {
	c.readIOV.Base = &c.buf[c.w]
	c.readIOV.SetLen(len(c.buf) - c.w)
	c.readMsg.SetControllen(len(c.inq) * 8)
	r, _, errno := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&c.readMsg)), 0)
	c.readIOV = syscall.Iovec{} // the vector must not pin a buffer a message took
	c.countRead()
	more = true // unless the kernel says otherwise
	if h := (*syscall.Cmsghdr)(unsafe.Pointer(&c.inq[0])); errno == 0 && int(c.readMsg.Controllen) >= syscall.CmsgLen(4) &&
		h.Level == syscall.IPPROTO_TCP && h.Type == tcpINQ {
		more = *(*int32)(unsafe.Add(unsafe.Pointer(h), syscall.CmsgLen(0))) != 0
	}
	return int(r), more, errno
}

// Recv reads the next frame, parking the caller in a read as often as the
// frame needs. The caller owns the returned envelope; one whose payload
// aliases a pooled buffer carries a borrow that the consumer must Release
// (a Release of any other does nothing).
func (c *Codec) Recv() (*msg.Envelope, error) {
	if err := c.read(); err != nil {
		return nil, err
	}
	env := new(msg.Envelope)
	*env, c.env = c.env, msg.Envelope{}
	return env, nil
}

// read decodes the next frame into c.env, parking the caller in a read
// as often as the frame needs.
func (c *Codec) read() error {
	for {
		if ok, err := c.next(); ok || err != nil {
			return err
		}
		if err := c.fill(); err != nil {
			return err
		}
	}
}

// hand delivers the envelope the last frame decoded to, and then forgets
// it, so that the codec pins no message.
func (c *Codec) hand(deliver func(*msg.Envelope)) {
	deliver(&c.env)
	c.env = msg.Envelope{}
}

// fill is one blocking Read into the free end of the buffer.
func (c *Codec) fill() error {
	n, err := c.conn.Read(c.buf[c.w:])
	c.countRead()
	c.w += n
	if n == 0 && err != nil {
		return c.lost(err)
	}
	return nil
}

// next parses the next frame out of what has been read into c.env, and
// reports whether a whole one had arrived. Every frame is decoded where
// it landed in the buffer; one that has not all arrived first gets room
// to land in.
func (c *Codec) next() (bool, error) {
	have := c.w - c.r
	if have < 4 {
		// A partial length prefix moves to the front, so the next read
		// has the whole buffer; beyond the largest class, a buffer lasts
		// one frame.
		if len(c.buf) > bufpool.MaxClass {
			bufpool.Put(c.swap(readBuf))
		} else {
			c.compact()
		}
		return false, nil
	}
	n := int(binary.BigEndian.Uint32(c.buf[c.r:]))
	if n < msg.HeaderSize || n > MaxFrame {
		return false, fmt.Errorf("%w: impossible length prefix %d", ErrBadFrame, n)
	}
	end := 4 + n
	if have >= end {
		return c.decode(end)
	}
	c.room(end)
	return false, nil
}

// room makes the buffer able to take the rest of a frame of end bytes,
// length prefix included, that begins at r. A frame that fits the buffer
// and would run past its end moves to the front. A larger one gets a
// pooled buffer of its class, which the connection keeps; beyond the
// largest class, memory follows the bytes: the buffer doubles as they
// arrive, so a peer that declares a frame it does not send makes the
// receiver hold at most that class or twice what it sent.
func (c *Codec) room(end int) {
	size := end
	if size > bufpool.MaxClass {
		size = min(end, max(bufpool.MaxClass, 2*(c.w-c.r)))
	}
	switch {
	case c.r+end <= len(c.buf):
	case size > len(c.buf):
		bufpool.Put(c.swap(size))
	default:
		c.compact()
	}
}

// compact moves what has been read and not parsed to the front of the
// buffer.
func (c *Codec) compact() {
	c.w = copy(c.buf, c.buf[c.r:c.w])
	c.r = 0
}

// swap reads on into a pooled buffer of at least size bytes, with what
// has been read and not parsed moved over, and returns the buffer it
// replaces, which the caller puts back or hands on.
func (c *Codec) swap(size int) []byte {
	old := c.buf
	c.buf = bufpool.Get(size)
	c.buf = c.buf[:cap(c.buf)]
	c.w = copy(c.buf, old[c.r:c.w])
	c.r = 0
	return old
}

// decode decodes the frame at r, end bytes with its length prefix, where
// it lies in the buffer. A message that aliases nothing leaves the bytes
// free for the next read to overwrite: a tankdebug build poisons them at
// once, as it does a pooled buffer given back. A page message takes the
// buffer with it, and the connection reads on into a fresh one of the
// same size; a page frame under half the buffer is copied into a pooled
// body first, so that no message pins more than twice its frame.
func (c *Codec) decode(end int) (bool, error) {
	frame := c.buf[c.r : c.r+end]
	c.r += end
	switch {
	case !msg.Aliases(frame[4:]):
		err := c.dec.DecodeInto(frame[4:], &c.env)
		bufpool.Poison(frame)
		return c.decoded(err)
	case 2*end < len(c.buf):
		body := bufpool.Get(end - 4)
		copy(body, frame[4:])
		bufpool.Poison(frame)
		return c.borrowed(body, body)
	default:
		return c.borrowed(frame[4:], c.swap(max(min(len(c.buf), bufpool.MaxClass), c.w-c.r)))
	}
}

// borrowed decodes body, a page frame lying in buf, a pooled buffer the
// message then owns through its borrow.
func (c *Codec) borrowed(body, buf []byte) (bool, error) {
	err := c.dec.DecodeInto(body, &c.env)
	if err == nil {
		c.env.Borrowed(buf)
	} else {
		bufpool.Put(buf)
	}
	return c.decoded(err)
}

// decoded counts a decoded frame, or reports a frame that did not parse.
func (c *Codec) decoded(err error) (bool, error) {
	if err != nil {
		return false, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	if c.frames != nil {
		c.frames.Add(1)
	}
	return true, nil
}

// lost reports the error that ended the connection's bytes by where it
// cut them: inside a body, behind its length prefix, it is frame damage, a
// truncated body; inside a length prefix an unexpected EOF; between
// frames the error itself.
func (c *Codec) lost(err error) error {
	switch {
	case c.w-c.r >= 4:
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	case err == io.EOF && c.w > c.r:
		return io.ErrUnexpectedEOF
	}
	return err
}

func (c *Codec) countRead() {
	if c.reads != nil {
		c.reads.Add(1)
	}
}

// Close closes the connection. While Serve runs it shuts the socket down
// instead, both ways — the peer sees the end, and Serve wakes to close the
// descriptor itself. Closing it here would wait for the read Serve is in,
// forever when Close is called from inside deliver: the runtime closes a
// descriptor only once nothing is using it.
func (c *Codec) Close() error {
	if c.state.Swap(closed) != serving || c.raw == nil {
		return c.conn.Close()
	}
	var serr error
	if err := c.raw.Control(func(fd uintptr) { serr = syscall.Shutdown(int(fd), syscall.SHUT_RDWR) }); err != nil {
		return err
	}
	return serr
}

func (c *Codec) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }

// SendHello writes the identification frame that follows the preamble
// on every dialed connection: the dialer's node ID as a raw big-endian
// int32, so the acceptor can route return traffic over the same
// connection.
func (c *Codec) SendHello(from msg.NodeID) error {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(int32(from)))
	c.wmu.Lock()
	_, err := c.conn.Write(b[:])
	c.wmu.Unlock()
	if err != nil {
		return fmt.Errorf("wire: hello: %w", err)
	}
	return nil
}

// RecvHello reads the dialer's identification frame. Frames its reads
// bring along stay buffered for Recv or Serve.
func (c *Codec) RecvHello() (msg.NodeID, error) {
	for c.w-c.r < 4 {
		if err := c.fill(); err != nil {
			return 0, fmt.Errorf("wire: hello: %w", err)
		}
	}
	from := msg.NodeID(int32(binary.BigEndian.Uint32(c.buf[c.r:])))
	c.r += 4
	if from == msg.None {
		return 0, fmt.Errorf("%w: hello with zero node id", ErrBadFrame)
	}
	return from, nil
}
