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

// MaxFrame bounds a frame body. The largest legitimate frame is a
// full-batch DiskWriteV/DiskReadVRes (flush batch × 4 KiB pages plus
// metadata), far below this; a received length prefix beyond it is
// treated as corrupt rather than a reason to allocate gigabytes, and
// Encode refuses to produce one.
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
// allocate nothing. Each received frame's body is a pooled buffer that
// the decoded envelope's page payloads alias; the envelope owns the
// buffer through its borrow, whose last release returns it to the pool.
type Codec struct {
	conn net.Conn

	// The reader's, whether it reads with Serve or Recv. buf[r:w] is what
	// has been read and not parsed: whole frames, then at most the first
	// bytes of a length prefix. body is the pooled body of a frame whose
	// length prefix has been parsed and whose last byte has not arrived,
	// got bytes of it filled; the buffer is empty meanwhile, so the next
	// read goes into the body first (DESIGN.md §12.3).
	dec  msg.Coder
	buf  []byte
	r, w int
	body []byte
	got  int
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
	readIOV  [2]syscall.Iovec
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

// readBuf is the size of a connection's receive buffer: what one read(2)
// may bring when no frame is partly read.
const readBuf = 64 << 10

// The codec's states: Serve moves idle to serving, Close anything to
// closed.
const (
	idle int32 = iota
	serving
	closed
)

func newCodec(conn net.Conn) *Codec {
	c := &Codec{conn: conn, buf: make([]byte, readBuf)}
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
// deliver, in order, on the calling goroutine. Each envelope carries the
// borrow a Recv caller would own: deliver must Release it or pass it on.
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
			env, err := c.Recv()
			if err != nil {
				return err
			}
			deliver(env)
		}
		return net.ErrClosed
	}
	c.deliver = deliver
	c.readMsg.Iov = &c.readIOV[0]
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
		env, err := c.next()
		switch {
		case err != nil:
			c.serveErr = err
			return true
		case env != nil:
			c.deliver(env)
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
		c.filled(n)
		c.dry = !more
	}
}

// readFD is one recvmsg(2) into where the next bytes go — the rest of a
// partly read body first, then the buffer — and reports whether the
// receive queue still held something after it: bytes, or the peer's FIN.
// Anything that arrives later raises a readiness event.
func (c *Codec) readFD(fd uintptr) (n int, more bool, errno syscall.Errno) {
	body, buf := c.space()
	if body == nil {
		c.readIOV[0].Base = &buf[0]
		c.readIOV[0].SetLen(len(buf))
		c.readMsg.Iovlen = 1
	} else {
		c.readIOV[0].Base, c.readIOV[1].Base = &body[0], &buf[0]
		c.readIOV[0].SetLen(len(body))
		c.readIOV[1].SetLen(len(buf))
		c.readMsg.Iovlen = 2
	}
	c.readMsg.SetControllen(len(c.inq) * 8)
	r, _, errno := syscall.Syscall(syscall.SYS_RECVMSG, fd, uintptr(unsafe.Pointer(&c.readMsg)), 0)
	c.readIOV = [2]syscall.Iovec{} // the vector must not pin a body
	c.countRead()
	more = true // unless the kernel says otherwise
	if h := (*syscall.Cmsghdr)(unsafe.Pointer(&c.inq[0])); errno == 0 && int(c.readMsg.Controllen) >= syscall.CmsgLen(4) &&
		h.Level == syscall.IPPROTO_TCP && h.Type == tcpINQ {
		more = *(*int32)(unsafe.Add(unsafe.Pointer(h), syscall.CmsgLen(0))) != 0
	}
	return int(r), more, errno
}

// Recv reads the next frame, parking the caller in a read as often as the
// frame needs. The returned envelope aliases a pooled buffer; it carries a
// borrow that the consumer must Release.
func (c *Codec) Recv() (*msg.Envelope, error) {
	for {
		if env, err := c.next(); env != nil || err != nil {
			return env, err
		}
		if err := c.fill(); err != nil {
			return nil, err
		}
	}
}

// fill is one blocking Read into where the next bytes go.
func (c *Codec) fill() error {
	body, buf := c.space()
	if body == nil {
		body = buf
	}
	n, err := c.conn.Read(body)
	c.countRead()
	c.filled(n)
	if n == 0 && err != nil {
		return c.lost(err)
	}
	return nil
}

// next parses the next frame out of what has been read: the decoded
// envelope, nil while no frame has wholly arrived.
func (c *Codec) next() (*msg.Envelope, error) {
	if c.body == nil {
		if c.w-c.r < 4 {
			// A partial length prefix moves to the front, so the next read
			// has the whole buffer.
			c.w = copy(c.buf, c.buf[c.r:c.w])
			c.r = 0
			return nil, nil
		}
		n := binary.BigEndian.Uint32(c.buf[c.r:])
		if n < 9 || n > MaxFrame {
			return nil, fmt.Errorf("%w: impossible length prefix %d", ErrBadFrame, n)
		}
		body := bufpool.Get(int(n))
		got := copy(body, c.buf[c.r+4:c.w])
		c.r += 4 + got
		if got == len(body) {
			return c.decode(body)
		}
		c.r, c.w = 0, 0
		c.body, c.got = body, got // the codec holds a body until its last byte is read
		return nil, nil
	}
	if c.got < len(c.body) {
		return nil, nil
	}
	body := c.body
	c.body, c.got = nil, 0
	return c.decode(body)
}

// decode decodes a frame's body, which the envelope's borrow then owns.
func (c *Codec) decode(body []byte) (*msg.Envelope, error) {
	env, err := c.dec.Decode(body)
	if err != nil {
		bufpool.Put(body)
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	env.Borrowed(body)
	if c.frames != nil {
		c.frames.Add(1)
	}
	return env, nil
}

// space returns where the next read goes: the rest of a partly read body,
// then the buffer — empty while a body is partly read — or, with no body
// pending, the free end of the buffer.
func (c *Codec) space() (body, buf []byte) {
	if c.body != nil {
		return c.body[c.got:], c.buf
	}
	return nil, c.buf[c.w:]
}

// filled accounts for n bytes read into space.
func (c *Codec) filled(n int) {
	if c.body != nil {
		k := min(n, len(c.body)-c.got)
		c.got += k
		n -= k
	}
	c.w += n
}

// lost reports the error that ended the connection's bytes by where it
// cut them: inside a body it is frame damage, a truncated body; inside a
// length prefix an unexpected EOF; between frames the error itself.
func (c *Codec) lost(err error) error {
	if c.body != nil {
		bufpool.Put(c.body)
		c.body, c.got = nil, 0
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	if err == io.EOF && c.w > c.r {
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
