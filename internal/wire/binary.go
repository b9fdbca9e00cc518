package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"syscall"
	"unsafe"

	"repro/internal/bufpool"
	"repro/internal/msg"
)

// MaxFrame bounds a frame body. The largest legitimate frame is a
// full-batch DiskWriteV/DiskReadVRes (flush batch × 4 KiB pages plus
// metadata), far below this; a received length prefix beyond it is
// treated as corrupt rather than a reason to allocate gigabytes, and
// Encode refuses to produce one.
const MaxFrame = 1 << 24

// Codec frames envelopes over one connection: length-prefixed frames in
// the fixed layout of msg.Coder (DESIGN.md §12). Recv is for one reader
// goroutine per connection. A connection is written one of two ways,
// never both: Send, safe for concurrent use and parking its caller until
// the socket has taken the frame; or by whoever holds the connection's
// write token — a token its user keeps (internal/rpcnet keeps one per
// peer, DESIGN.md §21) — with TryWrite, which never parks, and
// WriteFrames, which does.
//
// A frame stages the length prefix and metadata in a pooled buffer and
// carries bulk page data as a scatter-gather tail straight from the
// sender's buffer (writev), so steady-state sends copy no page bytes and
// allocate nothing. Recv reads each frame into a pooled buffer that the
// decoded envelope's page payloads alias; the envelope owns the buffer
// through its borrow, whose last release returns it to the pool.
type Codec struct {
	conn net.Conn
	br   *bufio.Reader
	dec  msg.Coder // Recv's

	wmu sync.Mutex
	enc msg.Coder // Send's, under wmu
	// one is the frame Send hands WriteFrames, under wmu.
	one [1]Frame

	// The write token's scratch, used only by its holder.
	//
	// raw is the connection's file descriptor for TryWrite, nil when the
	// connection has none (then TryWrite takes nothing and every frame
	// waits for WriteFrames). tryFD is writeFD bound once, so handing it
	// to raw allocates nothing; tryHead and tryTail are what it writes,
	// tryN and tryErr its results, and tryIOV its writev vector.
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

func newCodec(conn net.Conn) *Codec {
	c := &Codec{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
	if sc, ok := conn.(syscall.Conn); ok {
		if raw, err := sc.SyscallConn(); err == nil {
			c.raw = raw
		}
	}
	c.tryFD = c.writeFD
	return c
}

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
//
//tank:hotpath
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
	return Frame{head: buf, tail: tail, m: env.Payload}, nil //tank:adopt(the frame owns its head until Release)
}

// Release ends the frame, written or dropped: its head goes back to the
// pool, and a payload its sender lent ends its loan (msg.EndLoan).
//
//tank:hotpath
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
//
//tank:hotpath
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
//
//tank:hotpath
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

// Recv reads the next frame. Not safe for concurrent use (one reader
// goroutine per connection). The returned envelope may alias a pooled
// buffer; it carries a borrow that the consumer must Release.
func (c *Codec) Recv() (*msg.Envelope, error) {
	var lenb [4]byte
	if _, err := io.ReadFull(c.br, lenb[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(lenb[:])
	if n < 9 || n > MaxFrame {
		return nil, fmt.Errorf("%w: impossible length prefix %d", ErrBadFrame, n)
	}
	body := bufpool.Get(int(n))
	if _, err := io.ReadFull(c.br, body); err != nil {
		bufpool.Put(body)
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, fmt.Errorf("%w: truncated body: %v", ErrBadFrame, err)
	}
	env, err := c.dec.Decode(body)
	if err != nil {
		bufpool.Put(body)
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	env.Borrowed(body)
	return env, nil
}

func (c *Codec) Close() error { return c.conn.Close() }

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

// RecvHello reads the dialer's identification frame.
func (c *Codec) RecvHello() (msg.NodeID, error) {
	var b [4]byte
	if _, err := io.ReadFull(c.br, b[:]); err != nil {
		return 0, fmt.Errorf("wire: hello: %w", err)
	}
	from := msg.NodeID(int32(binary.BigEndian.Uint32(b[:])))
	if from == msg.None {
		return 0, fmt.Errorf("%w: hello with zero node id", ErrBadFrame)
	}
	return from, nil
}
