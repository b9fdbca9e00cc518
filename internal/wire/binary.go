package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"

	"repro/internal/bufpool"
	"repro/internal/msg"
)

// MaxFrame bounds a frame body. The largest legitimate frame is a
// full-batch DiskWriteV/DiskReadVRes (flush batch × 4 KiB pages plus
// metadata), far below this; a received length prefix beyond it is
// treated as corrupt rather than a reason to allocate gigabytes, and
// Send refuses to produce one.
const MaxFrame = 1 << 24

// Codec frames envelopes over one connection: length-prefixed frames in
// the fixed layout of msg.EncodeBinary/DecodeBinary (DESIGN.md §12).
// Send is safe for concurrent use; Recv is not (one reader goroutine per
// connection).
//
// Send stages the length prefix and metadata in a pooled buffer and
// transmits bulk page data as a scatter-gather tail straight from the
// caller's buffer (net.Buffers → writev), so steady-state sends copy no
// page bytes and allocate nothing. Recv reads each frame into a pooled
// buffer that the decoded envelope's page payloads alias; the envelope
// carries a borrow whose release returns the buffer to the pool.
type Codec struct {
	conn net.Conn
	br   *bufio.Reader

	wmu sync.Mutex
	// iov is the scatter-gather scratch used under wmu. net.Buffers
	// consumes the slice it writes, so Send rebuilds it in place from
	// this backing array on every call — no per-send allocation.
	iov [2][]byte
}

func newCodec(conn net.Conn) *Codec {
	return &Codec{conn: conn, br: bufio.NewReaderSize(conn, 64<<10)}
}

// Send frames one envelope. Safe for concurrent use. An envelope whose
// frame the receiver would refuse is refused here, with ErrFrameTooLarge
// and before a byte is written: refused at the far end it reads as a
// corrupt length prefix, and the connection dies with everything else
// in flight on it while the sender retries the same frame.
//
//tank:hotpath
func (c *Codec) Send(env *msg.Envelope) error {
	meta, tail, err := msg.BinarySize(env)
	if err != nil {
		return err
	}
	if meta+len(tail) > MaxFrame {
		return ErrFrameTooLarge
	}
	buf := bufpool.Get(4 + meta)
	binary.BigEndian.PutUint32(buf, uint32(meta+len(tail)))
	if err := msg.EncodeBinary(buf[4:], env); err != nil {
		bufpool.Put(buf)
		return err
	}
	c.wmu.Lock()
	if len(tail) == 0 {
		_, err = c.conn.Write(buf)
	} else {
		//tank:alias(writev staging; cleared below, Put stays with buf)
		c.iov[0], c.iov[1] = buf, tail
		bufs := net.Buffers(c.iov[:2])
		_, err = bufs.WriteTo(c.conn)
		c.iov[0], c.iov[1] = nil, nil
	}
	c.wmu.Unlock()
	bufpool.Put(buf)
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
	env, err := msg.DecodeBinary(body)
	if err != nil {
		bufpool.Put(body)
		return nil, fmt.Errorf("%w: %v", ErrBadFrame, err)
	}
	env.Borrowed(func() { bufpool.Put(body) })
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
