// Package wire is the live deployment's message encoding. A Codec frames
// msg.Envelope traffic over one TCP connection in the fixed binary
// layout of internal/msg (DESIGN.md §12). The dialer opens every
// connection with a one-byte version preamble and the acceptor refuses
// any other byte, so a peer from a different wire revision fails at the
// first byte and not at the first frame it cannot parse.
//
// The transport above this (internal/rpcnet) preserves the protocol's
// datagram assumptions: sends are best-effort, a broken connection just
// drops traffic until redialed, and the reliable-request layer in
// internal/core supplies retries and at-most-once execution — exactly as
// it does on the simulated fabric.
package wire

import (
	"errors"
	"fmt"
	"io"
	"net"
)

var (
	// ErrBadFrame reports traffic that violates the framing layer: an
	// unparseable frame, an impossible length prefix, or an unknown
	// preamble. It is distinct from io.EOF — a peer that went away — so
	// the transport can report protocol damage as what it is instead of a
	// peer restart. Both end with the connection dropped.
	ErrBadFrame = errors.New("wire: bad frame")
	// ErrFrameTooLarge is Send refusing an envelope whose frame would
	// exceed MaxFrame. Nothing has been written when it is returned: the
	// connection is intact and only this message is lost.
	ErrFrameTooLarge = errors.New("wire: frame exceeds MaxFrame")
)

// ID once selected between two codecs. One is left; Dial takes the
// parameter, and accepts only Binary, because callers outside this
// package's reach still pass it.
type ID uint8

// Binary is the fixed-layout zero-copy codec, the only one.
const Binary ID = 1

// preamble is the first byte of every connection: the wire revision in the
// high nibble, and in the low nibble the 1 that used to select this codec
// over a gob stream (codec 0, retired). A revision that changes a frame
// layout incompatibly changes this byte: revision 2 added the directory
// grants to four reply bodies, revision 3 the block map to a lock's
// grant, revision 4 sent every block map as runs (DESIGN.md §12.2).
const preamble = 4<<4 | byte(Binary)

// Dial wraps the dialer side of an established connection: it writes the
// preamble, before which nothing else may be written to conn.
func Dial(conn net.Conn, codec ID) (*Codec, error) {
	if codec != Binary {
		return nil, fmt.Errorf("wire: unknown codec %d", uint8(codec))
	}
	if _, err := conn.Write([]byte{preamble}); err != nil {
		return nil, fmt.Errorf("wire: preamble: %w", err)
	}
	return newCodec(conn), nil
}

// Accept wraps the acceptor side: it reads the dialer's preamble and
// refuses the connection with ErrBadFrame unless it is this revision's.
func Accept(conn net.Conn) (*Codec, error) {
	var pre [1]byte
	if _, err := io.ReadFull(conn, pre[:]); err != nil {
		return nil, fmt.Errorf("wire: preamble: %w", err)
	}
	if pre[0] != preamble {
		return nil, fmt.Errorf("%w: preamble %#02x announces version %d codec %d (want %#02x)",
			ErrBadFrame, pre[0], pre[0]>>4, pre[0]&0x0f, preamble)
	}
	return newCodec(conn), nil
}
