package msg

import (
	"sync/atomic"

	"repro/internal/bufpool"
)

// borrowCell is the reference count behind a borrowed envelope. It lives
// in an unexported pointer field of Envelope so that envelope values can
// be copied freely (every copy shares the cell); the wire layout walks
// the exported fields only, so the cell never travels.
type borrowCell struct {
	refs atomic.Int32
	buf  []byte
}

// Borrowed marks the envelope's payload as aliasing buf, a pooled
// buffer (typically the receive frame) the envelope now owns: it goes
// back to the pool exactly once, when the initial reference and every
// Retain have been matched by Release. The transport attaches this on
// receive and releases after the handler returns; a handler that keeps
// payload data past its own return must Retain first (or copy the data).
//
//tank:owns buf
func (e *Envelope) Borrowed(buf []byte) {
	c := &borrowCell{buf: buf} //tank:adopt(the cell holds it until the last Release)
	c.refs.Store(1)
	e.borrow = c
}

// Retain takes an additional reference on the envelope's borrowed
// buffer, keeping it alive past the handler's return. No-op for
// envelopes that borrow nothing (the simulated fabric).
func (e *Envelope) Retain() {
	if e.borrow != nil {
		e.borrow.refs.Add(1)
	}
}

// Release drops one reference; the last release returns the buffer to
// the pool. The payload (and anything aliasing it) must not be touched
// afterwards. No-op for envelopes that borrow nothing.
func (e *Envelope) Release() {
	if c := e.borrow; c != nil && c.refs.Add(-1) == 0 {
		bufpool.Put(c.buf)
		c.buf = nil
	}
}

// Lend makes buf — a bufpool buffer the caller owns — the reply's Data,
// on loan to whichever fabric the reply is handed to: the sending-side
// twin of the receive borrow above. The sender must not touch buf again;
// the fabric ends the loan with EndLoan when nothing of its own still
// reads the payload. The mark is an unexported flag, not a field the wire
// layout, gob or a reflecting test would have to know about.
//
//tank:owns buf
func (m *DiskReadVRes) Lend(buf []byte) {
	m.Data = buf //tank:adopt(the reply holds it until the fabric's EndLoan)
	m.lent = true
}

// Lend is DiskReadVRes.Lend for the scalar reply: a one-block payload
// the media read into a pooled buffer.
//
//tank:owns buf
func (m *DiskReadRes) Lend(buf []byte) {
	m.Data = buf //tank:adopt(the reply holds it until the fabric's EndLoan)
	m.lent = true
}

// EndLoan returns a lent payload to the pool; for every other message it
// does nothing. A fabric calls it exactly when its own use of the message
// is over — the live transport when the message's frame has been written
// or dropped, the simulated one, which delivers the very message, when
// the receiving handler has — and a fabric that drops a message before
// it has a frame may skip it: what is never returned is the garbage
// collector's, as bufpool's contract allows.
func EndLoan(m Message) {
	switch r := m.(type) {
	case *DiskReadVRes:
		if r.lent {
			r.lent = false
			bufpool.Put(r.Data)
			r.Data = nil
		}
	case *DiskReadRes:
		if r.lent {
			r.lent = false
			bufpool.Put(r.Data)
			r.Data = nil
		}
	}
}
