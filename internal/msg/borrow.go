package msg

import (
	"fmt"
	"sync/atomic"

	"repro/internal/bufpool"
)

// borrowCell is the reference count behind a borrowed envelope. It is a
// field of each message whose Data aliases its frame — the types whose
// layouts reach tail (binary.go) — where it fills the padding behind a
// narrower field, so a borrow grows neither the message nor its size
// class; the wire layout walks exported fields only, so the cell never
// travels. The envelope's unexported borrow field holds the pooled body
// itself, in a box bufpool recycles: envelope values can be copied
// freely, every copy naming the same body and, through its payload, the
// same count.
type borrowCell struct{ refs atomic.Int32 }

func (c *borrowCell) cell() *borrowCell { return c }

// borrower is a message that carries a borrow cell.
type borrower interface{ cell() *borrowCell }

// Borrowed marks the envelope's payload as aliasing buf, a pooled
// buffer (typically the receive frame) the payload now owns: it goes
// back to the pool exactly once, when the initial reference and every
// Retain have been matched by Release. The transport attaches this on
// receive, to the payloads Aliases names, and releases after the handler
// returns; a handler that keeps payload data past its own return must
// Retain first (or copy the data). A payload with no borrow cell panics.
func (e *Envelope) Borrowed(buf []byte) {
	b, ok := e.Payload.(borrower)
	if !ok {
		panic(fmt.Sprintf("msg: %T cannot borrow a frame", e.Payload))
	}
	b.cell().refs.Store(1)
	e.borrow = bufpool.Box(buf)
}

// refs is the count behind the envelope's borrow, which it must have.
func (e *Envelope) refs() *atomic.Int32 { return &e.Payload.(borrower).cell().refs }

// Retain takes an additional reference on the envelope's borrowed
// buffer, keeping it alive past the handler's return. No-op for
// envelopes that borrow nothing (the simulated fabric). A Retain after
// the last Release, whose buffer and box the pool may have handed out
// again, panics in a tankdebug build.
func (e *Envelope) Retain() {
	if e.borrow != nil {
		if n := e.refs().Add(1); n <= 1 && bufpool.Debug {
			panic(fmt.Sprintf("msg: Envelope.Retain after its last Release (reference count %d)", n))
		}
	}
}

// Release drops one reference; the last release returns the buffer to
// the pool. The payload (and anything aliasing it) must not be touched
// afterwards. No-op for envelopes that borrow nothing. A Release past
// the last reference does nothing either, except in a tankdebug build,
// where it panics.
func (e *Envelope) Release() {
	if e.borrow != nil {
		switch n := e.refs().Add(-1); {
		case n == 0:
			bufpool.PutBox(e.borrow)
		case n < 0 && bufpool.Debug:
			panic(fmt.Sprintf("msg: Envelope.Release past its borrow (reference count %d)", n))
		}
	}
}

// Lend makes buf — a bufpool buffer the caller owns — the reply's Data,
// on loan to whichever fabric the reply is handed to: the sending-side
// twin of the receive borrow above. The sender must not touch buf again;
// the fabric ends the loan with EndLoan when nothing of its own still
// reads the payload. The mark is an unexported flag, not a field the wire
// layout, gob or a reflecting test would have to know about.
func (m *DiskReadVRes) Lend(buf []byte) {
	m.Data = buf
	m.lent = true
}

// Lend is DiskReadVRes.Lend for the scalar reply: a one-block payload
// the media read into a pooled buffer.
func (m *DiskReadRes) Lend(buf []byte) {
	m.Data = buf
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
