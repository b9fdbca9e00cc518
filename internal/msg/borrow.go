package msg

import "sync/atomic"

// borrowCell is the reference count behind a borrowed envelope. It lives
// in an unexported pointer field of Envelope so that envelope values can
// be copied freely (every copy shares the cell); the wire layout walks
// the exported fields only, so the cell never travels.
type borrowCell struct {
	refs atomic.Int32
	free func()
}

// Borrowed marks the envelope's payload as aliasing a borrowed buffer
// (typically a pooled receive frame). free runs exactly once, when the
// initial reference and every Retain have been matched by Release. The
// transport attaches this on receive and releases after the handler
// returns; a handler that keeps payload data past its own return must
// Retain first (or copy the data).
//
//tank:owns free
func (e *Envelope) Borrowed(free func()) {
	c := &borrowCell{free: free}
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

// Release drops one reference; the last release frees the borrow. The
// payload (and anything aliasing it) must not be touched afterwards.
// No-op for envelopes that borrow nothing.
func (e *Envelope) Release() {
	if e.borrow != nil && e.borrow.refs.Add(-1) == 0 {
		e.borrow.free()
	}
}
