// Package msg is the bufown-fixture stub of the envelope borrow: the
// checker matches Envelope.Retain/Release/Borrowed by receiver type
// name and package basename.
package msg

type NodeID uint64

type Envelope struct {
	From, To NodeID
	Payload  any
	refs     int
	buf      []byte
}

func (e *Envelope) Borrowed(buf []byte) { e.refs, e.buf = 1, buf }

func (e *Envelope) Retain() { e.refs++ }

func (e *Envelope) Release() {
	e.refs--
	if e.refs == 0 {
		e.buf = nil
	}
}
