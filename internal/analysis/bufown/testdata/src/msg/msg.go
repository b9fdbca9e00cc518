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

// DiskReadVRes and DiskReadRes stub the sending-side loan: the checker
// matches their Lend by receiver type name and package basename, as the
// borrow above.
type DiskReadVRes struct {
	Data []byte
	lent bool
}

func (m *DiskReadVRes) Lend(buf []byte) { m.Data, m.lent = buf, true }

type DiskReadRes struct {
	Data []byte
	lent bool
}

func (m *DiskReadRes) Lend(buf []byte) { m.Data, m.lent = buf, true }
