// Package msg is the bufown-fixture stub of the envelope borrow: the
// checker matches Envelope.Retain/Release/Borrowed by receiver type
// name and package basename.
package msg

type NodeID uint64

type Envelope struct {
	From, To NodeID
	Payload  any
	refs     int
	free     func()
}

func (e *Envelope) Borrowed(free func()) { e.refs, e.free = 1, free }

func (e *Envelope) Retain() { e.refs++ }

func (e *Envelope) Release() {
	e.refs--
	if e.refs == 0 && e.free != nil {
		e.free()
	}
}

// DiskReadVRes stubs the sending-side loan: the checker matches
// DiskReadVRes.Lend by receiver type name and package basename, as the
// borrow above.
type DiskReadVRes struct {
	Data []byte
	lent bool
}

func (m *DiskReadVRes) Lend(buf []byte) { m.Data, m.lent = buf, true }
