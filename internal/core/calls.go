package core

import (
	"cmp"
	"slices"

	"repro/internal/msg"
	"repro/internal/sim"
)

// Calls is the table of the requests a node retransmits until they are
// answered (DESIGN §23.1): a Channel's calls, a client's or a server's SAN
// calls. It mints their IDs above a base and holds them in the order they
// were issued, which is ascending ID: a reply finds its request by binary
// search, and Cancel walks them in that order, as a replayed run must.
type Calls[T any] struct {
	last  msg.ReqID
	held  []*Call[T]
	queue *sim.Retries[*Call[T]]
	// send transmits c (retry: a retransmission) and reports whether it
	// did; one it did not, its node being down, is not queued again.
	send func(c *Call[T], retry bool) bool
}

// Call is one request in a Calls table; Val is what its owner keeps.
type Call[T any] struct {
	ID    msg.ReqID
	Tries int // retransmissions so far
	Val   T
	retry sim.Retry[*Call[T]]
}

// NewCalls returns an empty table that mints IDs above base and
// retransmits each request every interval on clock until it is answered.
func NewCalls[T any](base msg.ReqID, clock sim.Clock, every sim.Duration,
	send func(c *Call[T], retry bool) bool) *Calls[T] {
	t := &Calls[T]{last: base, send: send}
	t.queue = sim.NewRetries(clock, every, func(c *Call[T]) {
		c.Tries++
		t.transmit(c, true)
	})
	return t
}

// Add holds v under the next ID and returns its entry, not yet sent.
func (t *Calls[T]) Add(v T) *Call[T] {
	t.last++
	c := &Call[T]{ID: t.last, Val: v}
	t.held = append(t.held, c)
	return c
}

// Send transmits c now and queues its retransmission, moving it to the
// tail of the queue if it was queued.
func (t *Calls[T]) Send(c *Call[T]) { t.transmit(c, false) }

func (t *Calls[T]) transmit(c *Call[T], retry bool) {
	if t.send(c, retry) {
		t.queue.Add(&c.retry, c)
	}
}

// Find returns the entry of request id, nil if it is not held.
func (t *Calls[T]) Find(id msg.ReqID) *Call[T] {
	if i, ok := t.index(id); ok {
		return t.held[i]
	}
	return nil
}

// Take is Find, and gives the request up.
func (t *Calls[T]) Take(id msg.ReqID) *Call[T] {
	i, ok := t.index(id)
	if !ok {
		return nil
	}
	c := t.held[i]
	t.held = slices.Delete(t.held, i, i+1)
	t.queue.Remove(&c.retry)
	return c
}

func (t *Calls[T]) index(id msg.ReqID) (int, bool) {
	return slices.BinarySearchFunc(t.held, id, func(c *Call[T], id msg.ReqID) int { return cmp.Compare(c.ID, id) })
}

// Len returns the number of requests held.
func (t *Calls[T]) Len() int { return len(t.held) }

// Cancel gives up every request held at entry, in the order they were
// issued, and hands each to cancelled. A request issued from cancelled
// survives; one it takes is not handed over again.
func (t *Calls[T]) Cancel(cancelled func(*Call[T])) {
	for _, c := range slices.Clone(t.held) {
		if t.Take(c.ID) != nil {
			cancelled(c)
		}
	}
}

// SANCall is a request to a disk, stamped with the registration a client
// issued it under or, a server's, with epoch 0 (DESIGN §25). Build makes
// each transmission; Done (nil: no answer wanted) receives the disk's
// answer, or nil and msg.ErrStale if the call is cancelled. Buf is a
// client flush write's pooled payload (Client.DeliverSAN).
type SANCall struct {
	Disk  msg.NodeID
	Epoch msg.Epoch
	Build func(req msg.ReqID, epoch msg.Epoch) msg.Message
	Done  func(reply msg.Message, errno msg.Errno)
	Buf   []byte
}

// NewSANCalls returns a node's table of SAN calls: each transmission goes
// out through san unless live reports the node down.
func NewSANCalls(base msg.ReqID, clock sim.Clock, every sim.Duration,
	san func(to msg.NodeID, m msg.Message), live func() bool) *Calls[SANCall] {
	return NewCalls(base, clock, every, func(c *Call[SANCall], _ bool) bool {
		if !live() {
			return false
		}
		san(c.Val.Disk, c.Val.Build(c.ID, c.Val.Epoch))
		return true
	})
}

// Answer gives up the SAN call a disk's reply m answers, hands m to its
// Done and returns it with m's errno (nil: none held; no ID is 0).
func Answer(t *Calls[SANCall], m msg.Message) (*Call[SANCall], msg.Errno) {
	req, errno, _ := msg.SANReplyReq(m)
	c := t.Take(req)
	if c != nil && c.Val.Done != nil {
		c.Val.Done(m, errno)
	}
	return c, errno
}
