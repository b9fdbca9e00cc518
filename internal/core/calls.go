package core

import (
	"cmp"
	"slices"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/sim"
)

// Calls is the table of the requests a node retransmits until they are
// answered (DESIGN §23.1): a Channel's calls, a client's or a server's SAN
// calls. It mints their IDs above a base and holds them in the order they
// were issued, which is ascending ID: a reply finds its request by binary
// search, and Cancel walks them in that order, as a replayed run must.
//
// An entry given up (Take, Cancel) is zeroed, so that it keeps no
// callback or buffer alive, and parked; the next Add takes it back. What
// the owner reads of a request given up is the copy Take returns. Under
// -tags tankdebug a parked entry is poisoned: its ID reads 0xDB… and
// sending it panics.
type Calls[T any] struct {
	last  msg.ReqID
	held  []*Call[T]
	spare []*Call[T] // parked entries, at most maxSpareCalls
	queue *sim.Retries[*Call[T]]
	// send transmits c (retry: a retransmission) and reports whether it
	// did; one it did not, its node being down, is not queued again.
	send func(c *Call[T], retry bool) bool
}

// maxSpareCalls bounds a table's parked entries: a burst of requests in
// flight leaves no more than this many behind it.
const maxSpareCalls = 64

// poisonCall is a parked entry's ID under tankdebug.
const poisonCall msg.ReqID = 0xDBDB_DBDB_DBDB_DBDB

// Call is one request in a Calls table; Val is what its owner keeps. A
// *Call is valid while the request is held: Take and Cancel park it.
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

// Add holds v under the next ID and returns its entry, not yet sent: a
// parked one if the table has one.
func (t *Calls[T]) Add(v T) *Call[T] {
	t.last++
	var c *Call[T]
	if n := len(t.spare); n > 0 {
		c, t.spare = t.spare[n-1], t.spare[:n-1]
	} else {
		c = new(Call[T])
	}
	c.ID, c.Tries, c.Val = t.last, 0, v
	t.held = append(t.held, c)
	return c
}

// Send transmits c now and queues its retransmission, moving it to the
// tail of the queue if it was queued.
func (t *Calls[T]) Send(c *Call[T]) { t.transmit(c, false) }

func (t *Calls[T]) transmit(c *Call[T], retry bool) {
	if bufpool.Debug && c.ID == poisonCall {
		panic("core: a parked call was sent")
	}
	if t.send(c, retry) {
		t.queue.Add(&c.retry, c)
	}
}

// Find returns the entry of request id, nil if it is not held. The entry
// is valid until the request is given up.
func (t *Calls[T]) Find(id msg.ReqID) *Call[T] {
	if i, ok := t.index(id); ok {
		return t.held[i]
	}
	return nil
}

// Take gives up request id and returns a copy of its entry: its ID,
// Tries and Val (ok false: not held). The entry itself is parked.
func (t *Calls[T]) Take(id msg.ReqID) (c Call[T], ok bool) {
	i, ok := t.index(id)
	if !ok {
		return c, false
	}
	e := t.held[i]
	t.held = slices.Delete(t.held, i, i+1)
	t.queue.Remove(&e.retry)
	c.ID, c.Tries, c.Val = e.ID, e.Tries, e.Val
	t.park(e)
	return c, true
}

// park zeroes e, which no longer holds a request, and keeps it for Add.
func (t *Calls[T]) park(e *Call[T]) {
	*e = Call[T]{}
	if bufpool.Debug {
		e.ID, e.Tries = poisonCall, -1
	}
	if len(t.spare) < maxSpareCalls {
		t.spare = append(t.spare, e)
	}
}

func (t *Calls[T]) index(id msg.ReqID) (int, bool) {
	return slices.BinarySearchFunc(t.held, id, func(c *Call[T], id msg.ReqID) int { return cmp.Compare(c.ID, id) })
}

// Len returns the number of requests held.
func (t *Calls[T]) Len() int { return len(t.held) }

// Cancel gives up every request held at entry, in the order they were
// issued, and hands cancelled a copy of each. A request issued from
// cancelled survives (its ID is above every one held at entry); one it
// takes is not handed over again.
func (t *Calls[T]) Cancel(cancelled func(Call[T])) {
	last := t.last
	for len(t.held) > 0 && t.held[0].ID <= last {
		c, _ := t.Take(t.held[0].ID)
		cancelled(c)
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
// Done and returns a copy of its entry with m's errno (ok false: none
// held; no ID is 0).
func Answer(t *Calls[SANCall], m msg.Message) (c Call[SANCall], errno msg.Errno, ok bool) {
	req, errno, _ := msg.SANReplyReq(m)
	if c, ok = t.Take(req); ok && c.Val.Done != nil {
		c.Val.Done(m, errno)
	}
	return c, errno, ok
}
