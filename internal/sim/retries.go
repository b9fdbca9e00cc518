package sim

// Retry is one request's place in a Retries queue. A request that
// retransmits until answered holds one as a field; the zero value is not
// queued.
type Retry[T any] struct {
	prev, next *Retry[T]
	due        Deadline // when the next retransmission falls due
	val        T
}

// Queued reports whether the request is waiting to be retransmitted.
func (e *Retry[T]) Queued() bool { return e.next != nil }

// Retries is a retransmission queue. Every entry falls due exactly one
// interval after it was last queued, so entries fall due in the order
// they were queued, and one clock timer, armed for the head's deadline,
// serves them all (DESIGN §23.1):
//   - Add links an entry at the tail and arms the timer only when none
//     is armed; a request answered in time arms nothing.
//   - Remove is a list unlink. The timer stays armed; if it fires after
//     its entry left, it retransmits nothing and re-arms for the new
//     head, if there is one.
//   - When the timer fires, every entry due by the deadline it was armed
//     for is unlinked and handed to fire, which retransmits it and, to
//     keep retrying, queues it again.
//
// An entry's deadline is taken when it is queued (Clock.Deadline), so the
// queue's timer fires exactly when a timer armed at that send would have.
// "Due" is decided by the deadline the timer was armed for, never by
// reading the clock in the callback: a simulated clock converts between
// local and global time with truncation, so it may read a nanosecond
// short of the local instant its timer was armed for.
type Retries[T any] struct {
	clock   Clock
	every   Duration
	fire    func(T)
	ring    Retry[T] // sentinel: ring.next is the head, ring.prev the tail
	armed   bool     // a timer is armed for deadline at, or is firing
	at      Deadline
	onTimer func()
}

// NewRetries returns an empty queue on clock whose entries fall due
// every after they are queued; fire receives each entry's value then.
func NewRetries[T any](clock Clock, every Duration, fire func(T)) *Retries[T] {
	q := &Retries[T]{clock: clock, every: every, fire: fire}
	q.ring.prev, q.ring.next = &q.ring, &q.ring
	q.onTimer = q.run
	return q
}

// Add queues e at the tail, due one interval from now, moving it there
// if it is already queued. v is what fire receives when e falls due.
func (q *Retries[T]) Add(e *Retry[T], v T) {
	q.Remove(e)
	e.due = q.clock.Deadline(q.clock.Now().Add(q.every))
	e.val = v
	e.prev, e.next = q.ring.prev, &q.ring
	e.prev.next = e
	q.ring.prev = e
	if !q.armed {
		q.arm()
	}
}

// Remove unlinks e if it is queued. The timer is left armed.
func (q *Retries[T]) Remove(e *Retry[T]) {
	if e.next == nil {
		return
	}
	e.prev.next, e.next.prev = e.next, e.prev
	e.prev, e.next = nil, nil
}

// arm sets the timer for the head's deadline.
func (q *Retries[T]) arm() {
	q.armed = true
	q.at = q.ring.next.due
	q.clock.AtFunc(q.at, q.onTimer)
}

// run is the timer's callback. The timer counts as armed until every
// due entry has been handed to fire, so that one queued again from fire
// arms nothing: the timer is re-armed once, for whichever entry is the
// head then.
func (q *Retries[T]) run() {
	for e := q.ring.next; e != &q.ring && e.due <= q.at; e = q.ring.next {
		q.Remove(e)
		q.fire(e.val)
	}
	q.armed = false
	if q.ring.next != &q.ring {
		q.arm()
	}
}
