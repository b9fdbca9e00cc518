// Package core is the traceexhaustive fixture for rule T3: every
// callback the configured cancellation function (Channel).CancelAll
// hands to a Cancel call must emit a trace event.
package core

type Event struct{ Req uint64 }

type Calls struct{ held []uint64 }

func (t *Calls) Cancel(cancelled func(id uint64)) {
	for _, id := range t.held {
		cancelled(id)
	}
	t.held = nil
}

type Channel struct {
	calls, other *Calls
	sink         func(Event)
}

func (c *Channel) emit(e Event) { c.sink(e) }

func (c *Channel) CancelAll() {
	c.calls.Cancel(func(id uint64) {
		c.emit(Event{Req: id})
	})
	c.other.Cancel(func(id uint64) { // want `cancellation callback in core.Channel.CancelAll without a trace emit`
		_ = id
	})
}

// Drain is not a configured cancellation; it owes no emit.
func (c *Channel) Drain() {
	c.calls.Cancel(func(uint64) {})
}
