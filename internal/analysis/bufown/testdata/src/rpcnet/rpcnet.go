// Package rpcnet is the bufown fixture for the envelope borrow: the
// references Recv, a Serve's deliver callback and Retain hand out, the
// Releases that closures make, and a Release past the borrow.
package rpcnet

import (
	"errors"

	"repro/internal/analysis/bufown/testdata/src/msg"
)

type codec struct{ closed bool }

func (c *codec) Recv() (*msg.Envelope, error) {
	if c.closed {
		return nil, errors.New("closed")
	}
	return &msg.Envelope{}, nil
}

// Serve hands each envelope Recv returns to deliver, which takes its
// borrow.
func (c *codec) Serve(deliver func(*msg.Envelope)) error {
	for {
		env, err := c.Recv()
		if err != nil {
			return err
		}
		deliver(env)
	}
}

type transport struct {
	c       *codec
	handler func(msg.Envelope)
	submit  func(func())
}

func (t *transport) okReadLoop() {
	for {
		env, err := t.c.Recv()
		if err != nil {
			return
		}
		e := *env
		t.submit(func() {
			t.handler(e)
			e.Release()
		})
	}
}

func (t *transport) okDropPath(bad bool) {
	env, err := t.c.Recv()
	if err != nil {
		return
	}
	if bad {
		env.Release()
		return
	}
	e := *env
	t.submit(func() { t.handler(e); e.Release() })
}

// The deliver callback holds each envelope as a Recv caller does.
func (t *transport) okServeLoop() {
	t.c.Serve(func(env *msg.Envelope) {
		if env.From == 0 {
			env.Release()
			return
		}
		t.submit(func() { t.handler(*env); env.Release() })
	})
}

func (t *transport) okRetainDeferRelease(e *msg.Envelope) {
	e.Retain()
	defer e.Release()
	t.handler(*e)
}

func (t *transport) underflowRelease(e *msg.Envelope) {
	e.Release() // want `Envelope.Release without a matching Retain or borrow`
}

func (t *transport) okDeliverStyle(env msg.Envelope, heavy bool) {
	// The disk.Deliver shape: Retain for a deferred-queue closure that
	// releases after the service call.
	if heavy {
		env.Retain()
		t.submit(func() { env.Release() })
	}
	t.handler(env)
}

// A borrow never Released costs the frame's allocation, nothing more.
func (t *transport) okUnreleased() {
	env, err := t.c.Recv()
	if err != nil {
		return
	}
	t.handler(*env)
}
