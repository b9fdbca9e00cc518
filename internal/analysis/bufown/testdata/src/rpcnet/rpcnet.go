// Package rpcnet is the bufown fixture for the envelope refcount
// rules: owned borrows from Recv and to a Serve's deliver callback,
// Retain/Release balance per path,
// closure-credited releases, and underflow.
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

func (c *codec) leakServeDropsFrame(deliver func(*msg.Envelope)) error {
	env, err := c.Recv() // want `Envelope retain/borrow is not balanced by a Release on every path`
	if err != nil || env.From == 0 {
		return err
	}
	deliver(env)
	return nil
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

// The deliver callback owns each envelope as a Recv caller does.
func (t *transport) okServeLoop() {
	t.c.Serve(func(env *msg.Envelope) {
		if env.From == 0 {
			env.Release()
			return
		}
		t.submit(func() { t.handler(*env); env.Release() })
	})
}

func (t *transport) leakServeNoRelease() {
	t.c.Serve(func(env *msg.Envelope) { // want `Envelope retain/borrow is not balanced by a Release on every path`
		t.handler(*env)
	})
}

func (t *transport) leakRecvNoRelease() {
	env, err := t.c.Recv() // want `Envelope retain/borrow is not balanced by a Release on every path`
	if err != nil {
		return
	}
	t.handler(*env)
}

func (t *transport) leakRetain(e *msg.Envelope) { // want `Envelope retain/borrow is not balanced by a Release on every path`
	e.Retain()
	t.handler(*e)
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

func (t *transport) leakRetainOnBranch(env msg.Envelope, heavy bool) { // want `Envelope retain/borrow is not balanced by a Release on every path`
	if heavy {
		env.Retain()
	}
	t.handler(env)
}
