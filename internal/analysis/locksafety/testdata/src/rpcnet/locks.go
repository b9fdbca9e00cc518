// Package rpcnet is a locksafety fixture: an in-scope package whose
// mutexes are leaf locks, so blocking while holding one is a finding.
package rpcnet

import (
	"sync"
	"time"

	"repro/internal/analysis/locksafety/testdata/src/wire"
)

type Transport struct {
	mu    sync.Mutex
	rw    sync.RWMutex
	conns map[int]int
	ch    chan int
}

func (t *Transport) sendUnderLock() {
	t.mu.Lock()
	t.ch <- 1 // want `channel send while t.mu is held`
	t.mu.Unlock()
}

func (t *Transport) recvUnderDeferredLock() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return <-t.ch // want `channel receive while t.mu is held`
}

func (t *Transport) sleepUnderRLock() {
	t.rw.RLock()
	time.Sleep(time.Millisecond) // want `call to time.Sleep while t.rw is held`
	t.rw.RUnlock()
}

func (t *Transport) selectNoDefault() {
	t.mu.Lock()
	select {
	case v := <-t.ch: // want `select without default while t.mu is held`
		_ = v
	case t.ch <- 0: // want `select without default while t.mu is held`
	}
	t.mu.Unlock()
}

func (t *Transport) selectWithDefault() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	select {
	case v := <-t.ch:
		return v
	default:
		return 0
	}
}

// A lock taken on one branch may still be held after the join.
func (t *Transport) sendAfterBranchLock(locked bool) {
	if locked {
		t.mu.Lock()
	}
	t.ch <- 1 // want `channel send while t.mu is held`
	if locked {
		t.mu.Unlock()
	}
}

func (t *Transport) releasedFirst() {
	t.mu.Lock()
	n := len(t.conns)
	t.mu.Unlock()
	t.ch <- n
}

func (t *Transport) handoff() {
	t.mu.Lock()
	defer t.mu.Unlock()
	go func() {
		t.ch <- 1
	}()
}

func (t *Transport) doubleLock() {
	t.mu.Lock()
	t.mu.Lock() // want `Lock of t.mu which is already held`
	t.mu.Unlock()
}

func (t *Transport) doubleRLock() {
	t.rw.RLock()
	t.rw.RLock()
	t.rw.RUnlock()
	t.rw.RUnlock()
}

func (t *Transport) upgradeAttempt() {
	t.rw.RLock()
	t.rw.Lock() // want `Lock of t.rw which is already held`
	t.rw.Unlock()
	t.rw.RUnlock()
}

func (t *Transport) waitUnderLock(wg *sync.WaitGroup) {
	t.mu.Lock()
	defer t.mu.Unlock()
	wg.Wait() // want `call to \(sync.WaitGroup\).Wait while t.mu is held`
}

// wire.Codec is a concrete type: the blocking-call table must match its
// pointer-receiver methods as it matched the interface's.
func (t *Transport) sendOnCodecUnderLock(c *wire.Codec, env *int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c.Send(env)  // want `call to \(wire.Codec\).Send while t.mu is held`
	c.Recv()     // want `call to \(wire.Codec\).Recv while t.mu is held`
	c.Serve(nil) // want `call to \(wire.Codec\).Serve while t.mu is held`
	c.Close()
}

func (t *Transport) sendOnCodecAfterUnlock(c *wire.Codec, env *int) {
	t.mu.Lock()
	n := len(t.conns)
	t.mu.Unlock()
	if n > 0 {
		c.Send(env)
	}
}

// link is the per-peer send path: its mutex guards the queue and the
// write token, and is a leaf — the writer's blocking drain runs with it
// released, the nonblocking TryWrite may run under it.
type link struct {
	mu    sync.Mutex
	codec *wire.Codec
	queue []wire.Frame
}

func (l *link) drainUnderLock() {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.codec.WriteFrames(l.queue) // want `call to \(wire.Codec\).WriteFrames while l.mu is held`
}

func (l *link) drainAfterUnlock() {
	l.mu.Lock()
	batch := l.queue
	l.queue = nil
	l.mu.Unlock()
	l.codec.WriteFrames(batch)
}

func (l *link) tryUnderLock(f *wire.Frame) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.codec.TryWrite(f)
}
