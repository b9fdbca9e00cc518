// Package trace is a locksafety fixture standing in for internal/trace:
// every node emits through a sink whose mutex guards only its buffer.
package trace

import "sync"

type Ring struct {
	mu  sync.Mutex
	buf []string
	out chan string
}

func (r *Ring) Emit(e string) {
	r.mu.Lock()
	r.buf = append(r.buf, e)
	r.mu.Unlock()
}

func (r *Ring) forwardUnderLock(e string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf = append(r.buf, e)
	r.out <- e // want `channel send while r.mu is held`
}
