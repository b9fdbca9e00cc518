//go:build tankdebug

package bufpool

import (
	"fmt"
	"runtime"
	"sync"
)

// tankdebug is the dynamic complement of the static bufown pass: where
// bufown checks its three rules — at most one Put, no use after it, no
// Envelope.Release past its borrow — on the paths it can see, this
// instrumentation catches what it cannot — cross-goroutine lifetimes,
// data-dependent aliasing — at runtime, loudly:
//
//   - Put poisons the full capacity with 0xDB before parking the
//     buffer, so a use-after-Put reads garbage instead of plausibly
//     stale bytes (the race detector then has a data pattern to blame,
//     and checksums fail deterministically instead of sometimes).
//   - A second Put of the same backing array before an intervening Get
//     panics, printing the stack of the first Put — the half of the
//     bug report a crash at the *second* site never contains.
//   - An Envelope.Release that takes the borrow's count below zero
//     panics, and so does a Retain after the last Release (internal/msg
//     reads Debug).
//   - Bytes that are not pooled but are reused at once — a frame the
//     wire codec decoded in its connection buffer — are poisoned the
//     same way with Poison, so a decoded message that aliased them
//     reads garbage too.
//
// `make verify` runs the race suite once under this tag; the build is
// never shipped (the poison pass is O(cap) per Put).

// Debug reports a tankdebug build. Tests that pin allocation counts skip
// when it is set: the debug hooks allocate (stack capture, poison
// bookkeeping) by design.
const Debug = true

// poisonByte fills released buffers. 0xDB ("dead buffer") is unlikely
// to be a valid length prefix, opcode, or page checksum, so poisoned
// bytes fail fast wherever they leak.
const poisonByte = 0xDB

var (
	debugMu sync.Mutex
	// firstPut maps a pooled buffer's backing array (keyed by the
	// address of byte 0 at full capacity) to the stack of the Put that
	// parked it. The *byte key keeps the array reachable, which is
	// exactly what a debugging build wants: no recycled-by-GC aliasing
	// of the evidence.
	firstPut = make(map[*byte]string)
)

func backingKey(b []byte) *byte {
	full := b[:cap(b)]
	return &full[0]
}

// debugGet runs inside Get for buffers handed out from the pool: the
// buffer is live again, so the pending-Put record is cleared.
func debugGet(b []byte) {
	if cap(b) == 0 {
		return
	}
	key := backingKey(b)
	debugMu.Lock()
	delete(firstPut, key)
	debugMu.Unlock()
}

// debugPut runs at the top of Put, before the buffer is parked. Only
// class-size buffers are tracked — anything else is dropped to the GC
// by Put and never recycled, so double-putting it cannot corrupt a
// later borrower.
func debugPut(b []byte) {
	c := cap(b)
	if c < MinClass || c > MaxClass || c&(c-1) != 0 {
		return
	}
	key := backingKey(b)
	stack := make([]byte, 16<<10)
	stack = stack[:runtime.Stack(stack, false)]
	debugMu.Lock()
	prior, doubled := firstPut[key]
	if !doubled {
		firstPut[key] = string(stack)
	}
	debugMu.Unlock()
	if doubled {
		panic(fmt.Sprintf("bufpool: double Put of %d-byte buffer with no intervening Get; first Put at:\n%s", c, prior))
	}
	Poison(b[:c])
}

// Poison overwrites b with the poison pattern, as Put does a released
// buffer: for bytes a caller reuses at once that nothing may still read.
func Poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
