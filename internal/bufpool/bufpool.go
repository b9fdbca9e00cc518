// Package bufpool is the installation's shared byte-buffer pool: a
// size-classed sync.Pool serving the page and frame buffers of the hot
// data path — client flush payloads, wire frames, and scatter-gather
// batches — so steady-state sends and receives recycle memory instead
// of allocating it.
//
// The borrow/release contract (DESIGN §12.4):
//
//   - Get(n) hands out a buffer of length n the caller owns exclusively.
//   - Put(b) returns ownership to the pool. After Put the caller must
//     not read or write the buffer: it will be handed, unzeroed, to the
//     next Get of the same class.
//   - Put is OPTIONAL. A buffer whose lifetime became unclear — a
//     retried send, a cancelled call, an aliased payload — is simply
//     dropped and the garbage collector reclaims it. Correctness never
//     depends on a Put; only steady-state allocation rates do. When in
//     doubt, leak to the GC.
//
// tanklint's bufown pass checks the half that can corrupt bytes — at most
// one Put per Get, no use after it — and the tankdebug build checks it
// again at run time; the allocation pins beside the hot paths' benchmarks
// check the half that costs allocations.
//
// Buffers are rounded up to power-of-two classes between MinClass and
// MaxClass; requests outside that range fall through to plain make and
// are never pooled.
package bufpool

import "sync"

const (
	// MinClass is the smallest pooled buffer size. Below this, pooling
	// costs more than the allocation it saves.
	MinClass = 1 << 9 // 512 B
	// MaxClass is the largest pooled buffer size: a full flush batch
	// (32 pages × 4 KiB) plus framing, rounded up.
	MaxClass = 1 << 18 // 256 KiB
)

// pools[i] serves buffers of capacity MinClass<<i. The pool stores
// *[]byte — a pointer-shaped value, so the interface conversion on
// Put/Get is allocation-free.
var pools [10]sync.Pool // 512 B .. 256 KiB

// boxes recycles the *[]byte headers themselves: Put needs a heap box
// to park its slice header in, and taking &b fresh each call would cost
// one allocation per Put — exactly the per-message overhead the pool
// exists to remove. Get returns each emptied box here.
var boxes sync.Pool

func classIndex(n int) int {
	idx, c := 0, MinClass
	for c < n {
		c <<= 1
		idx++
	}
	return idx
}

// Get returns a buffer of length n. Contents are undefined (the buffer
// is recycled unzeroed); the caller owns it until Put.
func Get(n int) []byte {
	if n > MaxClass {
		return make([]byte, n)
	}
	size := n
	if size < MinClass {
		size = MinClass
	}
	idx := classIndex(size)
	if p, _ := pools[idx].Get().(*[]byte); p != nil {
		b := (*p)[:n]
		*p = nil
		boxes.Put(p)
		debugGet(b)
		return b
	}
	return make([]byte, n, MinClass<<idx)
}

// Put returns a buffer obtained from Get to its size class. Buffers
// whose capacity is not an exact class size (grown, sliced from
// elsewhere, or larger than MaxClass) are dropped for the GC.
func Put(b []byte) {
	debugPut(b)
	c := cap(b)
	if c < MinClass || c > MaxClass || c&(c-1) != 0 {
		return
	}
	p, _ := boxes.Get().(*[]byte)
	if p == nil {
		p = new([]byte)
	}
	*p = b[:c]
	pools[classIndex(c)].Put(p)
}
