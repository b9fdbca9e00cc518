// Package wire is the bufown fixture for the pooled-buffer rules: double
// Put (a deferred one included) and use after Put, on every path — and
// the leaks and escapes the pass leaves to allocation counts.
package wire

import (
	"repro/internal/analysis/bufown/testdata/src/bufpool"
	"repro/internal/analysis/bufown/testdata/src/msg"
)

func okStraightLine(n int) {
	buf := bufpool.Get(n)
	copy(buf, buf)
	bufpool.Put(buf)
}

func okBothBranchesPut(n int, cond bool) {
	buf := bufpool.Get(n)
	if cond {
		bufpool.Put(buf)
	} else {
		bufpool.Put(buf)
	}
}

func okSwitchWithDefault(n, k int) {
	buf := bufpool.Get(n)
	switch k {
	case 0:
		bufpool.Put(buf)
	default:
		bufpool.Put(buf)
	}
}

func doublePut(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	bufpool.Put(buf) // want `buffer may be returned to the pool twice`
}

func doublePutOnOnePath(n int, cond bool) {
	buf := bufpool.Get(n)
	if cond {
		bufpool.Put(buf)
	}
	bufpool.Put(buf) // want `buffer may be returned to the pool twice`
}

func useAfterPut(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	copy(buf, buf) // want `use of pooled buffer after it was returned to the pool`
}

func okDeferPut(n int) int {
	buf := bufpool.Get(n)
	defer bufpool.Put(buf)
	return len(buf)
}

func deferThenExplicitPut(n int) {
	buf := bufpool.Get(n)
	defer bufpool.Put(buf)
	bufpool.Put(buf) // want `buffer may be returned to the pool twice`
}

func okDeferClosurePut(n int) {
	buf := bufpool.Get(n)
	defer func() { bufpool.Put(buf) }()
	copy(buf, buf)
}

func okLoopPutEachIteration(n int) {
	for i := 0; i < n; i++ {
		buf := bufpool.Get(n)
		bufpool.Put(buf)
	}
}

func okRegetAfterPut(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	buf = bufpool.Get(n)
	copy(buf, buf)
	bufpool.Put(buf)
}

type frame struct{ data []byte }

// A buffer that is never Put, or that a field keeps, costs an allocation
// and corrupts nothing: the pass leaves it to allocation counts.
func okLeakAndEscape(f *frame, n int, cond bool) {
	leaked := bufpool.Get(n)
	_ = leaked
	kept := bufpool.Get(n)
	if cond {
		f.data = kept
	}
}

func allowListedDoublePut(n int) {
	buf := bufpool.Get(n)
	bufpool.Put(buf)
	bufpool.Put(buf) //lint:allow bufown(deliberate double Put exercising suppression)
}

// The receive side: the decoded envelope's borrow takes the body.
func okBorrowBody(n int, decode func([]byte) (*msg.Envelope, error)) (*msg.Envelope, error) {
	body := bufpool.Get(n)
	env, err := decode(body)
	if err != nil {
		bufpool.Put(body)
		return nil, err
	}
	env.Borrowed(body)
	return env, nil
}
