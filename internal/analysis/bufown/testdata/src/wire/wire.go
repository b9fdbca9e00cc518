// Package wire is the bufown fixture for the pooled-buffer rules:
// leaks (including branch-dependent ones), double Put, use after Put,
// defer Put, loop re-Get, sanctioned and unsanctioned escapes, and the
// err-guard over owned sources.
package wire

import (
	"errors"

	"repro/internal/analysis/bufown/testdata/src/bufpool"
	"repro/internal/analysis/bufown/testdata/src/msg"
)

func okStraightLine(n int) {
	buf := bufpool.Get(n)
	copy(buf, buf)
	bufpool.Put(buf)
}

func leakNoPut(n int) {
	buf := bufpool.Get(n) // want `pooled buffer is not released on every path`
	_ = buf
}

func leakBranchDependent(n int, cond bool) {
	buf := bufpool.Get(n) // want `pooled buffer is not released on every path`
	if cond {
		bufpool.Put(buf)
	}
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
	// Exactness check: a switch with a default has no "no clause ran"
	// path, so putting in every clause is a complete release.
	buf := bufpool.Get(n)
	switch k {
	case 0:
		bufpool.Put(buf)
	default:
		bufpool.Put(buf)
	}
}

func leakSwitchWithoutDefault(n, k int) {
	buf := bufpool.Get(n) // want `pooled buffer is not released on every path`
	switch k {
	case 0:
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

func loopReGet(n int) {
	var buf []byte
	for i := 0; i < n; i++ {
		buf = bufpool.Get(n) // want `buffer from a previous loop iteration may still be owned at this Get`
	}
	_ = buf
}

func okLoopPutEachIteration(n int) {
	for i := 0; i < n; i++ {
		buf := bufpool.Get(n)
		bufpool.Put(buf)
	}
}

type frame struct {
	data []byte
}

func escapeUnsanctionedField(f *frame, n int) {
	buf := bufpool.Get(n)
	f.data = buf // want `owned buffer escapes into a field or element without //tank:adopt or //tank:alias`
}

func okAdoptedField(f *frame, n int) {
	buf := bufpool.Get(n)
	f.data = buf //tank:adopt(frame owns its data until reset)
}

func adoptWithoutReason(f *frame, n int) {
	buf := bufpool.Get(n)
	f.data = buf /* want `tank:adopt annotation needs a reason` */ //tank:adopt()
}

func okAliasedStaging(f *frame, n int) {
	buf := bufpool.Get(n)
	//tank:alias(staged for the write below; ownership stays here)
	f.data = buf
	bufpool.Put(buf)
}

var sink func()

func escapeClosure(n int) {
	buf := bufpool.Get(n)
	sink = func() { // want `owned buffer escapes into a closure without //tank:adopt or //tank:alias`
		copy(buf, buf)
	}
}

func okClosureCarriesPut(n int, schedule func(func())) {
	buf := bufpool.Get(n)
	schedule(func() { bufpool.Put(buf) })
}

func consume(b []byte) { _ = b }

func escapeGoroutine(n int) {
	buf := bufpool.Get(n)
	go consume(buf) // want `owned buffer escapes into a goroutine`
}

var bufCh = make(chan []byte, 1)

func escapeChannelSend(n int) {
	buf := bufpool.Get(n)
	bufCh <- buf // want `owned buffer escapes into a channel send`
}

func fill(p []byte) (int, error) {
	if len(p) == 0 {
		return 0, errors.New("empty")
	}
	return len(p), nil
}

// getChecked fills a fresh buffer, releasing it on the error path.
//
//tank:owns result
func getChecked(n int) ([]byte, error) {
	buf := bufpool.Get(n)
	if _, err := fill(buf); err != nil {
		bufpool.Put(buf)
		return nil, err
	}
	return buf, nil
}

func okGuardedCaller(n int) {
	buf, err := getChecked(n)
	if err != nil {
		return
	}
	bufpool.Put(buf)
}

func leakGuardedCaller(n int) {
	buf, err := getChecked(n) // want `pooled buffer is not released on every path`
	if err != nil {
		return
	}
	_ = buf
}

func returnWithoutOwnsResult(n int) []byte {
	buf := bufpool.Get(n)
	return buf // want `owned buffer returned without a //tank:owns result annotation`
}

func allowListedLeak(n int) {
	buf := bufpool.Get(n) //lint:allow bufown(deliberate leak exercising suppression)
	_ = buf
}

// A send frame owns its pooled head once adopted into it: the frame is
// what a link's queue holds until the frame is written or dropped.
type sendFrame struct{ head, tail []byte }

func okFrameAdopt(n int) sendFrame {
	buf := bufpool.Get(n)
	return sendFrame{head: buf} //tank:adopt(the frame owns its head until Release)
}

func escapeFrameUnsanctioned(n int) sendFrame {
	buf := bufpool.Get(n)
	return sendFrame{head: buf} // want `owned buffer escapes into a composite literal without //tank:adopt or //tank:alias`
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
