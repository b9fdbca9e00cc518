//go:build tankdebug

package msg

import (
	"strings"
	"testing"

	"repro/internal/bufpool"
)

// TestReleasePastBorrowPanics: under tankdebug a Release that takes a
// borrow's count below zero panics, as a double bufpool.Put does, instead
// of passing silently.
func TestReleasePastBorrowPanics(t *testing.T) {
	var env Envelope
	env.Borrowed(bufpool.Get(1024))
	env.Retain()
	env.Release()
	env.Release() // the last reference: the buffer goes back to the pool
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a Release past the borrow did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "past its borrow") {
			t.Fatalf("panic value %v does not name the underflow", r)
		}
	}()
	env.Release()
}
