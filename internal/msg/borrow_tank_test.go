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
	env := Envelope{Payload: &DiskReadVRes{}}
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

// TestRetainAfterLastReleasePanics: under tankdebug a Retain on a borrow
// whose last reference is gone panics: its buffer and box are the pool's
// again, and a Release to match would return them a second time.
func TestRetainAfterLastReleasePanics(t *testing.T) {
	env := Envelope{Payload: &DiskWrite{}}
	env.Borrowed(bufpool.Get(1024))
	env.Release()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("a Retain after the last Release did not panic")
		}
		if msg, _ := r.(string); !strings.Contains(msg, "after its last Release") {
			t.Fatalf("panic value %v does not name the misuse", r)
		}
	}()
	env.Retain()
}
