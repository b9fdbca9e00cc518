package core

import (
	"slices"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/msg"
	"repro/internal/sim"
)

// newTestCalls returns a table of string-valued calls whose transmissions
// are recorded in sent.
func newTestCalls(sent *[]msg.ReqID) *Calls[*string] {
	clock := sim.NewScheduler(1).NewClock(1, 0)
	return NewCalls(100, clock, time.Second, func(c *Call[*string], _ bool) bool {
		*sent = append(*sent, c.ID)
		return true
	})
}

// TestTakeReturnsACopy: the entry Take gives up is parked and the next
// Add takes it back, so what its owner reads of the request given up is
// the copy Take returned, which the reuse leaves unchanged. The parked
// entry keeps no Val: a parked SAN call must not keep its callback or
// its pooled payload alive.
func TestTakeReturnsACopy(t *testing.T) {
	var sent []msg.ReqID
	tbl := newTestCalls(&sent)
	a, b := "a", "b"
	e := tbl.Add(&a)
	tbl.Send(e)
	e.Tries = 2
	got, ok := tbl.Take(e.ID)
	if !ok || got.ID != 101 || got.Tries != 2 || got.Val != &a {
		t.Fatalf("Take = %+v, %v; want request 101, 2 tries, its Val", got, ok)
	}
	if len(tbl.spare) != 1 || tbl.spare[0] != e || e.Val != nil || e.retry != (sim.Retry[*Call[*string]]{}) {
		t.Fatalf("the taken entry was not parked empty: %d parked, %+v", len(tbl.spare), *e)
	}
	if _, ok := tbl.Take(101); ok || tbl.Find(101) != nil {
		t.Fatal("a request given up is still held")
	}
	f := tbl.Add(&b)
	if f != e || f.ID != 102 || f.Val != &b || f.Tries != 0 {
		t.Fatalf("Add did not reuse the parked entry: %p (parked %p) %+v", f, e, *f)
	}
	if got.ID != 101 || got.Tries != 2 || got.Val != &a {
		t.Fatalf("the copy changed when its entry was reused: %+v", got)
	}
	if tbl.Find(102) != f {
		t.Fatal("Find does not return the held entry")
	}
}

// TestCancelHandsOverCopies: Cancel gives up what was held at entry, in
// issue order, each callback reading its own copy although the entries
// are parked and reused under it; a call issued from a callback
// survives, and the table parks no more than maxSpareCalls entries.
func TestCancelHandsOverCopies(t *testing.T) {
	var sent []msg.ReqID
	tbl := newTestCalls(&sent)
	vals := make([]string, 2*maxSpareCalls)
	var issued []msg.ReqID
	for i := range vals {
		vals[i] = string(rune('a' + i%26))
		c := tbl.Add(&vals[i])
		tbl.Send(c)
		issued = append(issued, c.ID)
	}
	var cancelled, late []msg.ReqID
	tbl.Cancel(func(c Call[*string]) {
		cancelled = append(cancelled, c.ID)
		if want := &vals[c.ID-101]; c.Val != want {
			t.Errorf("request %d: Val %p, want %p", c.ID, c.Val, want)
		}
		if len(late) < 3 {
			n := tbl.Add(nil)
			late = append(late, n.ID)
		}
	})
	if !slices.Equal(cancelled, issued) {
		t.Fatalf("cancelled %v, issued %v", cancelled, issued)
	}
	if tbl.Len() != len(late) || tbl.Find(late[0]) == nil {
		t.Fatalf("%d held after Cancel, want the %d calls issued from it", tbl.Len(), len(late))
	}
	if len(tbl.spare) != maxSpareCalls {
		t.Fatalf("%d entries parked, want the bound %d", len(tbl.spare), maxSpareCalls)
	}
	for _, c := range tbl.spare {
		if c.Val != nil {
			t.Fatalf("parked entry keeps Val %v", c.Val)
		}
	}
}

// TestParkedCallIsPoisoned: under tankdebug a parked entry's ID reads
// 0xDB… and sending it panics, so a holder that kept the pointer past
// Take fails there.
func TestParkedCallIsPoisoned(t *testing.T) {
	if !bufpool.Debug {
		t.Skip("poisoning is a tankdebug build's")
	}
	var sent []msg.ReqID
	tbl := newTestCalls(&sent)
	c := tbl.Add(nil)
	tbl.Take(c.ID)
	if c.ID != poisonCall {
		t.Fatalf("parked entry's ID %#x, want %#x", c.ID, poisonCall)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("sending a parked entry did not panic")
		}
	}()
	tbl.Send(c)
}
