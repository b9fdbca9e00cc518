package client

import (
	"sync"
	"testing"
	"time"

	"repro/internal/sim"
)

// manualClock is a sim.Clock whose time is set by hand and whose timers
// fire only when the test fires them.
type manualClock struct {
	now    sim.Time
	timers []manualTimer
}

type manualTimer struct {
	at sim.Deadline
	fn func()
}

func (c *manualClock) Now() sim.Time                             { return c.now }
func (c *manualClock) Deadline(at sim.Time) sim.Deadline         { return sim.Deadline(at) }
func (c *manualClock) AfterFunc(time.Duration, func()) sim.Timer { panic("unused") }

func (c *manualClock) AtFunc(at sim.Deadline, fn func()) sim.Timer {
	c.timers = append(c.timers, manualTimer{at, fn})
	return nil
}

// waiting returns a call parked as Wait parks it, queued on q.
func waiting(q *Deadlines, clk *manualClock, timeout time.Duration) *Call {
	c := &Call{wake: make(chan bool, 1)}
	c.state.Store(callWaiting)
	q.add(c, clk, timeout)
	return c
}

// woken reports what c's caller was woken with, if anything.
func woken(c *Call) (ok, was bool) {
	select {
	case ok = <-c.wake:
		return ok, true
	default:
		return false, false
	}
}

// A Deadlines times its calls out in deadline order with one timer while
// they share a timeout. A call with a shorter timeout goes in ahead of
// the ones it overtakes and arms a timer of its own; a call that
// completes leaves the queue and is never timed out.
func TestDeadlinesTimeOutInDeadlineOrder(t *testing.T) {
	var q Deadlines
	clk := &manualClock{}
	first := waiting(&q, clk, 3*time.Second)  // due at 3 s
	second := waiting(&q, clk, 3*time.Second) // due at 3 s
	clk.now = sim.Time(time.Second)
	third := waiting(&q, clk, 3*time.Second) // due at 4 s
	if len(clk.timers) != 1 {
		t.Fatalf("three calls with one timeout armed %d timers, want 1", len(clk.timers))
	}
	short := waiting(&q, clk, time.Second) // due at 2 s: the new head
	if len(clk.timers) != 2 || clk.timers[1].at != sim.Deadline(2*time.Second) {
		t.Fatalf("a call that became the head armed %v, want a second timer for 2 s", clk.timers)
	}
	second.complete()
	q.remove(second)

	clk.timers[1].fn() // 2 s
	if ok, was := woken(short); ok || !was {
		t.Fatalf("the 2 s call was woken %v (%v) at its deadline, want a timeout", ok, was)
	}
	for _, c := range []*Call{first, third} {
		if _, was := woken(c); was {
			t.Fatal("a call was woken before its deadline")
		}
	}
	clk.timers[0].fn() // 3 s
	if ok, was := woken(first); ok || !was {
		t.Fatalf("the first 3 s call was woken %v (%v), want a timeout", ok, was)
	}
	if ok, was := woken(second); !ok || !was {
		t.Fatalf("the completed call was woken %v (%v), want its completion alone", ok, was)
	}
	if _, was := woken(third); was {
		t.Fatal("the 4 s call was woken at 3 s")
	}
	for i := 2; i < len(clk.timers); i++ {
		clk.timers[i].fn()
	}
	if ok, was := woken(third); ok || !was {
		t.Fatalf("the 4 s call was woken %v (%v), want a timeout", ok, was)
	}
	if q.ring.next != &q.ring || q.armed {
		t.Fatalf("the queue holds calls or a timer after every call left it")
	}
}

// Calls that complete and calls that time out, on many goroutines at
// once, over one queue on the wall clock: each reports its own outcome.
// Run with -race.
func TestDeadlinesUnderConcurrentCalls(t *testing.T) {
	var q Deadlines
	clk := sim.NewRealClock(nil)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var c Call
			for i := 0; i < 200; i++ {
				if (g+i)%4 == 0 {
					// Never completes; its record is given up, as a
					// SyncClient gives it up.
					lost := new(Call)
					lost.Arm(func(func()) {})()
					if lost.Completed() || lost.Wait(&q, clk, time.Millisecond) {
						t.Error("a call that never completed reported completion")
						return
					}
					continue
				}
				c.Arm(func(done func()) { go done() })()
				if !c.Completed() && !c.Wait(&q, clk, time.Minute) {
					t.Error("a call that completed reported a timeout")
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
