package sim

import (
	"testing"
	"time"
)

// stubClock records AfterFunc arms and fires each callback synchronously.
type stubClock struct {
	armed []time.Duration
}

func (c *stubClock) Now() Time { return 0 }

func (c *stubClock) AfterFunc(d time.Duration, fn func()) Timer {
	c.armed = append(c.armed, d)
	fn()
	return stubTimer{}
}

func (c *stubClock) Deadline(at Time) Deadline { return Deadline(at) }

func (c *stubClock) AtFunc(dl Deadline, fn func()) Timer {
	return c.AfterFunc(Time(dl).Sub(c.Now()), fn)
}

type stubTimer struct{}

func (stubTimer) Stop() bool { return false }

func TestAfterNonPositiveIsImmediate(t *testing.T) {
	c := &stubClock{}
	select {
	case <-After(c, 0):
	default:
		t.Fatal("After(c, 0) must return an already-closed channel")
	}
	if len(c.armed) != 0 {
		t.Fatalf("non-positive After armed a timer: %v", c.armed)
	}
}

func TestSleepArmsTheClock(t *testing.T) {
	c := &stubClock{}
	Sleep(c, 5*time.Millisecond)
	if len(c.armed) != 1 || c.armed[0] != 5*time.Millisecond {
		t.Fatalf("Sleep armed %v, want exactly one 5ms timer", c.armed)
	}
}

func TestSleepRealClock(t *testing.T) {
	c := NewRealClock(nil)
	start := time.Now()
	Sleep(c, 2*time.Millisecond)
	if elapsed := time.Since(start); elapsed < 2*time.Millisecond {
		t.Fatalf("Sleep returned after %v, want >= 2ms", elapsed)
	}
}
