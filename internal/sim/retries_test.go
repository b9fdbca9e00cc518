package sim

import (
	"math/rand"
	"testing"
	"time"
)

// retransmit is one retransmission as a test observes it: which request,
// at what instant on the sending node's clock.
type retransmit struct {
	id int
	at Time
}

// retryOp is one step of a request schedule: at global instant at, kind
// happens to request id.
type retryOp struct {
	at   Time
	kind int
	id   int
}

const (
	opSend     = iota // first transmission
	opReply           // answered: stop retrying
	opRedirect        // resent at once (a redirect), due again a full interval later
	opCancel          // abandoned
)

// retrySchedule draws n requests' lives over a few seconds of global
// time: each is sent, may be redirected some times, and is answered or
// cancelled after a delay that often spans several retry intervals.
func retrySchedule(seed int64, n int) []retryOp {
	rng := rand.New(rand.NewSource(seed))
	var ops []retryOp
	for id := 0; id < n; id++ {
		at := Time(rng.Int63n(int64(3 * time.Second)))
		ops = append(ops, retryOp{at: at, kind: opSend, id: id})
		for r := rng.Intn(3); r > 0; r-- {
			ops = append(ops, retryOp{at: at + Time(rng.Int63n(int64(2*time.Second))), kind: opRedirect, id: id})
		}
		end := opReply
		if rng.Intn(4) == 0 {
			end = opCancel
		}
		ops = append(ops, retryOp{at: at + Time(rng.Int63n(int64(4*time.Second))), kind: end, id: id})
	}
	return ops
}

// retrier is one implementation of per-request retransmission.
type retrier interface {
	send(id int)
	redirect(id int)
	stop(id int)
}

// timerLoop is the per-request loop the queue replaced: every send arms
// a timer of its own, every answer stops it.
type timerLoop struct {
	clock  Clock
	every  Duration
	log    *[]retransmit
	timers map[int]Timer
}

func (l *timerLoop) arm(id int) {
	l.timers[id] = l.clock.AfterFunc(l.every, func() {
		*l.log = append(*l.log, retransmit{id, l.clock.Now()})
		l.arm(id)
	})
}

func (l *timerLoop) send(id int) { l.arm(id) }

func (l *timerLoop) redirect(id int) {
	if t, ok := l.timers[id]; ok {
		t.Stop()
		l.arm(id)
	}
}

func (l *timerLoop) stop(id int) {
	if t, ok := l.timers[id]; ok {
		t.Stop()
		delete(l.timers, id)
	}
}

// queueLoop is the same behaviour through one Retries queue.
type queueLoop struct {
	q   *Retries[int]
	ent []Retry[int]
}

func newQueueLoop(clock Clock, every Duration, n int, log *[]retransmit) *queueLoop {
	l := &queueLoop{ent: make([]Retry[int], n)}
	l.q = NewRetries(clock, every, func(id int) {
		*log = append(*log, retransmit{id, clock.Now()})
		l.q.Add(&l.ent[id], id)
	})
	return l
}

func (l *queueLoop) send(id int) { l.q.Add(&l.ent[id], id) }

func (l *queueLoop) redirect(id int) {
	if l.ent[id].Queued() {
		l.q.Add(&l.ent[id], id)
	}
}

func (l *queueLoop) stop(id int) { l.q.Remove(&l.ent[id]) }

// runRetrySchedule plays ops against the retrier mk builds on a node
// clock running 5 % fast from a random offset, and returns the
// retransmissions it made.
func runRetrySchedule(ops []retryOp, offset Duration,
	mk func(Clock, *[]retransmit) retrier) []retransmit {
	s := NewScheduler(1)
	clock := s.NewClock(1.05, offset)
	var log []retransmit
	d := mk(clock, &log)
	for _, op := range ops {
		op := op
		s.At(op.at, func() {
			switch op.kind {
			case opSend:
				d.send(op.id)
			case opRedirect:
				d.redirect(op.id)
			default:
				d.stop(op.id)
			}
		})
	}
	s.RunUntil(Time(10 * time.Second))
	return log
}

// TestRetriesMatchPerRequestTimers drives seeded request schedules
// through per-request timers and through one queue: each request must be
// retransmitted at the same local instants either way.
func TestRetriesMatchPerRequestTimers(t *testing.T) {
	const n, every = 60, 500 * time.Millisecond
	for seed := int64(1); seed <= 20; seed++ {
		ops := retrySchedule(seed, n)
		offset := Duration(rand.New(rand.NewSource(-seed)).Int63n(int64(time.Hour)))
		want := runRetrySchedule(ops, offset, func(c Clock, log *[]retransmit) retrier {
			return &timerLoop{clock: c, every: every, log: log, timers: map[int]Timer{}}
		})
		got := runRetrySchedule(ops, offset, func(c Clock, log *[]retransmit) retrier {
			return newQueueLoop(c, every, n, log)
		})
		if len(want) == 0 {
			t.Fatalf("seed %d: the schedule retransmits nothing", seed)
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: queue retransmitted %d times, per-request timers %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: retransmission %d is %+v, per-request timers made %+v", seed, i, got[i], want[i])
			}
		}
	}
}

// TestRetriesOneTimer checks the queue's timer economy: a burst of
// requests answered within the interval arms one timer, and that timer,
// firing after every entry left, retransmits nothing and arms no other.
func TestRetriesOneTimer(t *testing.T) {
	s := NewScheduler(1)
	clock := &CountingClock{Clock: s.NewClock(1.05, 0)}
	fired := 0
	q := NewRetries(clock, 500*time.Millisecond, func(int) { fired++ })
	ent := make([]Retry[int], 1000)
	for i := range ent {
		q.Add(&ent[i], i)
		s.RunFor(100 * time.Microsecond)
		q.Remove(&ent[i])
	}
	if clock.Armed() != 1 {
		t.Fatalf("1000 answered requests armed %d timers, want 1", clock.Armed())
	}
	s.Run()
	if fired != 0 || clock.Armed() != 1 {
		t.Fatalf("a timer whose entries all left retransmitted %d and armed %d more", fired, clock.Armed()-1)
	}
}

// TestRetriesRemoveHead removes the entry the timer is armed for: the
// timer still fires then, retransmits nothing, and re-arms for the next
// entry, which is retransmitted one interval after its own send.
func TestRetriesRemoveHead(t *testing.T) {
	s := NewScheduler(1)
	clock := &CountingClock{Clock: s.NewClock(1.05, 7*time.Second)}
	var log []retransmit
	q := NewRetries(clock, time.Second, func(id int) { log = append(log, retransmit{id, clock.Now()}) })
	var a, b Retry[int]
	q.Add(&a, 1)
	s.RunFor(300 * time.Millisecond)
	q.Add(&b, 2)
	sentB := clock.Now()
	q.Remove(&a)
	if a.Queued() || !b.Queued() {
		t.Fatalf("after removing the head: a queued %v, b queued %v", a.Queued(), b.Queued())
	}
	s.RunFor(800 * time.Millisecond) // the timer armed for a fires here
	if len(log) != 0 || clock.Armed() != 2 {
		t.Fatalf("the timer for a removed head retransmitted %v and armed %d timers in all, want none and 2", log, clock.Armed())
	}
	s.Run()
	if len(log) != 1 || log[0].id != 2 {
		t.Fatalf("retransmissions %v, want b's alone", log)
	}
	if d := log[0].at.Sub(sentB); d < time.Second-2 || d > time.Second {
		t.Fatalf("b retransmitted %v after its send, want one interval", d)
	}
}

// TestRetriesRequeueFromFire re-queues entries from inside the fire
// callback, with one of them behind a later entry: each retries every
// interval after its own send, and the queue keeps one timer armed.
func TestRetriesRequeueFromFire(t *testing.T) {
	s := NewScheduler(1)
	clock := &CountingClock{Clock: s.NewClock(1.05, 0)}
	var log []retransmit
	var ent [3]Retry[int]
	var tries [3]int
	var q *Retries[int]
	q = NewRetries(clock, time.Second, func(id int) {
		log = append(log, retransmit{id, clock.Now()})
		if tries[id]++; tries[id] < 3 {
			q.Add(&ent[id], id)
		}
	})
	q.Add(&ent[0], 0)
	q.Add(&ent[1], 1) // due with 0: one firing serves both
	s.RunFor(400 * time.Millisecond)
	q.Add(&ent[2], 2)
	s.Run()
	want := []int{0, 1, 2, 0, 1, 2, 0, 1, 2}
	if len(log) != len(want) {
		t.Fatalf("retransmissions %v, want ids %v", log, want)
	}
	for i, r := range log {
		if r.id != want[i] {
			t.Fatalf("retransmissions %v, want ids %v", log, want)
		}
	}
	// One timer per distinct deadline: the first arm, then one per firing
	// that left the queue non-empty (two per round: the 0/1 pair's and 2's).
	if clock.Armed() != 6 {
		t.Fatalf("armed %d timers, want 6", clock.Armed())
	}
	for id := range ent {
		if ent[id].Queued() {
			t.Fatalf("entry %d left queued", id)
		}
	}
}
