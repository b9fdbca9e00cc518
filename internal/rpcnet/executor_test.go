package rpcnet

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestExecutorDropsWhatItHasRun: a closure the executor has run — on a
// live node, a delivered envelope and whatever its payload aliases — must
// not stay reachable from the queue's backing array while the executor
// idles. Popping by re-slicing alone left every slot behind the head
// pointing at its closure until the array was regrown.
func TestExecutorDropsWhatItHasRun(t *testing.T) {
	e := NewExecutor()
	go e.Run()
	defer e.Close()

	const n = 8
	var ran, freed atomic.Int32
	for i := 0; i < n; i++ {
		payload := new([64 << 10]byte)
		runtime.SetFinalizer(payload, func(*[64 << 10]byte) { freed.Add(1) })
		e.Submit(func() {
			payload[0]++
			ran.Add(1)
		})
	}
	deadline := time.Now().Add(5 * time.Second)
	for ran.Load() < n && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	for freed.Load() < n && time.Now().Before(deadline) {
		runtime.GC()
		time.Sleep(5 * time.Millisecond)
	}
	if got := freed.Load(); got != n {
		t.Fatalf("an idle executor still holds %d of the %d closures it ran", n-got, n)
	}
}

// TestExecutorSerialUnderDo drives one executor from many goroutines that
// mix Do and Submit. The tasks share a counter and an "in task" flag that
// nothing but the executor's own exclusion protects (under -race an overlap
// is a reported race as well as a failed check), each producer's tasks must
// run in the order it brought them, every one of them must run without
// Close's help — a wakeup lost between a Do caller and Run would leave the
// last ones queued — and nothing may run once Close has returned.
func TestExecutorSerialUnderDo(t *testing.T) {
	const producers, perProducer = 8, 2000
	e := NewExecutor()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		e.Run()
	}()

	var (
		counter    int  // not atomic: only a task touches it
		inTask     bool // likewise
		overlap    atomic.Int32
		disorder   atomic.Int32
		afterClose atomic.Int32
		finished   atomic.Int32 // for the wait before Close only
		closed     atomic.Bool
		last       [producers]int
	)
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 1; i <= perProducer; i++ {
				task := func() {
					if closed.Load() {
						afterClose.Add(1)
					}
					if inTask {
						overlap.Add(1)
					}
					inTask = true
					counter++
					if last[p] != i-1 {
						disorder.Add(1)
					}
					last[p] = i
					inTask = false
					finished.Add(1)
				}
				if (i+p)%3 == 0 {
					e.Submit(task)
				} else {
					e.Do(task)
				}
			}
		}(p)
	}
	wg.Wait()
	for deadline := time.Now().Add(10 * time.Second); finished.Load() != producers*perProducer; {
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d tasks ran with nothing more arriving: the rest are queued and nobody was woken",
				finished.Load(), producers*perProducer)
		}
		time.Sleep(time.Millisecond)
	}
	e.Close()
	closed.Store(true)
	// Close has returned: every task accepted has run, so the plain reads
	// below are ordered after them.
	if counter != producers*perProducer {
		t.Errorf("%d of %d tasks had run when Close returned", counter, producers*perProducer)
	}
	if n := overlap.Load(); n != 0 {
		t.Errorf("%d tasks started while another was running", n)
	}
	if n := disorder.Load(); n != 0 {
		t.Errorf("%d tasks overtook an earlier task of their own producer", n)
	}
	before := counter
	e.Do(func() { counter++ })
	e.Submit(func() { counter++ })
	select {
	case <-ran:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return after Close")
	}
	if counter != before || afterClose.Load() != 0 {
		t.Errorf("tasks ran after Close returned (%d dropped ones, %d late ones)", counter-before, afterClose.Load())
	}
}

// TestExecutorCloseWaitsForInlineTask: a task running on a Do caller's
// goroutine is still a task of the executor. Neither Close nor Run may
// return while it runs — whoever called them is about to take apart what
// the task is using.
func TestExecutorCloseWaitsForInlineTask(t *testing.T) {
	e := NewExecutor()
	ran := make(chan struct{})
	go func() {
		defer close(ran)
		e.Run()
	}()
	entered, gate := make(chan struct{}), make(chan struct{})
	go e.Do(func() {
		close(entered)
		<-gate
	})
	<-entered
	closed := make(chan struct{})
	go func() {
		defer close(closed)
		e.Close()
	}()
	select {
	case <-closed:
		t.Fatal("Close returned while a task was running inline")
	case <-ran:
		t.Fatal("Run returned while a task was running inline")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	for _, ch := range []chan struct{}{closed, ran} {
		select {
		case <-ch:
		case <-time.After(5 * time.Second):
			t.Fatal("Close or Run did not return once the inline task had")
		}
	}
}

// TestExecutorCloseWithoutARunLoop: Close drains what is queued itself when
// no loop does, and an executor nobody ever used — the private one of a
// transport that was given a shared executor — closes at once.
func TestExecutorCloseWithoutARunLoop(t *testing.T) {
	NewExecutor().Close()

	e := NewExecutor()
	var order []int
	for i := 0; i < 3; i++ {
		e.Submit(func() { order = append(order, i) })
	}
	e.Close()
	if len(order) != 3 || order[0] != 0 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("Close ran %v of the queued tasks 0 1 2", order)
	}
}

// TestExecutorReentrantTasksEnqueue: a task that calls Do or Submit is
// inside a task, so both enqueue — Do does not run its argument on the
// spot, and neither waits for the task that called it.
func TestExecutorReentrantTasksEnqueue(t *testing.T) {
	e := NewExecutor()
	go e.Run()
	defer e.Close()
	var order []string
	done := make(chan struct{})
	e.Do(func() {
		e.Do(func() { order = append(order, "do") })
		e.Submit(func() {
			order = append(order, "submit")
			close(done)
		})
		order = append(order, "outer")
	})
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("a task that queued tasks deadlocked the executor")
	}
	e.Do(func() {
		if len(order) != 3 || order[0] != "outer" || order[1] != "do" || order[2] != "submit" {
			t.Errorf("ran in order %v, want outer do submit", order)
		}
	})
}

// TestExecutorRingKeepsOrderAcrossGrowth queues more than the ring starts
// with, from an offset so that the live span wraps, and checks the order
// and that a drained ring is back at its start size.
func TestExecutorRingKeepsOrderAcrossGrowth(t *testing.T) {
	e := NewExecutor()
	var got []int
	next := 0
	queue := func(n int) {
		for i := 0; i < n; i++ {
			v := next
			next++
			e.Submit(func() { got = append(got, v) })
		}
	}
	queue(ringStart / 2)
	e.mu.Lock()
	for e.n > 0 { // moves head off slot 0
		e.turn()
	}
	e.mu.Unlock()
	queue(5 * ringStart)
	if len(e.ring) != 8*ringStart {
		t.Errorf("ring holds %d slots for %d tasks, want %d", len(e.ring), e.n, 8*ringStart)
	}
	e.Close()
	for i, v := range got {
		if v != i {
			t.Fatalf("task %d ran in position %d", v, i)
		}
	}
	if len(got) != next {
		t.Fatalf("%d of %d tasks ran", len(got), next)
	}
	if len(e.ring) != ringStart {
		t.Errorf("a drained ring holds %d slots, want %d", len(e.ring), ringStart)
	}
}
