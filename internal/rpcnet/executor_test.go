package rpcnet

import (
	"runtime"
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
