package main

import (
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// windowStats is what one measurement window saw.
type windowStats struct {
	Seconds      float64 `json:"seconds"`
	Ops          int     `json:"ops"`
	Failed       int     `json:"failed"`
	OpsPerS      float64 `json:"ops_per_s"`
	P50US        float64 `json:"p50_us"`
	P99US        float64 `json:"p99_us"`
	CPUUSPerOp   float64 `json:"cpu_us_per_op"`
	AllocKBPerOp float64 `json:"alloc_kb_per_op"`
	// Yard and YardP50US are the yardstick's reading around this window:
	// round trips per second and the median round trip; 0 when none was
	// taken.
	Yard      float64 `json:"yard,omitempty"`
	YardP50US float64 `json:"yard_p50_us,omitempty"`
	// OpsSoFar counts every operation completed since the drivers started,
	// the warm-up's too, and RSSPeakMB is the process's peak resident set,
	// both at the end of this window.
	OpsSoFar  int     `json:"ops_so_far"`
	RSSPeakMB float64 `json:"rss_peak_mb"`
}

// boundary is the process-wide state sampled where two windows meet.
type boundary struct {
	at    time.Time
	cpu   time.Duration
	alloc uint64
	// rssPeakMB is the process's high-water resident set; Linux reports
	// ru_maxrss in KiB.
	rssPeakMB float64
}

func sampleBoundary() boundary {
	var (
		ms runtime.MemStats
		ru syscall.Rusage
	)
	runtime.ReadMemStats(&ms)
	b := boundary{at: time.Now(), alloc: ms.TotalAlloc}
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		b.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		b.rssPeakMB = float64(ru.Maxrss) / 1024
	}
	return b
}

// gate holds the drivers back between windows. While it is shut every
// driver parks as soon as its operation in flight is done, so a window
// owns exactly the operations that started and ended inside it, and what
// runs between two windows — the boundary samples, the yardstick — has the
// machine to itself.
type gate struct {
	mu     sync.Mutex
	cond   *sync.Cond
	open   atomic.Bool
	done   bool
	parked int
}

func newGate() *gate {
	g := &gate{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// pass returns at once while the gate is open, blocks while it is shut,
// and reports false when the run is over.
func (g *gate) pass() bool {
	if g.open.Load() {
		return true
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	g.parked++
	g.cond.Broadcast()
	for !g.open.Load() && !g.done {
		g.cond.Wait()
	}
	g.parked--
	return !g.done
}

// lift opens the gate and lets the parked drivers go.
func (g *gate) lift() {
	g.mu.Lock()
	g.open.Store(true)
	g.cond.Broadcast()
	g.mu.Unlock()
}

// shut closes the gate and waits until n drivers are parked behind it.
func (g *gate) shut(n int) {
	g.mu.Lock()
	g.open.Store(false)
	for g.parked < n {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// finish ends the run: parked drivers leave pass with false.
func (g *gate) finish() {
	g.mu.Lock()
	g.done = true
	g.cond.Broadcast()
	g.mu.Unlock()
}

// runWindows drives the workload closed loop — every driver sends its
// next op only when the last one has completed — through a warm-up and
// then n windows of the given length, and returns each window's figures.
// The drivers pause between windows. An op that fails during the warm-up
// is counted as failed in window 0. between, if set, runs on the measuring
// goroutine before window w with the drivers parked, and once more with
// w == n after the last. yard, if set, is read between every two windows
// and at both ends; a window's Yard is the mean of the readings on either
// side of it.
func runWindows(gens []opGen, exs []executor, warmup, window time.Duration, n int,
	between func(w int), yard func() reading) []windowStats {
	var (
		g   = newGate()
		wg  sync.WaitGroup
		cur = 0 // the window in progress; drivers read it only while the gate is open
	)
	lats := make([][][]time.Duration, len(exs))
	failed := make([][]int, len(exs))
	done := make([]int, len(exs)) // ops completed per driver, warm-up included
	var logged atomic.Int32
	warm := true
	for d := range exs {
		lats[d] = make([][]time.Duration, n)
		failed[d] = make([]int, n)
		wg.Add(1)
		go func(d int) {
			defer wg.Done()
			for g.pass() {
				lat, err := exs[d].exec(gens[d].next())
				if err != nil && logged.Add(1) <= 5 {
					fmt.Fprintf(os.Stderr, "tankbench: driver %d: op failed: %v\n", d, err)
				}
				done[d]++
				switch {
				case err != nil:
					failed[d][cur]++ // a failure counts even while warming up
				case !warm:
					lats[d][cur] = append(lats[d][cur], lat)
				}
			}
		}(d)
	}
	g.lift()
	time.Sleep(warmup)
	g.shut(len(exs))
	warm = false

	type edge struct {
		before, after boundary
		opsSoFar      int
	}
	edges := make([]edge, n)
	yards := make([]reading, n+1)
	for w := 0; w <= n; w++ {
		// between brackets the windows as tightly as it can: it runs after
		// the yardstick before a window and before it after the last.
		if w == n && between != nil {
			between(w)
		}
		if yard != nil {
			yards[w] = yard()
		}
		if w == n {
			break
		}
		if between != nil {
			between(w)
		}
		cur = w
		edges[w].before = sampleBoundary()
		g.lift()
		time.Sleep(window)
		g.shut(len(exs))
		edges[w].after = sampleBoundary()
		for _, n := range done {
			edges[w].opsSoFar += n
		}
	}
	g.finish()
	wg.Wait()

	out := make([]windowStats, n)
	for w := range out {
		var all []time.Duration
		ws := &out[w]
		for d := range exs {
			all = append(all, lats[d][w]...)
			ws.Failed += failed[d][w]
		}
		sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
		b, a := edges[w].before, edges[w].after
		ws.Ops = len(all)
		ws.Seconds = a.at.Sub(b.at).Seconds()
		ws.OpsPerS = float64(ws.Ops) / ws.Seconds
		ws.P50US = float64(percentile(all, 50)) / 1e3
		ws.P99US = float64(percentile(all, 99)) / 1e3
		y := mean(yards[w], yards[w+1])
		ws.Yard, ws.YardP50US = y.perSec, y.p50US
		ws.OpsSoFar = edges[w].opsSoFar
		ws.RSSPeakMB = a.rssPeakMB
		if ws.Ops > 0 {
			ws.CPUUSPerOp = float64(a.cpu-b.cpu) / 1e3 / float64(ws.Ops)
			ws.AllocKBPerOp = float64(a.alloc-b.alloc) / 1024 / float64(ws.Ops)
		}
	}
	return out
}

// summary is one metric over a run's windows.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
}

func summarize(ws []windowStats, pick func(windowStats) float64) summary {
	vs := make([]float64, len(ws))
	for i, w := range ws {
		vs[i] = pick(w)
	}
	q1, q2, q3 := quartiles(vs)
	return summary{Median: q2, Q1: q1, Q3: q3}
}
