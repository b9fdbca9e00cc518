package stats

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Value = %d, want 5", c.Value())
	}
}

func TestGaugeHighWater(t *testing.T) {
	var g Gauge
	g.Set(10)
	g.Add(-3)
	if g.Value() != 7 || g.Max() != 10 {
		t.Fatalf("value=%d max=%d", g.Value(), g.Max())
	}
	g.Set(20)
	if g.Max() != 20 {
		t.Fatalf("max=%d want 20", g.Max())
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram
	if h.Mean() != 0 || h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Observe(time.Millisecond)
	h.Observe(3 * time.Millisecond)
	h.Observe(2 * time.Millisecond)
	if h.Count() != 3 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Mean() != 2*time.Millisecond {
		t.Fatalf("mean = %v", h.Mean())
	}
	if h.Min() != time.Millisecond || h.Max() != 3*time.Millisecond {
		t.Fatalf("min=%v max=%v", h.Min(), h.Max())
	}
	h.Observe(-time.Second)
	if h.Min() != 0 {
		t.Fatal("negative observation must clamp to 0")
	}
}

func TestHistogramQuantileBounds(t *testing.T) {
	// Property: quantile upper bound is ≥ the exact quantile and ≤ 2x of
	// it (bucket resolution), for uniform random data.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		var h Histogram
		var all []time.Duration
		for i := 0; i < 500; i++ {
			d := time.Duration(rng.Int63n(int64(time.Second))) + 1
			h.Observe(d)
			all = append(all, d)
		}
		// exact p50 via sort-free selection: just check max/min sanity and
		// p100 against max.
		if h.Quantile(1) < h.Max() {
			return false
		}
		return h.Quantile(0.5) >= h.Min()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestRegistryCreateOnUse(t *testing.T) {
	r := NewRegistry()
	r.Counter("a.b").Inc()
	r.Counter("a.b").Inc()
	r.Counter("a.c").Add(3)
	if r.CounterValue("a.b") != 2 || r.CounterValue("a.c") != 3 {
		t.Fatal("counter values wrong")
	}
	if r.CounterValue("missing") != 0 {
		t.Fatal("missing counter must read 0")
	}
	if _, ok := r.counters["missing"]; ok {
		t.Fatal("reading a missing counter must not create it")
	}
	if r.SumPrefix("a.") != 5 {
		t.Fatalf("SumPrefix = %d", r.SumPrefix("a."))
	}
}

func TestRegistrySnapshotDiff(t *testing.T) {
	r := NewRegistry()
	r.Counter("x").Add(10)
	snap := r.Snapshot()
	r.Counter("x").Add(5)
	r.Counter("y").Inc()
	d := r.DiffFrom(snap)
	if d["x"] != 5 || d["y"] != 1 {
		t.Fatalf("diff = %v", d)
	}
	if len(d) != 2 {
		t.Fatalf("diff has unexpected entries: %v", d)
	}
}

func TestRegistryNamesSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("z")
	r.Counter("a")
	r.Counter("m")
	names := r.Names()
	if names[0] != "a" || names[1] != "m" || names[2] != "z" {
		t.Fatalf("names = %v", names)
	}
}

func TestRegistryDump(t *testing.T) {
	r := NewRegistry()
	r.Counter("msgs").Add(7)
	r.Gauge("state").Set(42)
	r.Histogram("lat").Observe(time.Millisecond)
	out := r.Dump()
	for _, want := range []string{"msgs", "7", "state", "42", "lat", "n=1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("dump missing %q:\n%s", want, out)
		}
	}
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("T1 overhead", "policy", "msgs/op", "server bytes")
	tb.AddRow("storage-tank", "0", "0")
	tb.AddRow("v-leases", "1.25", "4096")
	tb.AddRow("short")
	tb.AddNote("τ=%v", time.Second)
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "T1 overhead" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "policy") {
		t.Fatalf("header line = %q", lines[1])
	}
	if !strings.Contains(out, "storage-tank") || !strings.Contains(out, "note: τ=1s") {
		t.Fatalf("table output:\n%s", out)
	}
	// Columns must align: every data line has the same prefix width up to
	// the second column.
	idx := strings.Index(lines[1], "msgs/op")
	for _, l := range lines[3:5] {
		if len(l) < idx {
			t.Fatalf("row too short for aligned columns: %q", l)
		}
	}
}

func TestFmtHelpers(t *testing.T) {
	if FmtF(1.50) != "1.5" || FmtF(2.00) != "2" || FmtF(0.25) != "0.25" {
		t.Fatalf("FmtF: %q %q %q", FmtF(1.50), FmtF(2.00), FmtF(0.25))
	}
	if FmtRate(3.0) != "3/s" {
		t.Fatalf("FmtRate = %q", FmtRate(3.0))
	}
	if FmtBytes(512) != "512B" || FmtBytes(2048) != "2.0KiB" || FmtBytes(3<<20) != "3.0MiB" {
		t.Fatalf("FmtBytes: %q %q %q", FmtBytes(512), FmtBytes(2048), FmtBytes(3<<20))
	}
	if FmtN(42) != "42" {
		t.Fatalf("FmtN = %q", FmtN(42))
	}
}

func TestQuantileEdgeCases(t *testing.T) {
	var h Histogram
	h.Observe(time.Second)
	if q := h.Quantile(-1); q == 0 {
		t.Fatal("q<0 should clamp, not return 0 for nonempty histogram")
	}
	if h.Quantile(2) < time.Second {
		t.Fatal("q>1 must cover max")
	}
}

func TestConcurrentInstruments(t *testing.T) {
	// Shared registries are real in live deployments (one process hosting
	// several node executors, plus monitoring readers); every instrument
	// must tolerate concurrent writers and readers. Run with -race.
	reg := NewRegistry()
	const workers = 8
	const perWorker = 1000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := reg.Counter("shared.count")
			g := reg.Gauge("shared.level")
			h := reg.Histogram("shared.lat")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(int64(w*perWorker + i))
				g.Add(1)
				h.Observe(time.Duration(i) * time.Microsecond)
				_ = reg.CounterValue("shared.count")
			}
		}()
	}
	// A concurrent reader exercising snapshot/diff/dump while writes run.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 100; i++ {
			snap := reg.Snapshot()
			reg.DiffFrom(snap)
			_ = reg.Dump()
			_ = reg.SumPrefix("shared.")
		}
	}()
	wg.Wait()
	<-done
	if got := reg.CounterValue("shared.count"); got != workers*perWorker {
		t.Fatalf("counter lost increments: got %d, want %d", got, workers*perWorker)
	}
	if max := reg.Gauge("shared.level").Max(); max < workers*perWorker-1 {
		t.Fatalf("gauge high-water mark lost: %d", max)
	}
	if n := reg.Histogram("shared.lat").Count(); n != workers*perWorker {
		t.Fatalf("histogram lost observations: %d", n)
	}
}
