package main

import (
	"fmt"
	"math"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestPercentileNearestRank(t *testing.T) {
	var ds []time.Duration
	for i := 1; i <= 200; i++ {
		ds = append(ds, time.Duration(i))
	}
	for _, c := range []struct {
		p    float64
		want time.Duration
	}{{50, 100}, {99, 198}, {100, 200}, {0.1, 1}} {
		if got := percentile(ds, c.p); got != c.want {
			t.Errorf("p%g of 1..200 = %d, want %d", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %d, want 0", got)
	}
	if got := percentile([]time.Duration{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %d, want it", got)
	}
}

// The expected cut points are what Python prints for
// statistics.quantiles(values, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		vs   []float64
		want [3]float64
	}{
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{3}, [3]float64{3, 3, 3}},
	} {
		q1, q2, q3 := quartiles(c.vs)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.vs, got, c.want)
		}
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); got != 1 {
		t.Errorf("spread of 1..10 = %g, want (8.25-2.75)/5.5", got)
	}
}

func TestWindowMedian(t *testing.T) {
	ws := []windowStats{{P50US: 30}, {P50US: 10}, {P50US: 500}, {P50US: 20}, {P50US: 25}}
	s := summarize(ws, func(w windowStats) float64 { return w.P50US })
	if s.Median != 25 || s.Q1 != 15 || s.Q3 != 265 {
		t.Errorf("summary = %+v, want median 25 (one slow window must not move it), q1 15, q3 265", s)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("median of four = %g, want 2.5", got)
	}
}

// A window measured while the machine ran at 80 % of the reference speed
// must report what the reference machine would have measured, and
// rss_peak_mb must come from the window the chosen operation completed in,
// however many operations the run went on to do.
func TestReferenceScaleAndRSSCheckpoint(t *testing.T) {
	w := windowStats{OpsPerS: 800, P50US: 125, Yard: 0.8 * yardRef, YardP50US: 1.25 * yardRefP50US}
	if got := perWindow["ops_per_s"](w); math.Abs(got-1000) > 1e-9 {
		t.Errorf("ops_per_s at 0.8 of the reference speed = %g, want 1000", got)
	}
	if got := perWindow["p50_us"](w); math.Abs(got-100) > 1e-9 {
		t.Errorf("p50_us at 0.8 of the reference speed = %g, want 100", got)
	}
	ws := []windowStats{{OpsSoFar: 90, RSSPeakMB: 10}, {OpsSoFar: 210, RSSPeakMB: 20}, {OpsSoFar: 330, RSSPeakMB: 30}}
	for _, c := range []struct {
		ops  int
		want float64
	}{{50, 10}, {90, 10}, {150, 15}, {210, 20}, {270, 25}, {1000, 30}} {
		if got := rssAt(ws, c.ops); got != c.want {
			t.Errorf("rssAt(%d) = %g, want %g", c.ops, got, c.want)
		}
	}
}

func TestUncoveredOverlappingChildren(t *testing.T) {
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"none", nil, 100},
		{"disjoint", []interval{{10, 20}, {50, 70}}, 70},
		{"overlapping count once", []interval{{10, 40}, {30, 60}}, 50},
		{"nested", []interval{{10, 90}, {20, 30}, {85, 95}}, 15},
		{"clipped to parent", []interval{{-50, 10}, {90, 500}}, 80},
		{"outside", []interval{{-20, -10}, {100, 130}}, 100},
		{"covering", []interval{{-1, 101}}, 0},
	} {
		if got := uncovered(0, 100, c.children); got != c.want {
			t.Errorf("%s: uncovered = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestSeedFixesOpSequence(t *testing.T) {
	for _, w := range workloads {
		a, b := opSeqHash(w, 42, hashedOps), opSeqHash(w, 42, hashedOps)
		if a != b {
			t.Errorf("%s: seed 42 hashed to %x and then %x", w.name, a, b)
		}
		if c := opSeqHash(w, 43, hashedOps); c == a {
			t.Errorf("%s: seeds 42 and 43 generate the same ops", w.name)
		}
	}
}

// TestMetaGenStaysValid replays a long generated sequence against a
// plain set: a create must name a missing file, everything else an
// existing one, or the workload would fail ops of its own making.
func TestMetaGenStaysValid(t *testing.T) {
	g := newMetaGen(1, 3)
	exists := make([]bool, 3*metaPerDir)
	for i := range exists {
		exists[i] = true
	}
	for i := 0; i < 20000; i++ {
		switch o := g.next(); o.kind {
		case opCreate:
			if exists[o.a] {
				t.Fatalf("op %d creates existing file %d", i, o.a)
			}
			exists[o.a] = true
		case opUnlink:
			if !exists[o.a] {
				t.Fatalf("op %d unlinks missing file %d", i, o.a)
			}
			exists[o.a] = false
		case opLookup, opStat:
			if !exists[o.a] {
				t.Fatalf("op %d reads missing file %d", i, o.a)
			}
		}
	}
}

// script makes exactly 200 client calls touching every path the
// workloads use: namespace ops, allocation, write-back, flush, a lock
// handoff in each direction and SAN reads. Reads never run sequentially,
// so read-ahead — whose hit counts depend on timing — stays out of it.
func script(in *installation) error {
	a, b := in.clients[0], in.clients[1]
	calls := 0
	do := func(err error) error {
		calls++
		return err
	}
	if _, err := a.Create("/t", true); do(err) != nil {
		return err
	}
	for i := 0; i < 40; i++ {
		p := fmt.Sprintf("/t/f%d", i)
		if _, err := a.Create(p, false); do(err) != nil {
			return err
		}
		if _, err := b.Lookup(p); do(err) != nil {
			return err
		}
	}
	for i := 0; i < 10; i++ {
		if err := a.Unlink(fmt.Sprintf("/t/f%d", i)); do(err) != nil {
			return err
		}
	}
	ha, _, err := a.Open("/t/data", true, true)
	if do(err) != nil {
		return err
	}
	hb, _, err := b.Open("/t/data", true, false)
	if do(err) != nil {
		return err
	}
	buf := newBlock()
	for i := 0; i < 40; i++ {
		setStamp(buf, stamp{idx: uint64(i)})
		if err := a.WriteAt(ha, uint64(i), buf); do(err) != nil {
			return err
		}
	}
	if err := a.SyncAll(); do(err) != nil {
		return err
	}
	for i := 0; i < 34; i++ {
		idx := uint64(i*7) % 40
		data, err := b.ReadAt(hb, idx)
		if do(err) != nil {
			return err
		}
		if err := checkStamp(data, stamp{idx: idx}); err != nil {
			return err
		}
	}
	for i := 0; i < 30; i++ {
		w, h := a, ha
		if i%2 == 1 {
			w, h = b, hb
		}
		setStamp(buf, stamp{idx: uint64(i), seq: 1})
		if err := w.WriteAt(h, uint64(i), buf); do(err) != nil {
			return err
		}
	}
	if err := b.SyncAll(); do(err) != nil {
		return err
	}
	if err := a.Close(ha); do(err) != nil {
		return err
	}
	if calls != 200 {
		return fmt.Errorf("script made %d calls, want 200", calls)
	}
	return nil
}

// settled waits until every request a client sent has been answered:
// size updates are sent without waiting for the reply.
func settled(reg *stats.Registry) bool {
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		s := reg.Snapshot()
		if s["client.n10.chan.sent"] == s["client.n10.chan.acks"] &&
			s["client.n11.chan.sent"] == s["client.n11.chan.acks"] {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return false
}

// The traced topology is a second way of wiring the same nodes. If it
// drifts from rpcnet's own — a missed option, a different registry — its
// per-layer figures describe some other system.
func TestTracedTopologyCountsMatch(t *testing.T) {
	rec := newRecorder(1)
	run := func(boot func(dir string) (*installation, error)) stats.Snapshot {
		t.Helper()
		in, err := boot(t.TempDir())
		if err != nil {
			t.Fatal(err)
		}
		defer in.close()
		defer rec.enabled.Store(false) // before close, as runTraced does
		if err := script(in); err != nil {
			t.Fatal(err)
		}
		if !settled(in.reg) {
			t.Fatal("requests still unanswered after 5s")
		}
		s := in.reg.Snapshot()
		// The one count that depends on timing: an ACK renews the lease
		// only if its request was sent after the one that renewed it last,
		// and the script's unawaited size updates race the call after them.
		for name := range s {
			if strings.HasSuffix(name, ".lease.renewals") {
				delete(s, name)
			}
		}
		return s
	}
	shipped := run(func(dir string) (*installation, error) { return bootShipped(bootConfig{dir: dir}) })
	rec.enabled.Store(true)
	traced := run(func(dir string) (*installation, error) { return bootTraced(bootConfig{dir: dir}, rec) })
	if !reflect.DeepEqual(shipped, traced) {
		var names []string
		for n := range shipped {
			names = append(names, n)
		}
		for n := range traced {
			if _, ok := shipped[n]; !ok {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if shipped[n] != traced[n] {
				t.Errorf("%s: shipped %d, traced %d", n, shipped[n], traced[n])
			}
		}
	}
	tr := rec.analyze(true)
	for _, l := range []layer{lSubmitHop, lWakeHop, lClientStart, lClientDeliver, lServerHandle,
		lDiskHandle, lCtrlReq, lCtrlRep, lSANReq, lSANRep, lMediaRead, lMediaWriteV} {
		if tr.layers[l].count == 0 {
			t.Errorf("the script left no %s span", layerNames[l])
		}
	}
	if sent, got := tr.layers[lCtrlReq].count, int(shipped["server.msgs_in"]); sent != got {
		t.Errorf("joined %d client→server spans, the server counted %d messages in", sent, got)
	}
}

// TestSmokeEveryWorkload runs each workload the way an end-to-end run
// does — media without fsync, a yardstick reading between windows — for
// two 200 ms windows, the durability check included. It runs under -short
// too: it is the only test that executes the workloads' own code.
func TestSmokeEveryWorkload(t *testing.T) {
	yard, err := newYardstick()
	if err != nil {
		t.Fatal(err)
	}
	defer yard.close()
	for _, w := range workloads {
		w := w
		t.Run(w.name, func(t *testing.T) {
			in, exs, err := setUp(w, 5, bootConfig{dir: t.TempDir(), noSync: true}, bootShipped)
			if err != nil {
				t.Fatal(err)
			}
			ws := runWindows(w.gens(5), exs, 100*time.Millisecond, 200*time.Millisecond, 2, nil,
				func() reading { return yard.read(10 * time.Millisecond) })
			rep := newReport(w, 5, 0, false)
			if err := finish(rep, in, exs, ws); err != nil {
				t.Fatal(err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Samples == 0 {
				t.Errorf("correct=%v failed=%d of %d, %d samples", rep.Correct, rep.Failed, rep.Attempted, rep.Samples)
			}
			for i, s := range ws {
				if s.Ops == 0 || s.P50US <= 0 || s.P99US < s.P50US || s.OpsPerS <= 0 || s.Yard <= 0 || s.YardP50US <= 0 || s.RSSPeakMB <= 0 {
					t.Errorf("window %d: %+v", i, s)
				}
			}
			if ws[0].OpsSoFar < ws[0].Ops || ws[1].OpsSoFar != ws[0].OpsSoFar+ws[1].Ops+ws[1].Failed {
				t.Errorf("ops so far %d then %d over windows of %d and %d ops: the drivers must stand still between windows",
					ws[0].OpsSoFar, ws[1].OpsSoFar, ws[0].Ops, ws[1].Ops)
			}
		})
	}
}

// TestTracedWindow runs the one workload whose operations span both
// clients on the traced topology and checks that the spans account for
// the operations and that every span-derived metric is produced.
func TestTracedWindow(t *testing.T) {
	w, _ := findWorkload("lock_handoff")
	rec := newRecorder(1)
	in, exs, err := setUp(w, 5, bootConfig{dir: t.TempDir()}, func(cfg bootConfig) (*installation, error) {
		return bootTraced(cfg, rec)
	})
	if err != nil {
		t.Fatal(err)
	}
	var c counts
	got := runWindows(w.gens(5), exs, 100*time.Millisecond, 300*time.Millisecond, 1, func(i int) {
		if i == 0 {
			c.before(in)
		} else {
			c.after(in)
		}
		rec.enabled.Store(i == 0)
	}, nil)[0]
	rep := newReport(w, 5, 0, true)
	if err := finish(rep, in, exs, []windowStats{got}); err != nil {
		t.Fatal(err)
	}
	if !rep.Correct {
		t.Fatalf("%d of %d failed", rep.Failed, rep.Attempted)
	}
	tr := rec.analyze(w.sharedOps)
	vals := layerMetrics(w, tr, c, got, got)
	if cov := vals["trace.coverage_ratio"]; cov < 0.75 || cov > 1 {
		t.Errorf("coverage %.3f, want within [0.75, 1]", cov)
	}
	if d := vals["server.demands_per_op"]; d < 1.9 || d > 2.1 {
		t.Errorf("%.2f demands per handoff, want 2: one to take the lock, one to take it back", d)
	}
	if f := vals["blockstore.fsyncs_per_op"]; f < 1.9 {
		t.Errorf("%.2f fsyncs per handoff, want at least data + trailer", f)
	}
	measured := 0
	for _, m := range perLayer {
		if _, ok := vals[m.name]; ok {
			measured++
		}
	}
	if probes := 20; measured != len(perLayer)-probes {
		t.Errorf("%d of %d per-layer metrics come from the window, want all but the %d probes",
			measured, len(perLayer), probes)
	}
}

func TestVerdict(t *testing.T) {
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		name   string
		a, b   []float64
		better direction
		want   string
	}{
		{"same", steady, steady, lower, "ok"},
		{"slower latency", steady, scale(steady, 1.2), lower, "BREACH"},
		{"faster latency", steady, scale(steady, 0.8), lower, "ok"},
		{"lower throughput", steady, scale(steady, 0.8), higher, "BREACH"},
		{"higher throughput", steady, scale(steady, 1.2), higher, "ok"},
		{"noisy", []float64{60, 140, 100, 80, 120, 70, 130, 90, 110, 100}, steady, lower, "unresolved"},
		{"one run each", steady[:1], steady[:1], lower, "unresolved"},
	} {
		if _, got := verdict(c.a, c.b, c.better, 0.10); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

// failFirst fails its first op and takes 1 ms over every other.
type failFirst struct{ n int }

func (f *failFirst) next() op { return op{} }

func (f *failFirst) exec(op) (time.Duration, error) {
	f.n++
	if f.n == 1 {
		return 0, fmt.Errorf("first op fails")
	}
	time.Sleep(time.Millisecond)
	return time.Millisecond, nil
}

func (f *failFirst) acked() []durable { return nil }

// An op that fails while the run is still warming up must not vanish.
func TestWarmupFailureCounts(t *testing.T) {
	f := &failFirst{}
	ws := runWindows([]opGen{f}, []executor{f}, 20*time.Millisecond, 20*time.Millisecond, 2, nil, nil)
	if ws[0].Failed != 1 || ws[1].Failed != 0 {
		t.Errorf("failed per window = %d, %d; want the warm-up failure in window 0", ws[0].Failed, ws[1].Failed)
	}
	if got := ws[0].Ops + ws[1].Ops; got == 0 || got >= f.n-1 {
		t.Errorf("%d ops timed of %d run: the warm-up's latencies must stay out of the windows", got, f.n)
	}
}

func TestFailRatioOverRuns(t *testing.T) {
	s := set{Runs: []report{
		{Workload: "scan_cold", Attempted: 900, Failed: 0},
		{Workload: "scan_cold", Attempted: 100, Failed: 5},
		{Workload: "scan_cold", Attempted: 100, Failed: 50, Trace: true},
		{Workload: "meta_storm", Attempted: 100, Failed: 100},
	}}
	if r, n := s.failRatio("scan_cold"); r != 0.005 || n != 2 {
		t.Errorf("fail ratio %g over %d runs, want 5/1000 over the 2 untraced runs", r, n)
	}
}

func scale(vs []float64, k float64) []float64 {
	out := make([]float64, len(vs))
	for i, v := range vs {
		out[i] = v * k
	}
	return out
}

// BENCHMARK.json is what the outside world runs the benchmark by; the
// lists in this package are what it prints. They must name the same
// things.
func TestBenchmarkFileMatchesCode(t *testing.T) {
	var bench struct {
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []struct {
			Name, Unit string
			Better     direction
			Bound      float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
			Better     direction
		} `json:"per_layer"`
	}
	if err := readJSON("../../BENCHMARK.json", &bench); err != nil {
		t.Fatal(err)
	}
	if len(bench.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in code", len(bench.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b := bench.Workloads[i]; b.Name != w.name || b.Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), code has %q (%q)", i, b.Name, b.Why, w.name, w.why)
		}
	}
	if len(bench.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics in BENCHMARK.json, %d in code", len(bench.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		b := bench.EndToEnd[i]
		if (metricSpec{b.Name, b.Unit, b.Better}) != m {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, code has %+v", i, b, m)
		}
		if b.Bound <= 0 || b.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", b.Name, b.Bound)
		}
	}
	if len(bench.PerLayer) != len(perLayer) {
		t.Fatalf("%d per-layer metrics in BENCHMARK.json, %d in code", len(bench.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if b := bench.PerLayer[i]; (metricSpec{b.Name, b.Unit, b.Better}) != m {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, code has %+v", i, b, m)
		}
	}
	if time.Duration(bench.RunSeconds)*time.Second%(windowWork+yardRead) != 0 {
		t.Errorf("run_seconds %d is not a whole number of windows of %v", bench.RunSeconds, windowWork+yardRead)
	}
}
