package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func writeBaseline(t *testing.T, results []Result) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "baseline.json")
	buf, err := json.Marshal(Report{Results: results})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func bench(name string, allocs, bytes float64) Result {
	return Result{Name: name, Metrics: map[string]float64{
		"allocs/op": allocs, "B/op": bytes}}
}

func TestCompareBaselineCleanWithinSlack(t *testing.T) {
	base := writeBaseline(t, []Result{bench("BenchmarkF1-8", 1000, 50000)})
	// +4% is inside the 5% slack; improvements are always fine.
	regs, err := compareBaseline(base, []Result{bench("BenchmarkF1-8", 1040, 40000)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
}

func TestCompareBaselineFlagsRegression(t *testing.T) {
	base := writeBaseline(t, []Result{
		bench("BenchmarkF1-8", 1000, 50000),
		bench("BenchmarkF2-8", 10, 100),
	})
	regs, err := compareBaseline(base, []Result{
		bench("BenchmarkF1-8", 1100, 50000), // allocs +10%
		bench("BenchmarkF2-8", 10, 120),     // bytes +20%
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}
}

func TestCompareBaselineIgnoresUnmatched(t *testing.T) {
	base := writeBaseline(t, []Result{bench("BenchmarkRetired-8", 1, 1)})
	regs, err := compareBaseline(base, []Result{bench("BenchmarkNew-8", 1e9, 1e9)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v; unmatched benchmarks must not gate", regs)
	}
}

func ratios(name string, dedup, prefetch float64) Result {
	return Result{Name: name, Metrics: map[string]float64{
		"dedup_bytes_saved_ratio": dedup, "prefetch_hit_ratio": prefetch}}
}

func TestCompareBaselineFloorsCacheRatios(t *testing.T) {
	base := writeBaseline(t, []Result{ratios("BenchmarkSharedHotFile-8", 0.75, 0.9)})
	// Within the floor: -4% dedup, improved prefetch.
	regs, err := compareBaseline(base, []Result{ratios("BenchmarkSharedHotFile-8", 0.72, 0.95)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
	// Below the floor: both ratios eroded >5%.
	regs, err = compareBaseline(base, []Result{ratios("BenchmarkSharedHotFile-8", 0.50, 0.70)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 2 {
		t.Fatalf("regressions = %v, want 2", regs)
	}
}

func TestCompareBaselineGatesSeqScanReads(t *testing.T) {
	mk := func(reads float64) Result {
		return Result{Name: "BenchmarkSeqScanPrefetch-8",
			Metrics: map[string]float64{"san_reads/scan": reads}}
	}
	base := writeBaseline(t, []Result{mk(22)})
	regs, err := compareBaseline(base, []Result{mk(32)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the san_reads/scan ceiling", regs)
	}
}

func shardbench(shards int, mdops float64) Result {
	return Result{Name: "BenchmarkShardScaleZipf/shards=" + fmt.Sprint(shards) + "-8",
		Metrics: map[string]float64{"mdops_per_simsec": mdops}}
}

func TestDeriveShardScale(t *testing.T) {
	d := derive([]Result{
		shardbench(1, 1000), shardbench(2, 1900),
		shardbench(4, 3600), shardbench(8, 6400),
	})
	if d == nil {
		t.Fatal("no derived metrics")
	}
	for key, want := range map[string]float64{
		"shardscale.speedup_2x": 1.9, "shardscale.speedup_4x": 3.6,
		"shardscale.speedup_8x": 6.4, "shardscale.mdops_per_simsec.1": 1000,
	} {
		if got := d[key]; got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
}

func TestCompareEnforcesShardSpeedupFloor(t *testing.T) {
	base := writeBaseline(t, nil)
	// 4 shards only 2.1x one shard: below the 3x absolute floor.
	regs, err := compareBaseline(base, []Result{shardbench(1, 1000), shardbench(4, 2100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the speedup_4x floor", regs)
	}
	// At 3.4x the floor passes.
	regs, err = compareBaseline(base, []Result{shardbench(1, 1000), shardbench(4, 3400)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
}

func failover(ms float64) Result {
	return Result{Name: "BenchmarkReplicaFailover-8",
		Metrics: map[string]float64{"takeover_ms": ms}}
}

func TestDeriveFailoverTakeover(t *testing.T) {
	d := derive([]Result{failover(1100)})
	if d == nil || d["failover.takeover_ms"] != 1100 {
		t.Fatalf("derived = %v, want failover.takeover_ms 1100", d)
	}
}

func TestCompareEnforcesTakeoverCeiling(t *testing.T) {
	// Absolute ceiling: the analytic takeover bound, baseline or not.
	base := writeBaseline(t, nil)
	regs, err := compareBaseline(base, []Result{failover(takeoverMsCeiling + 100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the takeover_ms ceiling", regs)
	}
	regs, err = compareBaseline(base, []Result{failover(1100)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
	// Relative gate: the window may not grow >5% over the stored baseline
	// even while under the absolute ceiling.
	base = writeBaseline(t, []Result{failover(1100)})
	regs, err = compareBaseline(base, []Result{failover(1300)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the takeover_ms +5%% gate", regs)
	}
}

func metaCommit(size string, ns, bytes float64) Result {
	r := bench("BenchmarkMetaCommit/"+size+"-8", 7, bytes)
	r.NsPerOp = ns
	return r
}

func TestCompareEnforcesMetaCommitRatioCeiling(t *testing.T) {
	base := writeBaseline(t, []Result{metaCommit("1k", 1800, 290), metaCommit("100k", 2200, 440)})
	// 1.2x, and the 100k B/op up 18% because one more checkpoint fell
	// into the run: clean.
	regs, err := compareBaseline(base, []Result{metaCommit("1k", 1800, 290), metaCommit("100k", 2200, 520)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none", regs)
	}
	// Snapshot-per-reply again: the cost follows the namespace.
	regs, err = compareBaseline(base, []Result{metaCommit("1k", 1800, 290), metaCommit("100k", 180000, 440)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the metacommit ratio ceiling", regs)
	}
	// The 1k size's B/op is gated like any other.
	regs, err = compareBaseline(base, []Result{metaCommit("1k", 1800, 400), metaCommit("100k", 2200, 440)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want the 1k B/op regression", regs)
	}
}

// TestCompareGatesOnlyAllocsOnFsyncBoundRows: the fsync-bound benchmarks
// have a B/op that is noise — 0 on one run, a hundred on the next — and
// are gated on allocs/op alone; a benchmark that merely starts with one
// of their names is gated on both.
func TestCompareGatesOnlyAllocsOnFsyncBoundRows(t *testing.T) {
	names := []string{"BenchmarkGroupCommit64PerBlock-2", "BenchmarkGroupCommit64Batched-2",
		"BenchmarkFileWrite-2", "BenchmarkFileWriteSync"}
	var was, noisy, worse []Result
	for _, n := range names {
		was = append(was, bench(n, 0, 0))
		noisy = append(noisy, bench(n, 0, 116))
		worse = append(worse, bench(n, 1, 116))
	}
	base := writeBaseline(t, append(was, bench("BenchmarkFileWriteVSync/batch=8-2", 2, 600)))
	regs, err := compareBaseline(base, noisy)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 0 {
		t.Fatalf("regressions = %v, want none: B/op is not gated on these", regs)
	}
	regs, err = compareBaseline(base, worse)
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != len(names) {
		t.Fatalf("regressions = %v, want allocs/op on each of %v", regs, names)
	}
	regs, err = compareBaseline(base, []Result{bench("BenchmarkFileWriteVSync/batch=8-2", 2, 900)})
	if err != nil {
		t.Fatal(err)
	}
	if len(regs) != 1 {
		t.Fatalf("regressions = %v, want FileWriteVSync's B/op", regs)
	}
}

func TestCompareBaselineMissingFile(t *testing.T) {
	if _, err := compareBaseline(filepath.Join(t.TempDir(), "nope.json"), nil); err == nil {
		t.Fatal("missing baseline accepted")
	}
}

func TestCompareGatesCachedLookupMessagesAtZero(t *testing.T) {
	base := writeBaseline(t, nil)
	lookup := func(msgs float64) Result {
		return Result{Name: "BenchmarkMetaLookupCached-8", NsPerOp: 400,
			Metrics: map[string]float64{"ctl_msgs/lookup": msgs}}
	}
	if d := derive([]Result{lookup(0)}); d == nil || d["names.ctl_msgs_per_lookup"] != 0 {
		t.Fatalf("derived = %v, want names.ctl_msgs_per_lookup 0", d)
	}
	regs, err := compareBaseline(base, []Result{lookup(0)})
	if err != nil || len(regs) != 0 {
		t.Fatalf("regressions = %v, %v; want none at 0 messages per lookup", regs, err)
	}
	regs, err = compareBaseline(base, []Result{lookup(0.01)})
	if err != nil || len(regs) != 1 {
		t.Fatalf("regressions = %v, %v; want the gate to refuse any message at all", regs, err)
	}
}

// TestAppendHistoryKeepsEveryRun: each run adds one line, keyed by its
// commit, and leaves the lines before it as they were.
func TestCompareGatesTimersFromZero(t *testing.T) {
	call := func(timers float64) Result {
		return Result{Name: "BenchmarkChannelCall-8", NsPerOp: 300,
			Metrics: map[string]float64{"timers/op": timers, "allocs/op": 1}}
	}
	base := writeBaseline(t, []Result{call(0)})
	regs, err := compareBaseline(base, []Result{call(0)})
	if err != nil || len(regs) != 0 {
		t.Fatalf("regressions = %v, %v; want none at 0 timers per call", regs, err)
	}
	regs, err = compareBaseline(base, []Result{call(0.001)})
	if err != nil || len(regs) != 1 || !strings.Contains(regs[0], "timers/op") {
		t.Fatalf("regressions = %v, %v; want one timers/op regression for any timer over a 0 baseline", regs, err)
	}
}

func TestAppendHistoryKeepsEveryRun(t *testing.T) {
	path := filepath.Join(t.TempDir(), "history.jsonl")
	runs := []historyLine{
		{Commit: "aaaaaaa", Report: Report{Results: []Result{bench("BenchmarkF1-8", 10, 100)}}},
		{Commit: "bbbbbbb", Dirty: true, Report: Report{
			Results: []Result{bench("BenchmarkF1-8", 9, 90)},
			Derived: map[string]float64{"flush64.san_msgs_reduction": 8},
		}},
	}
	for _, run := range runs {
		if err := appendHistory(path, run.Commit, run.Dirty, run.Report); err != nil {
			t.Fatal(err)
		}
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var got []historyLine
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var line historyLine
		if err := json.Unmarshal(sc.Bytes(), &line); err != nil {
			t.Fatalf("line %d: %v", len(got)+1, err)
		}
		got = append(got, line)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, runs) {
		t.Fatalf("history holds %+v, want %+v", got, runs)
	}
}
