// Command benchjson converts `go test -bench` output on stdin into a
// JSON report: one record per benchmark with iteration count, ns/op,
// derived op/s, and every extra metric the -benchmem flags emit (B/op,
// allocs/op, custom ReportMetric units). The Makefile's `bench` target
// uses it to produce BENCH_tier1.json:
//
//	go test -run=NONE -bench=. -benchmem ./... | benchjson -o BENCH_tier1.json
//
// When the stream carries both halves of a batched/per-page benchmark
// pair (the vectored write-back suite in bench_test.go), the report
// gains a "derived" section with the headline reduction ratios —
// SAN messages per flush, fsyncs per flush, and simulated drain time,
// per-page over batched.
//
// Non-benchmark lines (PASS, ok, package headers) pass through to
// stderr so a terminal run still shows the suite's progress.
//
// With -history FILE the run is also appended to FILE as one JSON line,
// keyed by `git rev-parse --short HEAD` (and marked dirty when tracked
// files differ from that commit): the -o report is overwritten each run,
// the history keeps the trajectory. `make bench-gate` keeps
// BENCH_history.jsonl this way.
//
// With -compare BASELINE.json the command also gates deterministic
// regressions: for every benchmark present in both the baseline report
// and the current stream, the lower-is-better metrics (allocs/op, B/op,
// san_reads/scan) may not exceed the baseline by more than 5%, and the
// higher-is-better cache-effectiveness ratios (dedup_bytes_saved_ratio,
// prefetch_hit_ratio) may not drop more than 5% below it. Any
// regression is listed and the exit status is 1, so `make bench-gate`
// (and the CI bench job) fail loudly when a change quietly reintroduces
// per-message allocations or erodes the cache's dedup or read-ahead.
// Benchmarks that exist on only one side are ignored (new benchmarks
// have no baseline; retired ones no current number), and timing metrics
// are never gated — ns/op is hardware-noisy in CI, the gated counts and
// ratios come out of the deterministic simulator. Four absolute gates
// also apply: when the cached-lookup benchmark is present, a lookup
// answered from the name cache must have cost no control message at all
// (names.ctl_msgs_per_lookup, exactly 0); when both sizes of the metadata commit benchmark are
// present, persisting a mutation on a 100k-inode store may cost at most
// twice what it costs on a 1k-inode one (metacommit.ns_100k_over_1k — a
// ratio of two timings from one run, so the machine's speed cancels);
// when the shard scale benchmark is present, the derived
// 4-shard metadata-throughput speedup must be at least 3x the single
// authority (shardscale.speedup_4x), and when the replica failover
// benchmark is present, the derived takeover window
// (failover.takeover_ms) must stay under the analytic takeover bound —
// takeover_ms is also in the relative gate, so the window can only
// shrink release over release.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
)

// Result is one benchmark line, parsed.
type Result struct {
	// Name is the benchmark's full name including any -cpu suffix
	// (e.g. "BenchmarkLeaseRenewal-8").
	Name string `json:"name"`
	// Pkg is the package the benchmark ran in, taken from the preceding
	// "pkg:" header (empty if the stream carried none).
	Pkg string `json:"pkg,omitempty"`
	// Iters is b.N: how many iterations the timing covers.
	Iters int64 `json:"iters"`
	// NsPerOp is the headline latency metric.
	NsPerOp float64 `json:"ns_per_op"`
	// OpsPerSec is 1e9/NsPerOp, the throughput view of the same number.
	OpsPerSec float64 `json:"ops_per_sec"`
	// Metrics holds every further "value unit" pair on the line:
	// "B/op", "allocs/op", and any custom b.ReportMetric units.
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

func main() {
	out := flag.String("o", "", "write the JSON report to FILE (default stdout)")
	compare := flag.String("compare", "",
		"gate against a baseline report: exit 1 if any benchmark's allocs/op or B/op regresses >5%")
	history := flag.String("history", "", "append the report to FILE as one JSON line keyed by the git commit")
	flag.Parse()

	// Before anything is written: the report file may be tracked.
	var commit string
	var dirty bool
	if *history != "" {
		var err error
		if commit, dirty, err = gitRevision(); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
	}

	var results []Result
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if rest, ok := strings.CutPrefix(line, "pkg: "); ok {
			pkg = strings.TrimSpace(rest)
			fmt.Fprintln(os.Stderr, line)
			continue
		}
		if r, ok := parseBenchLine(line, pkg); ok {
			results = append(results, r)
		} else {
			fmt.Fprintln(os.Stderr, line)
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: read: %v\n", err)
		os.Exit(1)
	}

	report := Report{Results: results, Derived: derive(results)}
	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(1)
	}
	buf = append(buf, '\n')
	switch {
	case *out == "" && *compare == "":
		os.Stdout.Write(buf)
	case *out != "":
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(results), *out)
	}
	if *history != "" {
		if err := appendHistory(*history, commit, dirty, report); err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: run of %s appended to %s\n", commit, *history)
	}
	if *compare != "" {
		regressions, err := compareBaseline(*compare, results)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(1)
		}
		for _, r := range regressions {
			fmt.Fprintln(os.Stderr, "benchjson: REGRESSION "+r)
		}
		if len(regressions) > 0 {
			fmt.Fprintf(os.Stderr, "benchjson: %d allocation regression(s) vs %s\n",
				len(regressions), *compare)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "benchjson: allocation gate clean vs %s\n", *compare)
	}
}

// gatedMetrics are the lower-is-better units the -compare gate enforces
// as ceilings: allocation behavior and the simulated SAN cost of a
// sequential scan — deterministic per run, unlike wall-clock timing.
var gatedMetrics = []string{"allocs/op", "B/op", "san_reads/scan", "takeover_ms"}

// flooredMetrics are the higher-is-better units the gate enforces as
// floors: cache-effectiveness ratios the simulator computes exactly. A
// drop below baseline/1.05 means dedup or read-ahead quietly regressed.
var flooredMetrics = []string{"dedup_bytes_saved_ratio", "prefetch_hit_ratio"}

// regressionSlack is how far above the baseline a gated metric may
// drift before the gate fails (benchmarks with tiny absolute counts
// jitter by an alloc or two across runs).
const regressionSlack = 1.05

// compareBaseline diffs the current results against a stored report and
// returns one human-readable line per gated regression.
func compareBaseline(path string, current []Result) ([]string, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	var base Report
	if err := json.Unmarshal(raw, &base); err != nil {
		return nil, fmt.Errorf("baseline %s: %w", path, err)
	}
	baseline := make(map[string]Result, len(base.Results))
	for _, r := range base.Results {
		baseline[r.Name] = r
	}
	var regressions []string
	for _, cur := range current {
		old, ok := baseline[cur.Name]
		if !ok {
			continue
		}
		for _, unit := range gatedMetrics {
			was, okOld := old.Metrics[unit]
			now, okNew := cur.Metrics[unit]
			if !okOld || !okNew || now <= was*regressionSlack {
				continue
			}
			if unit == "B/op" && bytesUngated(cur.Name) {
				continue
			}
			regressions = append(regressions, fmt.Sprintf(
				"%s %s: %.0f -> %.0f (+%.1f%%, gate is +5%%)",
				cur.Name, unit, was, now, (now/was-1)*100))
		}
		for _, unit := range flooredMetrics {
			was, okOld := old.Metrics[unit]
			now, okNew := cur.Metrics[unit]
			if !okOld || !okNew || now >= was/regressionSlack {
				continue
			}
			regressions = append(regressions, fmt.Sprintf(
				"%s %s: %.3f -> %.3f (-%.1f%%, floor is -5%%)",
				cur.Name, unit, was, now, (1-now/was)*100))
		}
	}
	// Absolute floors on derived ratios, independent of the baseline: the
	// shard-scaling claim is "4 authorities ≥ 3× one" on the Zipf
	// metadata workload, and the gate holds the repo to it whenever the
	// scale benchmark is in the stream.
	if d := derive(current); d != nil {
		if r, ok := d["metacommit.ns_100k_over_1k"]; ok && r > metaCommitRatioCeiling {
			regressions = append(regressions, fmt.Sprintf(
				"metacommit.ns_100k_over_1k: %.2f (ceiling is %.1fx: persisting a mutation must not cost more on a larger namespace)",
				r, metaCommitRatioCeiling))
		}
		if speedup, ok := d["shardscale.speedup_4x"]; ok && speedup < shardSpeedup4xFloor {
			regressions = append(regressions, fmt.Sprintf(
				"shardscale.speedup_4x: %.2f (floor is %.1fx over 1 shard)",
				speedup, shardSpeedup4xFloor))
		}
		if m, ok := d["names.ctl_msgs_per_lookup"]; ok && m != 0 {
			regressions = append(regressions, fmt.Sprintf(
				"names.ctl_msgs_per_lookup: %g (a lookup answered from the name cache sends nothing: the gate is exactly 0)", m))
		}
		if w, ok := d["failover.takeover_ms"]; ok && w > takeoverMsCeiling {
			regressions = append(regressions, fmt.Sprintf(
				"failover.takeover_ms: %.0f (ceiling is %.0fms, the analytic takeover bound)",
				w, takeoverMsCeiling))
		}
	}
	return regressions, nil
}

// amortizedBytesBenches are the benchmarks whose B/op is not gated, by
// name without the -GOMAXPROCS suffix; their allocs/op stays gated.
//
// A checkpoint of a 100k-inode store allocates tens of megabytes once per
// ~300k iterations, so its share of MetaCommit/100k's B/op moves by 15%
// with whether the iteration count the framework picked spans two
// checkpoints or three. The other four are fsync-bound: an iteration is
// hundreds of microseconds of waiting, the framework settles on tens to
// thousands of them, and the handful of allocations the runtime makes
// beside the loop (a timer, a histogram's first bucket) divide into a B/op
// that is 0 on one run and 100 on the next — the gate was red on its own
// parent for three PRs. GroupCommit64Batched, at 2 allocs/op, carries the
// same remainder on top of its own 1 410 B: six runs of one build read
// 1 411 to 1 622. FileWriteVSync/batch=32 is fsync-bound the same way
// (ten runs of one build, 2 allocs/op each: 640 to 710 B/op). LeaseRenewal
// re-arms a simulated timer per iteration and the stopped ones stay queued
// until they come due, so the queue grows with the iteration count and
// its doublings divide into B/op differently each run (ten runs, 2
// allocs/op each: 112 to 119 B/op).
var amortizedBytesBenches = []string{
	"BenchmarkMetaCommit/100k",
	"BenchmarkGroupCommit64PerBlock",
	"BenchmarkGroupCommit64Batched",
	"BenchmarkFileWrite",
	"BenchmarkFileWriteSync",
	"BenchmarkFileWriteVSync/batch=32",
	"BenchmarkLeaseRenewal",
}

func bytesUngated(name string) bool {
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i]
	}
	return slices.Contains(amortizedBytesBenches, name)
}

// metaCommitRatioCeiling is ROADMAP item 3's gate: per-reply persistence
// cost independent of namespace size, measured at 1k and 100k inodes.
const metaCommitRatioCeiling = 2.0

// shardSpeedup4xFloor is the minimum metadata-throughput speedup a
// 4-shard installation must show over a single authority on the Zipf
// scale benchmark.
const shardSpeedup4xFloor = 3.0

// takeoverMsCeiling is the absolute bound on the replicated authority's
// simulated takeover window: the benchmark's 1s authority lease term and
// 100ms retry interval give the analytic bound (1+ε)·term +
// (1+ε)·8·retry ≈ 1.9s at ε=0.05, and the gate holds the measured
// window under it. The relative gate (takeover_ms in gatedMetrics)
// additionally keeps it within 5% of the stored baseline, so the window
// can only shrink.
const takeoverMsCeiling = 1900.0

// Report is the full JSON document: the parsed benchmark records plus
// any cross-benchmark ratios derivable from them.
type Report struct {
	Results []Result           `json:"results"`
	Derived map[string]float64 `json:"derived,omitempty"`
}

// derive computes the vectored write-back reduction ratios when both
// halves of a pair are present: how much cheaper a 64-dirty-page flush
// is batched than per-page, in SAN messages, fsyncs, and drain time.
func derive(results []Result) map[string]float64 {
	metric := func(bench, unit string) (float64, bool) {
		for _, r := range results {
			if strings.HasPrefix(r.Name, bench) {
				if unit == "ns/op" { // parsed into its own field, not Metrics
					return r.NsPerOp, r.NsPerOp > 0
				}
				v, ok := r.Metrics[unit]
				return v, ok
			}
		}
		return 0, false
	}
	out := map[string]float64{}
	ratio := func(key, perPage, batched, unit string) {
		p, okP := metric(perPage, unit)
		b, okB := metric(batched, unit)
		if okP && okB && b > 0 {
			out[key] = p / b
			out[key+".batched"] = b
			out[key+".per_page"] = p
		}
	}
	ratio("flush64.san_msgs_reduction",
		"BenchmarkFlushDrain64PerPage", "BenchmarkFlushDrain64Batched", "san_msgs/flush")
	ratio("flush64.drain_time_reduction",
		"BenchmarkFlushDrain64PerPage", "BenchmarkFlushDrain64Batched", "sim_drain_ms")
	ratio("flush64.fsync_reduction",
		"BenchmarkGroupCommit64PerBlock", "BenchmarkGroupCommit64Batched", "fsyncs/flush")
	// Read-ahead: how many fewer SAN messages a cold sequential scan
	// costs with the default prefetch window.
	if p, okP := metric("BenchmarkSeqScanPrefetch", "san_reads/scan"); okP {
		if n, okN := metric("BenchmarkSeqScanNoPrefetch", "san_reads/scan"); okN && p > 0 {
			out["seqscan32.san_reads_reduction"] = n / p
			out["seqscan32.san_reads_reduction.prefetch"] = p
			out["seqscan32.san_reads_reduction.no_prefetch"] = n
		}
	}
	// Content dedup: the fraction of the hot-file working set's bytes the
	// content-addressed cache shares away, surfaced as a headline number.
	if d, ok := metric("BenchmarkSharedHotFile", "dedup_bytes_saved_ratio"); ok {
		out["hotfile.dedup_bytes_saved_ratio"] = d
	}
	// Replica failover: the simulated takeover window — authority lost to
	// successor serving — straight from the PaxosLease benchmark. Gated
	// both relatively (takeover_ms is in gatedMetrics, so -compare holds
	// it within 5% of baseline: the window can only shrink) and
	// absolutely against the protocol's analytic bound.
	// Metadata journal: what one mutation's persistence costs on a large
	// store over a small one, checkpoints included.
	if small, ok := metric("BenchmarkMetaCommit/1k", "ns/op"); ok {
		if big, ok := metric("BenchmarkMetaCommit/100k", "ns/op"); ok {
			out["metacommit.ns_100k_over_1k"] = big / small
		}
	}
	if w, ok := metric("BenchmarkReplicaFailover", "takeover_ms"); ok {
		out["failover.takeover_ms"] = w
	}
	// The name cache: control messages per lookup on a warm private tree.
	if m, ok := metric("BenchmarkMetaLookupCached", "ctl_msgs/lookup"); ok {
		out["names.ctl_msgs_per_lookup"] = m
	}
	// Shard scaling: metadata throughput of an N-authority installation
	// over the single-authority baseline under the Zipf workload. The
	// speedup ratios are the headline of the scale benchmark's curve.
	if base, ok := metric("BenchmarkShardScaleZipf/shards=1", "mdops_per_simsec"); ok && base > 0 {
		out["shardscale.mdops_per_simsec.1"] = base
		for _, n := range []int{2, 4, 8} {
			v, ok := metric(fmt.Sprintf("BenchmarkShardScaleZipf/shards=%d", n), "mdops_per_simsec")
			if !ok {
				continue
			}
			out[fmt.Sprintf("shardscale.mdops_per_simsec.%d", n)] = v
			out[fmt.Sprintf("shardscale.speedup_%dx", n)] = v / base
		}
	}
	if len(out) == 0 {
		return nil
	}
	return out
}

// historyLine is one run in the history file: the report, keyed by the
// commit it was measured on.
type historyLine struct {
	Commit string `json:"commit"`
	// Dirty: tracked files differed from Commit when the run was made.
	Dirty bool `json:"dirty,omitempty"`
	Report
}

// appendHistory adds report to the JSON-lines file at path as one line,
// creating the file if need be.
func appendHistory(path, commit string, dirty bool, report Report) error {
	line, err := json.Marshal(historyLine{Commit: commit, Dirty: dirty, Report: report})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// gitRevision names the commit the work tree is on and reports whether
// any tracked file differs from it.
func gitRevision() (commit string, dirty bool, err error) {
	head, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "", false, fmt.Errorf("git rev-parse: %w", err)
	}
	status, err := exec.Command("git", "status", "--porcelain", "--untracked-files=no").Output()
	if err != nil {
		return "", false, fmt.Errorf("git status: %w", err)
	}
	return string(bytes.TrimSpace(head)), len(bytes.TrimSpace(status)) > 0, nil
}

// parseBenchLine parses one "BenchmarkName-8  1234  987 ns/op  0 B/op ..."
// line. The format is fields alternating value/unit after the name and
// iteration count.
func parseBenchLine(line, pkg string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return Result{}, false
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r := Result{Name: f[0], Pkg: pkg, Iters: iters}
	for i := 2; i+1 < len(f); i += 2 {
		val, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return Result{}, false
		}
		unit := f[i+1]
		if unit == "ns/op" {
			r.NsPerOp = val
			if val > 0 {
				r.OpsPerSec = 1e9 / val
			}
			continue
		}
		if r.Metrics == nil {
			r.Metrics = map[string]float64{}
		}
		r.Metrics[unit] = val
	}
	if r.NsPerOp == 0 && r.Metrics == nil {
		return Result{}, false
	}
	return r, true
}
