// Command tankbench is the live end-to-end benchmark: it boots a whole
// installation in one process — metadata server, two file-backed disks,
// two clients, all talking loopback TCP — drives one workload against it
// closed loop, checks every answer, and prints the end-to-end metrics
// BENCHMARK.json names. With -trace 1 it runs the workload again on a
// topology whose layer boundaries it has wrapped and prints the per-layer
// metrics instead. README.md defines every metric, and says what the
// process does to itself so that two runs of one build agree: it confines
// itself to one CPU, leaves fsync off in the end-to-end runs, and scales
// what it measures by a yardstick read between the windows.
//
//	tankbench -workload scan_cold -seed 7 -seconds 20 -trace 0
//	tankbench -runs 10 -report set-a.json      # every workload, 10 seeds each
//	tankbench compare set-a.json set-b.json
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"
)

const (
	warmup = time.Second
	// A run alternates windowWork of load with one yardstick reading of
	// yardRead, so -seconds 20 is 50 windows.
	windowWork = 375 * time.Millisecond
	yardRead   = 25 * time.Millisecond
	// yardRef and yardRefP50US define the reference machine: one whose
	// yardstick makes this many round trips a second and whose median
	// round trip takes this long, which is what one core of the sandbox
	// this was built on does when its host is quiet. Every rate and time
	// the benchmark reports is scaled to it (see rateScale, timeScale).
	yardRef      = 125000
	yardRefP50US = 14
	// setupSamples and setupBudget bound the set-ups a run times: up to
	// nine, but no more once they have taken five seconds together
	// (meta_durable: three).
	setupSamples = 9
	setupBudget  = 5 * time.Second
	// hashedOps is how many generated ops per driver the report's
	// op_seq_hash covers.
	hashedOps = 1000
)

type direction string

const (
	higher direction = "higher"
	lower  direction = "lower"
)

type metricSpec struct {
	name   string
	unit   string
	better direction
}

// endToEnd is what a user of the installation would see. BENCHMARK.json
// carries the same list with each metric's regression bound. Two figures
// the report has per window are not in it: cpu_us_per_op, which on one
// CPU is the reciprocal of ops_per_s, and p99_us, which on append_sync —
// where the collector runs every few dozen ops — spreads by more than any
// bound a benchmark may set. A traced run prints both per layer.
var endToEnd = []metricSpec{
	{"ops_per_s", "1/s", higher},
	{"p50_us", "us", lower},
	{"alloc_kb_per_op", "KB", lower},
	{"rss_peak_mb", "MB", lower},
	{"setup_s", "s", lower},
}

// rateScale is how much more work than the reference machine this one got
// done around window w, by the yardstick's round trips per second.
// Dividing a measured rate by it, or multiplying the time a long job took,
// gives what the reference machine would have measured.
func rateScale(w windowStats) float64 { return w.Yard / yardRef }

// timeScale is how much quicker than on the reference machine one short
// step was around window w, by the yardstick's median round trip.
// Multiplying a measured latency by it gives the reference machine's.
func timeScale(w windowStats) float64 { return yardRefP50US / w.YardP50US }

// perWindow picks the figures measured in every window out of one
// window's; a run reports their median over its windows. Times and rates
// are on the reference machine's clock. The other end-to-end metrics have
// one value per run.
var perWindow = map[string]func(windowStats) float64{
	"ops_per_s":       func(w windowStats) float64 { return w.OpsPerS / rateScale(w) },
	"p50_us":          func(w windowStats) float64 { return w.P50US * timeScale(w) },
	"p99_us":          func(w windowStats) float64 { return w.P99US * timeScale(w) },
	"cpu_us_per_op":   func(w windowStats) float64 { return w.CPUUSPerOp * rateScale(w) },
	"alloc_kb_per_op": func(w windowStats) float64 { return w.AllocKBPerOp },
	"yard_per_s":      func(w windowStats) float64 { return w.Yard },
	"yard_p50_us":     func(w windowStats) float64 { return w.YardP50US },
}

// envInfo pins down what machine and build a figure came from.
type envInfo struct {
	NProc int `json:"nproc"`
	// CPU is the one the process confined itself to, -1 if it could not.
	CPU        int    `json:"cpu"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

func environment() envInfo {
	e := envInfo{NProc: machine.nproc, CPU: machine.cpu, GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown"}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				e.Commit = s.Value
			}
		}
	}
	return e
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run in full: what -report writes and compare reads.
type report struct {
	Workload  string  `json:"workload"`
	Seed      int64   `json:"seed"`
	Seconds   int     `json:"seconds"`
	Trace     bool    `json:"trace"`
	Env       envInfo `json:"env"`
	OpSeqHash string  `json:"op_seq_hash"`
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	FailRatio float64 `json:"fail_ratio"`
	// Samples is the number of timed operations behind the percentiles.
	Samples  int                    `json:"samples"`
	Windows  []windowStats          `json:"windows,omitempty"`
	Spread   map[string]summary     `json:"window_quartiles,omitempty"`
	SetupS   []float64              `json:"setup_s,omitempty"`
	EndToEnd map[string]metricValue `json:"end_to_end,omitempty"`
	PerLayer map[string]metricValue `json:"per_layer,omitempty"`
}

// resultLine is the last line of standard output: the contract with
// whatever runs the benchmark.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// machine is where the process runs: set once, before anything is
// measured.
var machine = struct{ cpu, nproc int }{-1, runtime.NumCPU()}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	machine.cpu, machine.nproc = confine()
	var (
		name    = flag.String("workload", "", "workload to run; empty runs every workload, each in a process of its own")
		seed    = flag.Int64("seed", 1, "workload seed: fixes the op sequence and the file choice")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		trace   = flag.Int("trace", 0, "1 = traced run: print the per-layer metrics instead of the end-to-end ones")
		out     = flag.String("report", "", "write the full report (windows, quartiles, environment) to FILE as JSON")
		dir     = flag.String("dir", ".bench_build", "scratch directory for disk media; created if missing")
		runs    = flag.Int("runs", 3, "without -workload: runs per workload, seeds seed, seed+1, ...")
		spans   = flag.String("spans", "", "with -trace 1: write every span to FILE as JSON lines")
		once    = flag.Bool("setup-only", false, "set the workload up, print \"ready\" and a yardstick reading, and exit")
	)
	flag.Parse()
	if *seconds < 1 || flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	if *name == "" {
		os.Exit(runAll(*seed, *seconds, *trace, *runs, *dir, *out))
	}
	w, ok := findWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "tankbench: unknown workload %q\n", *name)
		os.Exit(2)
	}
	var (
		rep *report
		err error
	)
	switch {
	case *once:
		if err = setUpOnly(w, *seed, *dir); err == nil {
			return
		}
	case *trace == 1:
		rep, err = runTraced(w, *seed, *seconds, *dir, *spans)
	default:
		rep, err = runPlain(w, *seed, *seconds, *dir)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "tankbench: %s: %v\n", w.name, err)
		os.Exit(1)
	}
	if *out != "" {
		if err := writeJSON(*out, rep); err != nil {
			fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
			os.Exit(1)
		}
	}
	line := resultLine{Correct: rep.Correct, Attempted: rep.Attempted, Failed: rep.Failed, Metrics: rep.EndToEnd}
	if rep.Trace {
		line.Metrics = rep.PerLayer
	}
	b, err := json.Marshal(line)
	if err != nil {
		fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
		os.Exit(1)
	}
	printRun(*rep) // every metric by name and unit, fail_ratio among them
	fmt.Println(string(b))
	if !rep.Correct {
		os.Exit(1)
	}
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func newReport(w workload, seed int64, seconds int, trace bool) *report {
	return &report{Workload: w.name, Seed: seed, Seconds: seconds, Trace: trace,
		Env: environment(), OpSeqHash: fmt.Sprintf("%016x", opSeqHash(w, seed, hashedOps))}
}

// scratch makes a fresh directory under dir for one installation's media.
func scratch(dir string) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(dir, "tankbench-")
}

// setUp boots an installation and populates it for w.
func setUp(w workload, seed int64, cfg bootConfig,
	boot func(bootConfig) (*installation, error)) (*installation, []executor, error) {
	cfg.metaPersist = w.metaPersist
	in, err := boot(cfg)
	if err != nil {
		return nil, nil, fmt.Errorf("boot: %w", err)
	}
	exs, err := w.populate(in, seed)
	if err != nil {
		in.close()
		return nil, nil, fmt.Errorf("populate: %w", err)
	}
	return in, exs, nil
}

// finish closes the installation, runs the durability check over what the
// executors were told is stable, and folds the outcome into rep.
func finish(rep *report, in *installation, exs []executor, ws []windowStats) error {
	var blocks []durable
	for _, ex := range exs {
		blocks = append(blocks, ex.acked()...)
	}
	in.close()
	bad, err := in.verifyMedia(blocks)
	if err != nil {
		return fmt.Errorf("durability check: %w", err)
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "tankbench: durability check: %d of %d acknowledged blocks lost or torn\n", bad, len(blocks))
	}
	for _, w := range ws {
		rep.Samples += w.Ops
		rep.Attempted += w.Ops + w.Failed
		rep.Failed += w.Failed
	}
	rep.Attempted += len(blocks)
	rep.Failed += bad
	rep.FailRatio = float64(rep.Failed) / float64(rep.Attempted)
	rep.Correct = rep.Failed == 0 && rep.Samples > 0
	return nil
}

// runPlain is the untraced run every end-to-end figure comes from.
func runPlain(w workload, seed int64, seconds int, dir string) (*report, error) {
	rep := newReport(w, seed, seconds, false)
	// The set-ups are timed first, in child processes, while this one is
	// still small and idle: it shares its one CPU with them.
	for spent := time.Duration(0); len(rep.SetupS) < setupSamples && spent < setupBudget; {
		s, err := setUpInChild(w, seed, dir)
		if err != nil {
			return nil, err
		}
		rep.SetupS = append(rep.SetupS, s.refSeconds())
		spent += s.took
	}
	d, err := scratch(dir)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(d)
	in, exs, err := setUp(w, seed, bootConfig{dir: d, noSync: true}, bootShipped)
	if err != nil {
		return nil, err
	}
	yard, err := newYardstick()
	if err != nil {
		in.close()
		return nil, err
	}
	n := max(1, int(time.Duration(seconds)*time.Second/(windowWork+yardRead)))
	rep.Windows = runWindows(w.gens(seed), exs, warmup, windowWork, n, nil,
		func() reading { return yard.read(yardRead) })
	yard.close()
	if err := finish(rep, in, exs, rep.Windows); err != nil {
		return nil, err
	}
	os.RemoveAll(d)
	rep.Spread = make(map[string]summary)
	for name, pick := range perWindow {
		rep.Spread[name] = summarize(rep.Windows, pick)
	}
	rep.EndToEnd = make(map[string]metricValue)
	for _, m := range endToEnd {
		v := rep.Spread[m.name].Median
		switch m.name {
		case "rss_peak_mb":
			v = rssAround(rep.Windows, w.rssOps)
		case "setup_s":
			v = median(rep.SetupS)
		}
		rep.EndToEnd[m.name] = metricValue{v, m.unit}
	}
	return rep, nil
}

// rssAround is rssAt averaged over five operations from a tenth before
// ops to a tenth after. The peak climbs in steps, one per collector cycle
// — of a fifth each on meta_storm, where the live heap grows by a fifth
// per cycle — and where in a step a single operation falls is the seed's
// doing, not the program's.
func rssAround(ws []windowStats, ops int) float64 {
	sum := 0.0
	for _, share := range []float64{0.9, 0.95, 1, 1.05, 1.1} {
		sum += rssAt(ws, int(share*float64(ops)))
	}
	return sum / 5
}

// rssAt is the process's peak resident set when its ops-th operation
// completed, interpolated between the ends of the two windows on either
// side of that operation (the last window's, if the run never got that
// far). Memory grows with the operations done — ClientNode.Sync leaves a
// 30 s timer behind per call — so the peak at the end of a run would
// measure how fast the machine happened to be; the peak at a fixed
// operation does not.
func rssAt(ws []windowStats, ops int) float64 {
	for i, w := range ws {
		if w.OpsSoFar < ops {
			continue
		}
		if i == 0 || w.OpsSoFar == ws[i-1].OpsSoFar {
			return w.RSSPeakMB
		}
		prev := ws[i-1]
		share := float64(ops-prev.OpsSoFar) / float64(w.OpsSoFar-prev.OpsSoFar)
		return prev.RSSPeakMB + share*(w.RSSPeakMB-prev.RSSPeakMB)
	}
	return ws[len(ws)-1].RSSPeakMB
}

// setupSample is one set-up in a child process.
type setupSample struct {
	// took is from starting the process to its installation being ready
	// for the first operation.
	took time.Duration
	// yard is the child's yardstick reading right after.
	yard float64
}

// refSeconds is how long the reference machine would have taken.
func (s setupSample) refSeconds() float64 { return s.took.Seconds() * s.yard / yardRef }

// setUpOnly is -setup-only: set up in this process, say so, read the
// yardstick, say that, and exit.
func setUpOnly(w workload, seed int64, dir string) error {
	d, err := scratch(dir)
	if err != nil {
		return err
	}
	defer os.RemoveAll(d)
	in, _, err := setUp(w, seed, bootConfig{dir: d, noSync: true}, bootShipped)
	if err != nil {
		return err
	}
	defer in.close()
	fmt.Println("ready")
	yard, err := newYardstick()
	if err != nil {
		return err
	}
	defer yard.close()
	fmt.Println(yard.read(2 * yardRead).perSec)
	return nil
}

// setUpInChild runs this program with -setup-only and times it from the
// outside: process start to the line that says the installation is ready.
func setUpInChild(w workload, seed int64, dir string) (setupSample, error) {
	var s setupSample
	self, err := os.Executable()
	if err != nil {
		return s, err
	}
	cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed), "-dir", dir, "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return s, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return s, err
	}
	lines := bufio.NewScanner(out)
	if lines.Scan() && lines.Text() == "ready" {
		s.took = time.Since(start)
		if lines.Scan() {
			s.yard, _ = strconv.ParseFloat(lines.Text(), 64)
		}
	}
	if err := cmd.Wait(); err != nil {
		return s, fmt.Errorf("set-up in a child process: %w", err)
	}
	if s.yard <= 0 {
		return s, fmt.Errorf("set-up in a child process: no result")
	}
	return s, nil
}

// set is what a run over every workload writes: the input of compare.
type set struct {
	Env  envInfo  `json:"env"`
	Runs []report `json:"runs"`
}

// runAll runs every workload runs times, each run in a process of its own
// so that rss_peak_mb is that workload's and nobody else's.
func runAll(seed int64, seconds, trace, runs int, dir, out string) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
		return 1
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
		return 1
	}
	tmp := filepath.Join(dir, fmt.Sprintf("report-%d.json", os.Getpid()))
	defer os.Remove(tmp)
	s := set{Env: environment()}
	status := 0
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", fmt.Sprint(seed+int64(i)),
				"-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace), "-dir", dir, "-report", tmp)
			cmd.Stderr = os.Stderr
			if err := cmd.Run(); err != nil {
				var exit *exec.ExitError
				if !errors.As(err, &exit) {
					fmt.Fprintf(os.Stderr, "tankbench: %s: %v\n", w.name, err)
					return 1
				}
				status = 1 // the child said why; its report, if any, still counts
			}
			var rep report
			b, err := os.ReadFile(tmp)
			if err == nil {
				err = json.Unmarshal(b, &rep)
			}
			os.Remove(tmp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "tankbench: %s: no report: %v\n", w.name, err)
				status = 1
				continue
			}
			s.Runs = append(s.Runs, rep)
			printRun(rep)
		}
	}
	if out != "" {
		if err := writeJSON(out, s); err != nil {
			fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
			return 1
		}
	}
	return status
}

func printRun(rep report) {
	ms := rep.EndToEnd
	specs := endToEnd
	if rep.Trace {
		ms, specs = rep.PerLayer, perLayer
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%-13s seed %-4d fail_ratio %g", rep.Workload, rep.Seed, rep.FailRatio)
	for _, m := range specs {
		fmt.Fprintf(&b, "; %s %.5g %s", m.name, ms[m.name].Value, m.unit)
	}
	fmt.Println(b.String())
}
