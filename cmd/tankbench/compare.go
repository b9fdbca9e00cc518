package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"text/tabwriter"
)

// benchmarkFile is the part of BENCHMARK.json compare needs: each
// end-to-end metric's direction and regression bound.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string    `json:"name"`
		Unit   string    `json:"unit"`
		Better direction `json:"better"`
		Bound  float64   `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// values collects one metric's value from every run of one workload.
func (s set) values(workload, metric string) []float64 {
	var vs []float64
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			if m, ok := r.EndToEnd[metric]; ok {
				vs = append(vs, m.Value)
			}
		}
	}
	return vs
}

// failRatio is failed over attempted across every run of one workload.
func (s set) failRatio(workload string) (ratio float64, runs int) {
	var failed, attempted int
	for _, r := range s.Runs {
		if r.Workload == workload && !r.Trace {
			failed += r.Failed
			attempted += r.Attempted
			runs++
		}
	}
	if attempted > 0 {
		ratio = float64(failed) / float64(attempted)
	}
	return ratio, runs
}

// verdict compares set b against set a on one metric: how much worse b's
// median is as a share of a's, and whether that can be told at all. A
// metric whose own run-to-run spread, in either set, exceeds its bound is
// unresolved — the sets cannot show a change of that size.
func verdict(a, b []float64, better direction, bound float64) (worse float64, status string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		worse = (mb - ma) / ma
		if better == higher {
			worse = -worse
		}
	}
	switch {
	case len(a) < 2 || len(b) < 2:
		return worse, "unresolved" // no spread to judge by
	case spread(a) > bound || spread(b) > bound:
		return worse, "unresolved"
	case worse > bound:
		return worse, "BREACH"
	}
	return worse, "ok"
}

// compareMain implements `tankbench compare A.json B.json`: exit 1 if any
// metric of B is worse than A's by more than its bound or B's fail_ratio
// is above A's at all, 2 if neither but some metric cannot be resolved, 0
// otherwise.
func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("benchmark", "BENCHMARK.json", "file the bounds are read from")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: tankbench compare [-benchmark BENCHMARK.json] A.json B.json")
		return 2
	}
	var (
		bench benchmarkFile
		a, b  set
	)
	for _, f := range []struct {
		path string
		into any
	}{{*benchPath, &bench}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSON(f.path, f.into); err != nil {
			fmt.Fprintf(os.Stderr, "tankbench: %v\n", err)
			return 2
		}
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median\tB median\tworse by\tbound\tspread A\tspread B\t")
	breach, unresolved := false, false
	for _, w := range workloads {
		fa, na := a.failRatio(w.name)
		fb, nb := b.failRatio(w.name)
		if na > 0 || nb > 0 {
			status := "ok"
			if fb > fa {
				status, breach = "BREACH", true
			}
			fmt.Fprintf(tw, "%s\tfail_ratio\t%.5g\t%.5g\t\tany rise\t\t\t%s\n", w.name, fa, fb, status)
		}
		for _, m := range bench.EndToEnd {
			va, vb := a.values(w.name, m.Name), b.values(w.name, m.Name)
			if len(va) == 0 && len(vb) == 0 {
				continue
			}
			worse, status := verdict(va, vb, m.Better, m.Bound)
			breach = breach || status == "BREACH"
			unresolved = unresolved || status == "unresolved"
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.5g\t%.5g\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				w.name, m.Name, m.Unit, median(va), median(vb), 100*worse, 100*m.Bound,
				100*spread(va), 100*spread(vb), status)
		}
	}
	tw.Flush()
	switch {
	case breach:
		return 1
	case unresolved:
		return 2
	}
	return 0
}
