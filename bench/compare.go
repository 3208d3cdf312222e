package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
)

// metricSpec is one metric as BENCHMARK.json declares it.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkSpec is BENCHMARK.json: the contract the benchmark is run
// and judged by. The bounds live there and nowhere else.
type benchmarkSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// loadSpec reads BENCHMARK.json from the repository root.
func loadSpec() (*benchmarkSpec, error) {
	p := filepath.Join(rootDir(), "BENCHMARK.json")
	b, err := os.ReadFile(p)
	if err != nil {
		return nil, fmt.Errorf("%w; run from the repository root", err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", p, err)
	}
	return &s, nil
}

// runSet is what -append accumulates and -compare reads: one entry per
// run of the benchmark, each holding every workload's metrics.
type runSet struct {
	Runs []setRun `json:"runs"`
}

type setRun struct {
	Seed      int64                       `json:"seed"`
	Host      hostInfo                    `json:"host"`
	Workloads map[string]map[string]value `json:"workloads"`
}

func loadRunSet(path string) (*runSet, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rs runSet
	if err := json.Unmarshal(b, &rs); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rs, nil
}

// appendRun adds one run to the set file at path, creating it if need
// be.
func appendRun(path string, run setRun) error {
	rs, err := loadRunSet(path)
	if errors.Is(err, fs.ErrNotExist) {
		rs, err = &runSet{}, nil
	}
	if err != nil {
		return err
	}
	rs.Runs = append(rs.Runs, run)
	return writeJSON(path, rs)
}

// column is one metric's value on one workload in every run of a set.
func (rs *runSet) column(workload, metric string) []float64 {
	var out []float64
	for _, r := range rs.Runs {
		if v, ok := r.Workloads[workload][metric]; ok {
			out = append(out, v.Value)
		}
	}
	return out
}

// worse is by what share of a's median b's median is worse, in the
// metric's own direction (negative: better).
func worse(a, b float64, better string) float64 {
	if a == 0 {
		return 0
	}
	if better == "higher" {
		return (a - b) / math.Abs(a)
	}
	return (b - a) / math.Abs(a)
}

// minPairs is the fewest pairs a gain may be claimed from.
const minPairs = 10

// verdict is one row of a comparison.
type verdict struct {
	Metric     string
	MedA, MedB float64
	Worse      float64 // share of MedA, in the metric's direction
	WinShare   float64 // pairs B won over all pairs; ties count for neither
	SpreadA    float64 // A's interquartile distance over its median
	Pairs      int
	Verdict    string
}

// judge applies the paired-run rule to one metric on one workload. a
// and b are the parent's and the change's values, paired by index.
//
//   - gain: at least minPairs pairs, b wins nine tenths of them (ties
//     count for neither side) and the medians differ by more than the
//     distance between a's quartiles.
//   - REGRESSED: b's median is worse than a's by more than the bound.
//   - unresolved: a's own spread is wider than the bound, so "within
//     the bound" cannot be told from noise — unless every run of b beats
//     every run of a.
//   - within bound: otherwise.
func judge(spec metricSpec, a, b []float64) verdict {
	n := min(len(a), len(b))
	a, b = a[:n], b[:n]
	v := verdict{Metric: spec.Name, Pairs: n}
	if n == 0 {
		v.Verdict = "no data"
		return v
	}
	v.MedA, v.MedB = median(a), median(b)
	v.Worse = worse(v.MedA, v.MedB, spec.Better)
	v.SpreadA = spread(a)
	wins, allBetter := 0, true
	for i := range a {
		if worse(a[i], b[i], spec.Better) < 0 {
			wins++
		}
	}
	for _, x := range a {
		for _, y := range b {
			if worse(x, y, spec.Better) >= 0 {
				allBetter = false
			}
		}
	}
	v.WinShare = float64(wins) / float64(n)
	q1, q3 := quartiles(a)
	switch {
	case n >= minPairs && v.WinShare >= 0.9 && math.Abs(v.MedB-v.MedA) > math.Abs(q3-q1) && v.Worse < 0:
		v.Verdict = "gain"
	case v.Worse > spec.Bound:
		v.Verdict = "REGRESSED"
	case v.SpreadA > spec.Bound && !allBetter:
		v.Verdict = "unresolved"
	default:
		v.Verdict = "within bound"
	}
	return v
}

// compareFiles prints one row per workload × end-to-end metric for two
// run sets (parent first) and fails when any row regressed.
func compareFiles(pathA, pathB string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	a, err := loadRunSet(pathA)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	b, err := loadRunSet(pathB)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if n := min(len(a.Runs), len(b.Runs)); n < minPairs {
		fmt.Printf("%d pairs: fewer than %d, so no row can read \"gain\"\n", n, minPairs)
	}
	code := 0
	fmt.Printf("%-14s %-28s %14s %14s %9s %6s %9s %7s  %s\n",
		"workload", "metric", "median A", "median B", "worse", "wins", "spread A", "bound", "verdict")
	for _, w := range spec.Workloads {
		for _, ms := range spec.EndToEnd {
			v := judge(ms, a.column(w.Name, ms.Name), b.column(w.Name, ms.Name))
			fmt.Printf("%-14s %-28s %14.6g %14.6g %+8.2f%% %6.2f %8.2f%% %6.0f%%  %s\n",
				w.Name, ms.Name, v.MedA, v.MedB, 100*v.Worse, v.WinShare, 100*v.SpreadA, 100*ms.Bound, v.Verdict)
			if v.Verdict == "REGRESSED" {
				code = 1
			}
		}
	}
	return code
}

// runSets runs the whole benchmark o.sets times on the same build and
// fails when two sets' values of an end-to-end metric differ by more
// than the metric's bound. This is how the bounds in BENCHMARK.json were
// set; it also says which percentile each tail metric's sample supports.
func runSets(o options, names []string) int {
	spec, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	var rs runSet
	code := 0
	for k := 0; k < o.sets; k++ {
		run := setRun{Seed: o.seed, Host: hostMeta(), Workloads: map[string]map[string]value{}}
		for _, n := range names {
			res, err := runWorkload(o, n)
			if err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: %v\n", n, err)
				return 1
			}
			fmt.Printf("-- set %d\n", k+1)
			printResult(res)
			if !res.Correct {
				code = 1
			}
			run.Workloads[n] = res.Metrics
			if k == 0 {
				lagN, scrapes := math.MaxInt, 0
				for _, r := range res.Samples {
					lagN = min(lagN, r.LagN)
					scrapes += len(r.Scrapes)
				}
				fmt.Printf("tail support: verdict lag %d samples in the smallest round → p%.0f; scrapes %d per run → p%.0f\n",
					lagN, supportedTail(lagN), scrapes, supportedTail(scrapes))
			}
		}
		rs.Runs = append(rs.Runs, run)
	}
	if err := writeJSON(filepath.Join(o.outDir, fmt.Sprintf("sets-seed%d.json", o.seed)), &rs); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("\n%-14s %-28s %14s %14s %9s %7s\n", "workload", "metric", "least", "most", "apart", "bound")
	for _, n := range names {
		for _, ms := range spec.EndToEnd {
			xs := rs.column(n, ms.Name)
			if len(xs) < 2 {
				continue
			}
			lo, hi := percentile(xs, 0), percentile(xs, 100)
			apart := 0.0
			if m := math.Min(math.Abs(lo), math.Abs(hi)); m > 0 {
				apart = (hi - lo) / m
			}
			mark := ""
			if apart > ms.Bound {
				mark = "  APART BY MORE THAN THE BOUND"
				code = 1
			}
			fmt.Printf("%-14s %-28s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", n, ms.Name, lo, hi, 100*apart, 100*ms.Bound, mark)
		}
	}
	return code
}
