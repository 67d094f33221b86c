package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// readRuns loads the untraced run records of an -out file, grouped by
// workload: values[workload][metric] is one value per run. Runs flagged
// invalid by process.cpu_util are left out and counted in skipped.
func readRuns(path string) (values map[string]map[string][]float64, failed map[string]int, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, 0, err
	}
	defer f.Close()
	values = map[string]map[string][]float64{}
	failed = map[string]int{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, nil, 0, fmt.Errorf("%s: %w", path, err)
		}
		if rec.Trace {
			continue
		}
		if rec.Invalid != "" {
			skipped++
			continue
		}
		if values[rec.Workload] == nil {
			values[rec.Workload] = map[string][]float64{}
		}
		for name, v := range rec.Metrics {
			values[rec.Workload][name] = append(values[rec.Workload][name], v.Value)
		}
		failed[rec.Workload] += rec.Failed
	}
	return values, failed, skipped, sc.Err()
}

// quartiles are the first, second and third quartile as Python's
// statistics.quantiles(values, n=4) gives them (the driver's method).
func quartiles(vals []float64) (q1, q2, q3 float64) {
	x := append([]float64(nil), vals...)
	sort.Float64s(x)
	n := len(x)
	if n < 2 {
		return x[0], x[0], x[0]
	}
	cut := func(i int) float64 {
		j := max(1, min(i*(n+1)/4, n-1))
		delta := i*(n+1) - j*4
		return (x[j-1]*float64(4-delta) + x[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// judge compares one metric's values in two sets of runs of the same code:
// both medians, how much worse B's is than A's as a share of A's, the larger
// of the two quartile spreads as a share of its median, and the verdict. A
// metric without a bound (a demoted one) is shown, not judged.
func judge(d metricDef, va, vb []float64) (medianA, medianB, worse, spread float64, verdict string) {
	a1, a2, a3 := quartiles(va)
	b1, b2, b3 := quartiles(vb)
	worse = (b2 - a2) / a2
	if d.Better == "higher" {
		worse = -worse
	}
	spread = max((a3-a1)/a2, (b3-b1)/b2)
	switch {
	case d.Bound == 0:
		verdict = "-"
	case spread > d.Bound:
		verdict = "unresolved"
	case worse > d.Bound:
		verdict = "regressed"
	default:
		verdict = "ok"
	}
	return a2, b2, worse, spread, verdict
}

// compareFiles prints, for every workload and end-to-end metric, both sets'
// medians, how much worse B is than A, the bound, and a verdict: ok,
// regressed (worse by more than the bound) or unresolved (either set's
// quartile spread is wider than the bound, so the sets cannot tell). The
// metrics demoted to the client layer follow without a bound or a verdict.
// It returns the process's exit code: 1 on any regressed or unresolved row.
func compareFiles(pathA, pathB string) int {
	a, failedA, skippedA, err := readRuns(pathA)
	if err != nil {
		fatal(err)
	}
	b, failedB, skippedB, err := readRuns(pathB)
	if err != nil {
		fatal(err)
	}
	if skippedA+skippedB > 0 {
		fmt.Printf("left out as invalid (process.cpu_util): %d runs of A, %d of B\n", skippedA, skippedB)
	}
	exit := 0
	fmt.Printf("%-9s %-21s %3s %12s %12s %8s %8s %5s  %s\n",
		"workload", "metric", "n", "median A", "median B", "worse", "spread", "bound", "verdict")
	for _, sp := range specs {
		for _, d := range append(endToEndMetrics[:len(endToEndMetrics):len(endToEndMetrics)], demotedMetrics...) {
			va, vb := a[sp.name][d.Name], b[sp.name][d.Name]
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-9s %-21s missing from one set\n", sp.name, d.Name)
				exit = 1
				continue
			}
			a2, b2, worse, spread, verdict := judge(d, va, vb)
			bound := fmt.Sprintf("%.0f%%", 100*d.Bound)
			if d.Bound == 0 {
				bound = "-"
			}
			if verdict == "unresolved" || verdict == "regressed" {
				exit = 1
			}
			fmt.Printf("%-9s %-21s %3d %12.4f %12.4f %+7.1f%% %7.1f%% %5s  %s\n",
				sp.name, d.Name, min(len(va), len(vb)), a2, b2, 100*worse, 100*spread, bound, verdict)
		}
		// failed_share has a baseline of 0, so it compares as a difference.
		verdict := "ok"
		if failedB[sp.name] > failedA[sp.name] {
			verdict, exit = "regressed", 1
		}
		fmt.Printf("%-9s %-21s     %12d %12d %26s%s\n", sp.name, "failed ops", failedA[sp.name], failedB[sp.name], "", verdict)
	}
	return exit
}
